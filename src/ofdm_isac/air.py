"""Achievable information rate of a shaped alphabet over a per-subcarrier AWGN channel y = x + n,
n ~ CN(0, noise_var), given as a float: a channel y = h x + n' is noise_var = var(n') / |h|^2.

The output entropy has no closed form (Gaussian mixture), so the expectation of
the log-sum-exp stabilized mixture likelihood is computed two ways:

- ``air_quadrature``: a deterministic K x K Gauss-Hermite product rule over the
  complex noise, one rule per ``symmetry_orbits`` class of the alphabet. The
  shaping solver reports this. Its nodes come from ``gauss_hermite_outputs``
  and its log-sum-exp is ``row_logsumexp``; the solver's posterior bank uses
  all three, at fewer nodes.
- ``air_estimate``: Monte Carlo, its sample count and seed given as arguments,
  kept as an independent check of the quadrature; it keeps
  ``scipy.special.logsumexp``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

from .channel import check_int, complex_normal
from .constellation import ShapedConstellation, draw_symbols

_CHUNK = 20_000
GH_NODES = 20  # per real dimension; the product rule has GH_NODES**2 noise nodes
# (point, node) rows per quadrature block. Fixed, not sized to memory: the AIR
# sums one dot product per block, so its bits depend on where the blocks split.
_GH_CHUNK_ROWS = 8192
# complex differences y - c per chunk of log_likelihood_table (1,024 rows at 64 centers)
LL_CHUNK_BYTES = 1 << 20


def check_variance(name: str, value: float) -> float:
    """``value``, unless it is not finite and > 0 (nan included): then a ValueError that names ``name``."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return value


def row_logsumexp(a: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(a))) of a 2-D float array, overwriting ``a``.

    The max-separated ``log1p`` form of Blanchard, Higham & Higham (IMA J.
    Numer. Anal. 2021), step for step as ``scipy.special.logsumexp(a, axis=1)``
    takes it, so the result has the same bits: with ``a_max`` the row maximum
    and ``count`` the number of cells equal to it, ``s`` is the row sum of
    ``exp(a - a_max)`` over the other cells, divided by ``count`` unless it is
    0, and the result is ``log1p(s) + log(count) + a_max``.

    For finite real input only: inf and nan rows are not handled. ``a`` is
    used as the work buffer and holds no useful values afterwards.
    """
    a_max = a.max(axis=1, keepdims=True)
    top = a == a_max
    count = np.count_nonzero(top, axis=1).astype(a.dtype)
    a -= a_max
    np.exp(a, out=a)
    np.putmask(a, top, 0.0)
    s = a.sum(axis=1)
    np.divide(s, count, out=s, where=s != 0)
    out = np.log1p(s)
    out += np.log(count)
    out += a_max[:, 0]
    return out


def log_likelihood_table(y: np.ndarray, centers: np.ndarray, var: float) -> np.ndarray:
    """-|y_i - c_k|^2 / var for outputs y (rows) and centers c (columns).

    ln p(y|x) of CN(x, var) up to its constant, with ``centers = x``. The
    rows are filled in chunks whose complex differences fit in
    ``LL_CHUNK_BYTES``, so no complex temporary of the table's size exists;
    each entry is computed alone, so the chunking does not change its bits.
    """
    out = np.empty((y.size, centers.size))
    rows = max(1, LL_CHUNK_BYTES // (16 * centers.size))
    diff = np.empty((min(rows, y.size), centers.size), dtype=complex)
    for start in range(0, y.size, rows):
        part = out[start : start + rows]
        d = diff[: part.shape[0]]
        np.subtract(y[start : start + rows, None], centers, out=d)
        np.abs(d, out=part)
        np.square(part, out=part)
        part /= -var  # the sign moves onto the divisor exactly
    return out


def gauss_hermite_outputs(centers: np.ndarray, var: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Outputs y = c + sqrt(var) (t_i + j t_k), nodes**2 per center in center-major order, and
    the weights w_i w_k / pi of the Gauss-Hermite product rule for CN(0, var) (they sum to 1).
    """
    t, w = np.polynomial.hermite.hermgauss(nodes)
    noise = math.sqrt(var) * (t[:, None] + 1j * t[None, :]).ravel()
    node_w = (w[:, None] * w[None, :]).ravel() / math.pi
    return (centers[:, None] + noise[None, :]).ravel(), node_w


def symmetry_orbits(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the alphabet under the maps of the square's group D4 that permute it.

    Of the eight maps x -> j^k x and x -> j^k conj(x), those that permute
    ``points`` (to 1e-9 of the largest modulus) are kept. Each leaves the
    channel y = x + n and its D4-invariant Gauss-Hermite noise grid alone, under
    the same map of y. Every kept map preserves |x|, and every log-likelihood
    |y - x'|^2 up to a relabelling of x', so the AIR and the shaping problem's
    optimum are constant on each orbit (Kschischang & Pasupathy, IEEE T-IT 1993).

    Returns ``reps``, the smallest point index of each orbit (ascending),
    ``sizes``, each orbit's point count, and ``orbit_of``, each point's orbit:
    ``points[reps[orbit_of[i]]]`` is the representative of point ``i``.
    """
    points = np.asarray(points, dtype=complex)
    conj = points.conj()
    maps = [points, 1j * points, -points, -1j * points, conj, 1j * conj, -conj, -1j * conj]
    tol = 1e-9 * float(np.abs(points).max())
    lowest = np.arange(points.size)
    for image in maps:
        dist = np.abs(image[:, None] - points[None, :])
        target = dist.argmin(axis=1)
        if dist.min(axis=1).max() <= tol and np.unique(target).size == points.size:
            np.minimum(lowest, target, out=lowest)  # the kept maps form a group: this ends at each orbit's least index
    reps, orbit_of, sizes = np.unique(lowest, return_inverse=True, return_counts=True)
    return reps, sizes, orbit_of


def air_estimate(c: ShapedConstellation, noise_var: float, samples: int = 200_000, seed: int = 0) -> float:
    """Per-symbol mutual information in bits, clamped to [0, H(p)].

    Draws ``samples`` outputs y = x + n with x ~ p(x) from ``seed``, then
    averages -log2 sum_x p(y|x) p(x) and subtracts the Gaussian noise entropy.
    """
    var = check_variance("noise_var", noise_var)
    samples = check_int("samples", samples, 1)
    rng = np.random.default_rng(check_int("seed", seed, 0))
    log_p = np.log(np.clip(c.probs, 1e-300, None))

    # E[ln sum_x p(x) exp(-|y - x|^2 / var)] accumulated in chunks
    lse_total = 0.0
    remaining = samples
    while remaining > 0:
        size = min(_CHUNK, remaining)
        x = c.points[draw_symbols(c, rng, size)]
        y = x + complex_normal(rng, var, size)
        sq_dist = np.abs(y[:, None] - c.points[None, :]) ** 2
        lse_total += float(logsumexp(log_p[None, :] - sq_dist / var, axis=1).sum())
        remaining -= size

    mean_lse = lse_total / samples
    bits = (-mean_lse - 1.0) / math.log(2.0)
    return min(max(bits, 0.0), c.entropy_bits())


def air_quadrature(c: ShapedConstellation, noise_var: float) -> float:
    """Per-symbol mutual information in bits by Gauss-Hermite quadrature, clamped to [0, H(p)].

    E[ln sum_x' p(x') exp(-|y - x'|^2 / var)] with y = x + n is summed over
    the GH_NODES x GH_NODES ``gauss_hermite_outputs`` nodes of one representative
    x of each ``symmetry_orbits`` class O with P(O) = |O| p(x) > 0, weighted by
    P(O): the inner sum is the same at every point of an orbit. A law that is
    not exactly constant on the orbits is summed over singleton classes, which is
    the sum over every point with p(x) > 0. Deterministic: it draws nothing.
    """
    var = check_variance("noise_var", noise_var)
    reps, sizes, orbit_of = symmetry_orbits(c.points)
    if not np.array_equal(c.probs, c.probs[reps][orbit_of]):
        reps, sizes = np.arange(c.order), np.ones(c.order)
    mass = sizes * c.probs[reps]
    reps, mass = reps[mass > 0], mass[mass > 0]
    keep = c.probs > 0
    log_p = np.log(c.probs[keep])
    centers = c.points[keep]
    y, node_w = gauss_hermite_outputs(c.points[reps], var, GH_NODES)
    row_w = (mass[:, None] * node_w[None, :]).ravel()

    mean_lse = 0.0
    for start in range(0, y.size, _GH_CHUNK_ROWS):
        block = slice(start, start + _GH_CHUNK_ROWS)
        a = log_likelihood_table(y[block], centers, var)
        a += log_p
        mean_lse += float(row_w[block] @ row_logsumexp(a))

    bits = (-mean_lse - 1.0) / math.log(2.0)
    return min(max(bits, 0.0), c.entropy_bits())
