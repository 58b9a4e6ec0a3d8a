"""Achievable information rate of a shaped alphabet over a per-subcarrier AWGN channel.

The output entropy has no closed form (Gaussian mixture), so the expectation of
the log-sum-exp stabilized mixture likelihood is computed two ways:

- ``air_quadrature``: a deterministic K x K Gauss-Hermite product rule over the
  complex noise, one rule per alphabet point. The shaping solver reports this.
  Its nodes come from ``gauss_hermite_outputs`` and its log-sum-exp is
  ``row_logsumexp``; the solver's posterior bank uses both, at fewer nodes.
- ``air_estimate``: Monte Carlo with a fixed seed, kept as an independent check
  of the quadrature; it keeps ``scipy.special.logsumexp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .channel import complex_normal
from .constellation import ShapedConstellation, draw_symbols

_CHUNK = 20_000
GH_NODES = 20  # per real dimension; the product rule has GH_NODES**2 noise nodes
# (point, node) rows per quadrature block. Fixed, not sized to memory: the AIR
# sums one dot product per block, so its bits depend on where the blocks split.
_GH_CHUNK_ROWS = 8192
# complex differences y - c per chunk of log_likelihood_table (1,024 rows at 64 centers)
LL_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class AirConfig:
    """Communication-channel settings for the mutual-information estimate."""

    comm_noise_var: float
    channel_gain: complex = 1.0 + 0.0j
    mc_samples: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if not self.comm_noise_var > 0:  # also rejects nan
            raise ValueError(f"comm_noise_var must be > 0, got {self.comm_noise_var}")
        if self.mc_samples < 1:
            raise ValueError(f"mc_samples must be >= 1, got {self.mc_samples}")


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

    ln p(y|x) of CN(h x, var) up to its constant, with ``centers = h x``. The
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


def noise_entropy(comm_noise_var: float) -> float:
    """Differential entropy of CN(0, var) in bits: log2(pi e var)."""
    if not comm_noise_var > 0:
        raise ValueError(f"comm_noise_var must be > 0, got {comm_noise_var}")
    return math.log2(math.pi * math.e * comm_noise_var)


def air_estimate(c: ShapedConstellation, cfg: AirConfig) -> float:
    """Per-symbol mutual information in bits, clamped to [0, H(p)].

    Draws y = h*x + n with x ~ p(x), then averages
    -log2 sum_x p(y|h,x) p(x) and subtracts the Gaussian noise entropy.
    """
    rng = np.random.default_rng(cfg.seed)
    var = cfg.comm_noise_var
    h = complex(cfg.channel_gain)
    log_p = np.log(np.clip(c.probs, 1e-300, None))
    centers = h * c.points

    # E[ln sum_x p(x) exp(-|y - h x|^2 / var)] accumulated in chunks
    lse_total = 0.0
    remaining = cfg.mc_samples
    while remaining > 0:
        size = min(_CHUNK, remaining)
        x = c.points[draw_symbols(c, rng, size)]
        y = h * x + complex_normal(rng, var, size)
        sq_dist = np.abs(y[:, None] - centers[None, :]) ** 2
        lse_total += float(logsumexp(log_p[None, :] - sq_dist / var, axis=1).sum())
        remaining -= size

    mean_lse = lse_total / cfg.mc_samples
    bits = (-mean_lse - 1.0) / math.log(2.0)
    return min(max(bits, 0.0), c.entropy_bits())


def air_quadrature(c: ShapedConstellation, cfg: AirConfig) -> float:
    """Per-symbol mutual information in bits by Gauss-Hermite quadrature, clamped to [0, H(p)].

    E[ln sum_x' p(x') exp(-|y - h x'|^2 / var)] with y = h x + n is summed over
    the points x with p(x) > 0 and the GH_NODES x GH_NODES ``gauss_hermite_outputs``
    nodes. Deterministic: the Monte Carlo settings ``mc_samples`` and ``seed`` are not used.
    """
    var = cfg.comm_noise_var
    keep = c.probs > 0
    probs = c.probs[keep]
    log_p = np.log(probs)
    centers = complex(cfg.channel_gain) * c.points[keep]
    y, node_w = gauss_hermite_outputs(centers, var, GH_NODES)
    row_w = (probs[:, None] * node_w[None, :]).ravel()

    mean_lse = 0.0
    for start in range(0, y.size, _GH_CHUNK_ROWS):
        block = slice(start, start + _GH_CHUNK_ROWS)
        a = log_likelihood_table(y[block], centers, var)
        a += log_p
        mean_lse += float(row_w[block] @ row_logsumexp(a))

    bits = (-mean_lse - 1.0) / math.log(2.0)
    return min(max(bits, 0.0), c.entropy_bits())
