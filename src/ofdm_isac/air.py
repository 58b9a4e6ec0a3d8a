"""Achievable information rate of a shaped alphabet over a per-subcarrier AWGN channel.

The output entropy has no closed form (Gaussian mixture), so the expectation of
the log-sum-exp stabilized mixture likelihood is computed two ways:

- ``air_quadrature``: a deterministic K x K Gauss-Hermite product rule over the
  complex noise, one rule per alphabet point. The shaping solver reports this.
  Its log-sum-exp is ``row_logsumexp``, which the solver's posterior step uses too.
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
# (point, node) rows per log-sum-exp block; bounds the call's memory. Measured
# on the 64-QAM benchmark workloads: 8192 rows give a solve the same peak RSS as
# 4096, and the tradeoff command (solves, then 2-thread detection) a lower one,
# 152-167 MB against ~178 MB, because at 4096 the C heap keeps ~24 MB of the
# solves' freed memory; 12800 rows and up raise a solve's own peak.
_GH_CHUNK_ROWS = 8192


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
    """-|y_i - c_k|^2 / var for outputs y (rows) and centers c (columns), built in one buffer.

    ln p(y|x) of CN(h x, var) up to its constant, with ``centers = h x``.
    """
    out = np.abs(np.subtract(y[:, None], centers))
    np.square(out, out=out)
    out /= -var  # the sign moves onto the divisor exactly
    return out


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
    the points x with p(x) > 0 and the GH_NODES x GH_NODES product nodes
    n = sqrt(var) (t_i + j t_k) of weight w_i w_k / pi. Deterministic: the
    Monte Carlo settings ``mc_samples`` and ``seed`` are not used.
    """
    var = cfg.comm_noise_var
    h = complex(cfg.channel_gain)
    t, w = np.polynomial.hermite.hermgauss(GH_NODES)
    noise = math.sqrt(var) * (t[:, None] + 1j * t[None, :]).ravel()
    node_w = (w[:, None] * w[None, :]).ravel() / math.pi
    keep = c.probs > 0
    probs = c.probs[keep]
    log_p = np.log(probs)
    centers = h * c.points[keep]
    y = (centers[:, None] + noise[None, :]).ravel()
    row_w = (probs[:, None] * node_w[None, :]).ravel()

    mean_lse = 0.0
    for start in range(0, y.size, _GH_CHUNK_ROWS):
        block = slice(start, start + _GH_CHUNK_ROWS)
        a = log_likelihood_table(y[block], centers, var)
        a += log_p
        mean_lse += float(row_w[block] @ row_logsumexp(a))

    bits = (-mean_lse - 1.0) / math.log(2.0)
    return min(max(bits, 0.0), c.entropy_bits())
