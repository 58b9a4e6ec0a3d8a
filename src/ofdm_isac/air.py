"""Achievable information rate of a shaped alphabet over a per-subcarrier AWGN channel.

The conditional output entropy has no closed form (Gaussian mixture), so it is
estimated by Monte Carlo with a log-sum-exp stabilized mixture likelihood. A
fixed seed makes the estimate deterministic and lets shaping sweeps reuse
common random numbers, which keeps trade-off curves smooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .channel import FrameDims, complex_normal
from .constellation import ShapedConstellation, draw_symbols

_CHUNK = 20_000


@dataclass(frozen=True)
class AirConfig:
    """Communication-channel settings for the mutual-information estimate."""

    comm_noise_var: float
    channel_gain: complex = 1.0 + 0.0j
    mc_samples: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if self.comm_noise_var <= 0:
            raise ValueError(f"comm_noise_var must be > 0, got {self.comm_noise_var}")
        if self.mc_samples < 1:
            raise ValueError(f"mc_samples must be >= 1, got {self.mc_samples}")


def noise_entropy(comm_noise_var: float) -> float:
    """Differential entropy of CN(0, var) in bits: log2(pi e var)."""
    if comm_noise_var <= 0:
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


def frame_air_bits(c: ShapedConstellation, cfg: AirConfig, dims: FrameDims) -> float:
    """Frame total: per-symbol AIR scaled by the NM identically distributed slots."""
    return dims.size * air_estimate(c, cfg)
