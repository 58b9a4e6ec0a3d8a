"""Discrete delay-Doppler sensing model: frame geometry, scenes, steering vectors, noise.

The frame is an N-subcarrier x M-symbol grid of frequency-domain data. A scene
is a set of point targets, each contributing a rank-one steering outer product
to the sensing CSI matrix H, observed as Y = H o X + Z (o = elementwise).
Delay/Doppler positions are in bin units only; fractional bins model off-grid
targets. Scenes are built in code, and every frame draws each target's gain
from CN(0, gain_var).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def check_int(name: str, value, least: int) -> int:
    """``value`` as an int; raises unless it is an integer (a numpy integer too, a bool not) at or above ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class FrameDims:
    """OFDM frame geometry: N subcarriers (fast time) x M symbols (slow time)."""

    n_subcarriers: int
    n_symbols: int

    def __post_init__(self):
        for name, least in (("n_subcarriers", 2), ("n_symbols", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), least))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_subcarriers, self.n_symbols)

    @property
    def size(self) -> int:
        return self.n_subcarriers * self.n_symbols


@dataclass(frozen=True)
class Target:
    """Point target with delay/Doppler position in (possibly fractional) bins.

    Every frame draws the target's complex gain from CN(0, ``gain_var``).
    """

    gain_var: float
    delay_bin: float
    doppler_bin: float

    def __post_init__(self):
        if not self.gain_var >= 0:  # also rejects nan
            raise ValueError(f"gain_var must be >= 0, got {self.gain_var}")


@dataclass(frozen=True)
class Scene:
    """Targets plus receiver noise power."""

    targets: tuple[Target, ...]
    noise_var: float

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if not self.noise_var >= 0:  # also rejects nan
            raise ValueError(f"noise_var must be >= 0, got {self.noise_var}")

    @property
    def total_gain_var(self) -> float:
        return sum(t.gain_var for t in self.targets)


def complex_normal(rng: np.random.Generator, var: float, shape, real: np.ndarray | None = None) -> np.ndarray:
    """Circularly symmetric complex Gaussian CN(0, var): real parts drawn first, then imaginary.
    Given the standard normal real parts drawn before, as ``real``, it draws only the imaginary parts."""
    out = np.empty(shape, dtype=np.complex128)
    out.real = rng.standard_normal(shape) if real is None else real
    out.imag = rng.standard_normal(shape)
    out *= math.sqrt(var / 2.0)
    return out


def target_cell(dims: FrameDims, target: Target) -> tuple[int, int]:
    """The grid cell (k, p) nearest the target, wrapped into the frame: delay bin 15.6 of 16 is cell 0.
    ``round`` sends exact halves to the even bin, so 2.5 goes to 2 and 3.5 to 4."""
    return int(round(target.delay_bin)) % dims.n_subcarriers, int(round(target.doppler_bin)) % dims.n_symbols


def steering_vectors(dims: FrameDims, target: Target) -> tuple[np.ndarray, np.ndarray]:
    """Frequency-domain and slow-time steering vectors for one target.

    Returns (b, c) with b_n = exp(-2j pi n k/N) and c_m = exp(-2j pi m p/M);
    the CSI uses c conjugated (outer product b c^H).
    """
    n, m = dims.shape
    if not 0 <= target.delay_bin < n:
        raise ValueError(f"delay_bin {target.delay_bin} outside [0, {n})")
    if not 0 <= target.doppler_bin < m:
        raise ValueError(f"doppler_bin {target.doppler_bin} outside [0, {m})")
    b = np.exp(-2j * np.pi * np.arange(n) * target.delay_bin / n)
    c = np.exp(-2j * np.pi * np.arange(m) * target.doppler_bin / m)
    return b, c
