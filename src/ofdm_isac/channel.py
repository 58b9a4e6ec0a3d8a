"""Discrete delay-Doppler sensing model: frame geometry, scenes, steering vectors.

The frame is an N-subcarrier x M-symbol grid of frequency-domain data. A scene
is a set of point targets, each contributing a rank-one steering outer product
to the sensing CSI matrix H, observed as Y = H o X + Z (o = elementwise).
Delay/Doppler positions are expressed directly in bin units; fractional bins
model off-grid targets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

@dataclass(frozen=True)
class FrameDims:
    """OFDM frame geometry: N subcarriers (fast time) x M symbols (slow time)."""

    n_subcarriers: int
    n_symbols: int

    def __post_init__(self):
        if self.n_subcarriers < 2:
            raise ValueError(f"n_subcarriers must be >= 2, got {self.n_subcarriers}")
        if self.n_symbols < 1:
            raise ValueError(f"n_symbols must be >= 1, got {self.n_symbols}")

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

    @property
    def snr_in(self) -> float:
        """Input SNR before filtering: total target gain power over noise power."""
        if self.noise_var == 0:
            return math.inf
        return self.total_gain_var / self.noise_var


def complex_normal(rng: np.random.Generator, var: float, shape) -> np.ndarray:
    """Circularly symmetric complex Gaussian CN(0, var): real parts drawn first, then imaginary."""
    out = np.empty(shape, dtype=np.complex128)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out *= math.sqrt(var / 2.0)
    return out


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


def bins_from_physical(
    dims: FrameDims,
    subcarrier_spacing_hz: float,
    symbol_duration_s: float,
    delay_s: float = 0.0,
    doppler_hz: float | None = None,
    carrier_freq_hz: float | None = None,
    doppler_ratio: float = 0.0,
) -> tuple[float, float]:
    """Convert a physical (delay, Doppler) pair to fractional frame bins.

    Doppler can be given directly in Hz, or as the dimensionless ratio
    (relative velocity over c) together with the carrier frequency.
    """
    if doppler_hz is None:
        doppler_hz = (carrier_freq_hz or 0.0) * doppler_ratio
    k = dims.n_subcarriers * subcarrier_spacing_hz * delay_s
    p = dims.n_symbols * symbol_duration_s * doppler_hz
    return k, p


def scene_to_dict(dims: FrameDims, scene: Scene) -> dict:
    return {
        "N": dims.n_subcarriers,
        "M": dims.n_symbols,
        "targets": [
            {"delay_bin": t.delay_bin, "doppler_bin": t.doppler_bin, "gain_var": t.gain_var} for t in scene.targets
        ],
        "noise_var": scene.noise_var,
    }


def scene_from_dict(data: dict) -> tuple[FrameDims, Scene]:
    try:
        dims = FrameDims(int(data["N"]), int(data["M"]))
        targets = []
        for entry in data["targets"]:
            pinned = [key for key in ("gain_re", "gain_im") if key in entry]
            if pinned:
                raise ValueError(f"scene target fields {pinned} are not supported: gains are drawn from CN(0, gain_var)")
            targets.append(
                Target(
                    gain_var=float(entry["gain_var"]),
                    delay_bin=float(entry["delay_bin"]),
                    doppler_bin=float(entry["doppler_bin"]),
                )
            )
        scene = Scene(tuple(targets), float(data["noise_var"]))
    except KeyError as exc:
        raise ValueError(f"scene config missing field {exc}") from exc
    return dims, scene


def load_scene(path: str | Path) -> tuple[FrameDims, Scene]:
    with open(path, encoding="utf-8") as fh:
        return scene_from_dict(json.load(fh))


def save_scene(path: str | Path, dims: FrameDims, scene: Scene) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scene_to_dict(dims, scene), fh, indent=2)
        fh.write("\n")
