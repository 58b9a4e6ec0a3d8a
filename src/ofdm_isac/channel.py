"""Discrete delay-Doppler sensing model: frame geometry, scenes, CSI and echo synthesis.

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

ROLES = ("symbols", "csi", "echo", "filter", "chi", "dd-map", "response")


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

    ``gain_var`` is the complex gain power used when gains are drawn randomly.
    ``gain`` optionally pins a fixed complex gain for deterministic synthesis
    (profile-style experiments that average over symbols and noise only).
    """

    gain_var: float
    delay_bin: float
    doppler_bin: float
    gain: complex | None = None

    def __post_init__(self):
        if self.gain_var < 0:
            raise ValueError(f"gain_var must be >= 0, got {self.gain_var}")

    def fixed_gain(self) -> complex:
        return self.gain if self.gain is not None else complex(math.sqrt(self.gain_var))


@dataclass(frozen=True)
class Scene:
    """Targets plus receiver noise power."""

    targets: tuple[Target, ...]
    noise_var: float

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.noise_var < 0:
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


@dataclass(frozen=True)
class ComplexFrame:
    """N x M complex matrix tagged with the role it plays in the signal chain."""

    entries: np.ndarray
    role: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown frame role {self.role!r}, expected one of {ROLES}")
        entries = np.asarray(self.entries, dtype=np.complex128)
        if entries.ndim != 2:
            raise ValueError(f"frame entries must be 2-D, got shape {entries.shape}")
        if self.role == "chi":
            # the filtered spectrum is real for MF, RF and WF
            scale = max(1.0, float(np.max(np.abs(entries))) if entries.size else 1.0)
            if float(np.max(np.abs(entries.imag))) > 1e-9 * scale:
                raise ValueError("chi frame must be real-valued")
        object.__setattr__(self, "entries", entries)

    @property
    def dims(self) -> FrameDims:
        return FrameDims(*self.entries.shape)


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


def build_csi(
    dims: FrameDims,
    scene: Scene,
    mode: str = "random",
    seed: int | None = None,
) -> ComplexFrame:
    """Synthesize the sensing CSI matrix H as a sum of steering outer products.

    ``mode="random"`` draws each target gain from CN(0, gain_var) using ``seed``;
    ``mode="fixed"`` uses each target's pinned (or sqrt(gain_var)) gain.
    """
    if not scene.targets:
        raise ValueError("scene must contain at least one target")
    if mode not in ("random", "fixed"):
        raise ValueError(f"mode must be 'random' or 'fixed', got {mode!r}")
    rng = np.random.default_rng(seed) if mode == "random" else None
    h = np.zeros(dims.shape, dtype=np.complex128)
    for target in scene.targets:
        b, c = steering_vectors(dims, target)
        if mode == "random":
            alpha = complex(complex_normal(rng, target.gain_var, ()))
        else:
            alpha = target.fixed_gain()
        h += alpha * np.outer(b, np.conj(c))
    return ComplexFrame(h, "csi")


def synthesize_echo(
    csi: ComplexFrame,
    symbols: ComplexFrame,
    noise_var: float,
    seed: int | None = None,
) -> ComplexFrame:
    """Noisy echo Y = H o X + Z with Z i.i.d. CN(0, noise_var) per entry."""
    if csi.entries.shape != symbols.entries.shape:
        raise ValueError(
            f"shape mismatch: csi {csi.entries.shape} vs symbols {symbols.entries.shape}"
        )
    if noise_var < 0:
        raise ValueError(f"noise_var must be >= 0, got {noise_var}")
    rng = np.random.default_rng(seed)
    z = complex_normal(rng, noise_var, csi.entries.shape) if noise_var > 0 else 0.0
    return ComplexFrame(csi.entries * symbols.entries + z, "echo")


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
    targets = []
    for t in scene.targets:
        entry: dict = {"delay_bin": t.delay_bin, "doppler_bin": t.doppler_bin}
        if t.gain is not None:
            entry["gain_re"] = t.gain.real
            entry["gain_im"] = t.gain.imag
        entry["gain_var"] = t.gain_var
        targets.append(entry)
    return {
        "N": dims.n_subcarriers,
        "M": dims.n_symbols,
        "targets": targets,
        "noise_var": scene.noise_var,
    }


def scene_from_dict(data: dict) -> tuple[FrameDims, Scene]:
    try:
        dims = FrameDims(int(data["N"]), int(data["M"]))
        targets = []
        for entry in data["targets"]:
            gain = None
            if "gain_re" in entry or "gain_im" in entry:
                gain = complex(entry.get("gain_re", 0.0), entry.get("gain_im", 0.0))
            gain_var = entry.get("gain_var", abs(gain) ** 2 if gain is not None else None)
            if gain_var is None:
                raise KeyError("targets[].gain_var")
            targets.append(
                Target(
                    gain_var=float(gain_var),
                    delay_bin=float(entry["delay_bin"]),
                    doppler_bin=float(entry["doppler_bin"]),
                    gain=gain,
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
