"""CA-CFAR detection on delay profiles and detection-probability estimation.

The cell-averaging detector estimates the local noise level from 2*train
training cells around each cell under test (guard cells excluded) with
circular windowing, matching the DFT bin topology. The threshold factor
alpha = T (pfa^(-1/T) - 1) is exact for i.i.d. exponential cell powers.
"""

from __future__ import annotations

from collections.abc import Sequence

# the noqa names are unused here but stay importable: perfbench/tracing.py wraps them
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter1d

from .channel import FrameDims, Scene, Target, complex_normal  # noqa: F401
from .constellation import ShapedConstellation, draw_symbols  # noqa: F401
from .filtering import FilterKind, dd_transform, point_gain  # noqa: F401
from .metrics import _run_batches

DETECTION_BATCH = 128


@dataclass(frozen=True)
class CfarConfig:
    guard_cells: int = 2
    train_cells: int = 16
    pfa: float = 1e-4

    def __post_init__(self):
        if self.guard_cells < 0:
            raise ValueError(f"guard_cells must be >= 0, got {self.guard_cells}")
        if self.train_cells < 1:
            raise ValueError(f"train_cells must be >= 1, got {self.train_cells}")
        if not 0.0 < self.pfa < 1.0:
            raise ValueError(f"pfa must lie in (0, 1), got {self.pfa}")


def cfar_threshold_factor(train_total: int, pfa: float) -> float:
    """Exact CA-CFAR scaling for exponential noise: T (pfa^(-1/T) - 1)."""
    return train_total * (pfa ** (-1.0 / train_total) - 1.0)


def cfar_thresholds(profiles: np.ndarray, cfg: CfarConfig) -> np.ndarray:
    """Per-cell thresholds with circular windows; operates on the last axis."""
    profiles = np.asarray(profiles, dtype=np.float64)
    n = profiles.shape[-1]
    span = cfg.guard_cells + cfg.train_cells
    if n <= 2 * span:
        raise ValueError(f"profile length {n} must exceed 2*(guard+train) = {2 * span}")
    full = uniform_filter1d(profiles, size=2 * span + 1, axis=-1, mode="wrap") * (2 * span + 1)
    cut = uniform_filter1d(profiles, size=2 * cfg.guard_cells + 1, axis=-1, mode="wrap") * (
        2 * cfg.guard_cells + 1
    )
    noise = (full - cut) / (2 * cfg.train_cells)
    alpha = cfar_threshold_factor(2 * cfg.train_cells, cfg.pfa)
    return alpha * noise


def ca_cfar_1d(profile, cfg: CfarConfig) -> tuple[np.ndarray, np.ndarray]:
    """Detect cells whose power exceeds the local CA threshold.

    Returns (detected indices, per-cell thresholds).
    """
    profile = np.asarray(profile, dtype=np.float64)
    if profile.ndim != 1:
        raise ValueError(f"profile must be 1-D, got shape {profile.shape}")
    thresholds = cfar_thresholds(profile, cfg)
    return np.flatnonzero(profile > thresholds), thresholds


def detection_cell(dims: FrameDims, scene: Scene) -> tuple[int, int]:
    """The weak target's (delay bin, Doppler bin) in a two-target scene; raises if it is not detectable."""
    if len(scene.targets) != 2:
        raise ValueError(f"scene must contain exactly two targets, got {len(scene.targets)}")
    n, m = dims.shape
    bins = [int(round(t.delay_bin)) % n for t in scene.targets]
    if bins[0] == bins[1]:
        raise ValueError("targets have coincident delay bins")
    weak = min(range(2), key=lambda i: scene.targets[i].gain_var)
    return bins[weak], int(round(scene.targets[weak].doppler_bin)) % m


def detection_probability(
    dims: FrameDims,
    scene: Scene,
    c: ShapedConstellation | Sequence[ShapedConstellation],
    f: FilterKind,
    cfg: CfarConfig,
    trials: int,
    seed: int,
    batch_size: int = DETECTION_BATCH,
    threads: int = 1,
) -> float | tuple[float, ...]:
    """Probability that the weaker of two targets is detected on its delay profile.

    Each trial runs the shared frame kernel on fresh symbols, target gains and
    noise and runs CA-CFAR over the delay profile at the weak target's Doppler
    bin (the zero-Doppler slice in the stock scenario). That profile is one
    column of the DD map, |IFFT_N(hhat @ w_p)|^2 N/M with w_p[m] = e^{-j2 pi m p/M},
    so the full map is never formed.

    A sequence of codebooks on one alphabet gets a tuple of P_d from one shared
    trial set: every codebook sees the same uniforms, target gains and noise,
    so the P_d differ only through the codebooks, never through the draw. Each
    entry equals a single call's.
    """
    weak_bin, doppler_bin = detection_cell(dims, scene)
    single = isinstance(c, ShapedConstellation)
    books = (c,) if single else tuple(c)
    n, m = dims.shape
    w_p = np.exp(-2j * np.pi * np.arange(m) * doppler_bin / m)
    scale = np.sqrt(n / m)

    def reduce(h, g, chi, hhat):
        column = np.fft.ifft(hhat @ w_p, axis=-1)
        column *= scale
        profiles = np.abs(column) ** 2
        thresholds = cfar_thresholds(profiles, cfg)
        return {"hits": profiles[:, weak_bin] > thresholds[:, weak_bin]}

    arms = tuple((book, f) for book in books)
    sums = _run_batches(arms, dims, scene, trials, seed, batch_size, threads, reduce)
    pds = tuple(s["hits"] / trials for s in sums)
    return pds[0] if single else pds


def default_tradeoff_scene(noise_var: float, weak_delay_bin: int = 5, weak_rel_power_db: float = -15.0):
    """Strong target at bin 0 plus a weak one nearby; the stock Pd scenario."""
    weak_power = 10.0 ** (weak_rel_power_db / 10.0)
    return Scene(
        (
            Target(gain_var=1.0, delay_bin=0.0, doppler_bin=0.0),
            Target(gain_var=weak_power, delay_bin=float(weak_delay_bin), doppler_bin=0.0),
        ),
        noise_var,
    )
