"""CA-CFAR detection on delay profiles and detection-probability estimation.

The cell-averaging detector estimates the local noise level from 2*train
training cells around each cell under test (guard cells excluded) with
circular windowing, matching the DFT bin topology. The threshold factor
alpha = T (pfa^(-1/T) - 1) is exact for i.i.d. exponential cell powers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter1d

from .channel import FrameDims, Scene, complex_normal, steering_vectors
from .constellation import ShapedConstellation, draw_symbols
from .filtering import FilterKind, dd_transform, point_gain
from .metrics import _batch_plan

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


def detection_probability(
    dims: FrameDims,
    scene: Scene,
    c: ShapedConstellation,
    f: FilterKind,
    cfg: CfarConfig,
    trials: int,
    seed: int,
    batch_size: int = DETECTION_BATCH,
    threads: int = 1,
) -> float:
    """Probability that the weaker of two targets is detected on its delay profile.

    Each trial draws fresh symbols, complex target gains, and noise, forms the
    DD power map, and runs CA-CFAR over the delay profile at the weak target's
    Doppler bin (the zero-Doppler slice in the stock scenario).
    """
    if len(scene.targets) != 2:
        raise ValueError(f"scene must contain exactly two targets, got {len(scene.targets)}")
    n, m = dims.shape
    bins = [int(round(t.delay_bin)) % n for t in scene.targets]
    if bins[0] == bins[1]:
        raise ValueError("targets have coincident delay bins")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    weak = min(range(2), key=lambda i: scene.targets[i].gain_var)
    weak_bin = bins[weak]
    doppler_bin = int(round(scene.targets[weak].doppler_bin)) % m
    steering = []
    for t in scene.targets:
        b, cv = steering_vectors(dims, t)
        steering.append(np.outer(b, np.conj(cv)))
    g_tab = point_gain(c.points, f)

    def work(job):
        index, size = job
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        idx = draw_symbols(c, rng, (size, n, m))
        x = c.points[idx]
        g = g_tab[idx]
        h = np.zeros((size, n, m), dtype=np.complex128)
        for t, s_q in zip(scene.targets, steering):
            alpha = complex_normal(rng, t.gain_var, (size,))
            h += alpha[:, None, None] * s_q[None, :, :]
        z = complex_normal(rng, scene.noise_var, (size, n, m)) if scene.noise_var > 0 else 0.0
        hhat = (h * x + z) * g
        power = np.abs(dd_transform(hhat)) ** 2
        profiles = power[:, :, doppler_bin]
        thresholds = cfar_thresholds(profiles, cfg)
        return int(np.count_nonzero(profiles[:, weak_bin] > thresholds[:, weak_bin]))

    plan = _batch_plan(trials, batch_size)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hits = sum(pool.map(work, plan))
    else:
        hits = sum(work(job) for job in plan)
    return hits / trials


def default_tradeoff_scene(noise_var: float, weak_delay_bin: int = 5, weak_rel_power_db: float = -15.0):
    """Strong target at bin 0 plus a weak one nearby; the stock Pd scenario."""
    from .channel import Target

    weak_power = 10.0 ** (weak_rel_power_db / 10.0)
    return Scene(
        (
            Target(gain_var=1.0, delay_bin=0.0, doppler_bin=0.0),
            Target(gain_var=weak_power, delay_bin=float(weak_delay_bin), doppler_bin=0.0),
        ),
        noise_var,
    )
