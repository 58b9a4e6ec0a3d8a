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

from .channel import FrameDims, Scene, Target, check_int, complex_normal, steering_vectors, target_cell  # noqa: F401
from .constellation import ShapedConstellation, draw_symbols  # noqa: F401
from .filtering import FilterKind, dd_transform, point_gain  # noqa: F401
from .metrics import _run_batches

DETECTION_BATCH = 128
# the column chain's block of frames, as one complex array: 16 frames at 64x32. Each thread finishes a
# block (columns, IFFT, CA-CFAR, hits) before drawing the next; the block is twice the frame kernel's, as
# its per-block work is light and each block makes a few Python calls per codebook
DETECTION_BLOCK_BYTES = 1 << 19


@dataclass(frozen=True)
class CfarConfig:
    guard_cells: int = 2
    train_cells: int = 16
    pfa: float = 1e-4

    def __post_init__(self):
        for name, least in (("guard_cells", 0), ("train_cells", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), least))
        if not 0.0 < self.pfa < 1.0:
            raise ValueError(f"pfa must lie in (0, 1), got {self.pfa}")


def cfar_threshold_factor(train_total: int, pfa: float) -> float:
    """Exact CA-CFAR scaling for exponential noise: T (pfa^(-1/T) - 1)."""
    return train_total * (pfa ** (-1.0 / train_total) - 1.0)


def _check_window(n: int, cfg: CfarConfig) -> int:
    """The window's half-width guard + train; raises unless a profile of length ``n`` is longer than the window."""
    span = cfg.guard_cells + cfg.train_cells
    if n <= 2 * span:
        raise ValueError(f"profile length {n} must exceed 2*(guard+train) = {2 * span}")
    return span


def cfar_thresholds(profiles: np.ndarray, cfg: CfarConfig) -> np.ndarray:
    """Per-cell thresholds with circular windows; operates on the last axis."""
    profiles = np.asarray(profiles, dtype=np.float64)
    n = profiles.shape[-1]
    span = _check_window(n, cfg)
    padded = np.concatenate((profiles[..., n - span :], profiles, profiles[..., :span]), axis=-1)
    # Each side's training cells as a fixed-order sum of shifted copies: a running or prefix sum would
    # take a strong peak back out by a difference and leave its rounding error in the cells beyond it.
    # The copies shift along the flattened rows, so each add runs over one contiguous array; runs[..., i]
    # sums train_cells cells from padded cell i, within its row for every i read below.
    flat = padded.reshape(-1)
    runs = flat.copy()
    for k in range(1, cfg.train_cells):
        runs[:-k] += flat[k:]
    runs = runs.reshape(padded.shape)
    right = span + cfg.guard_cells + 1
    noise = runs[..., :n] + runs[..., right : right + n]
    noise /= 2 * cfg.train_cells
    return np.multiply(noise, cfar_threshold_factor(2 * cfg.train_cells, cfg.pfa), out=noise)


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
    cells = [target_cell(dims, t) for t in scene.targets]
    if cells[0][0] == cells[1][0]:
        raise ValueError("targets have coincident delay bins")
    if scene.targets[0].gain_var == scene.targets[1].gain_var:
        raise ValueError("targets have equal powers, so neither is the weak one")
    return cells[min(range(2), key=lambda i: scene.targets[i].gain_var)]


def detection_probability(
    dims: FrameDims,
    scene: Scene,
    codebooks: Sequence[ShapedConstellation],
    f: FilterKind,
    cfg: CfarConfig,
    trials: int,
    seed: int,
    threads: int = 1,
) -> tuple[float, ...]:
    """Probability that the weaker of two targets is detected on its delay profile, one per codebook.

    Each trial takes the frame kernel's draw of symbols and target gains and runs
    CA-CFAR over the delay profile at the weak target's Doppler bin p: column p of
    the DD map, |IFFT_N(hhat @ w_p)|^2 N/M with w_p[m] = e^{-j2 pi m p/M}.
    Neither hhat nor the map is formed: with h = sum_t alpha_t b_t c_t^H and chi = x g,

        (hhat @ w_p)[n] = sum_t alpha_t b_t[n] (chi[n, :] . (conj(c_t) w_p)) + sum_m z[n, m] g[n, m] w_p[m].

    Given the symbols, the noise term of each delay bin n is a linear map of M
    i.i.d. CN(0, noise_var) values, so it is CN(0, noise_var sum_m |g[n, m]|^2)
    (|w_p[m]| = 1), independently across n. The chain draws that law directly:
    xi[n] ~ CN(0, noise_var), one value per frame and delay bin, times
    sqrt(sum_m |g[n, m]|^2). So P_d has the law of CA-CFAR on the full map's
    column, from N noise values per frame in place of N M; without noise the two
    agree trial by trial.

    The codebooks, on one alphabet, share one trial set: every codebook sees the
    same uniforms, target gains and xi, so the P_d are common-random-number paired
    and differ only through the codebooks, never through the draw. Each entry equals
    that of a call on that codebook alone. The chain is a per-block step of the one
    batch runner, ``metrics._simulate_batch``, in ``DETECTION_BATCH``-frame batches and
    ``DETECTION_BLOCK_BYTES`` blocks: its one symbol search per block serves every codebook,
    which gathers its |g|^2 and chi from per-cell tables, and each codebook's hits come back
    as per-frame booleans, joined and summed as every per-frame scalar is.
    """
    weak_bin, doppler_bin = detection_cell(dims, scene)
    n, m = dims.shape
    span = _check_window(n, cfg)
    # the weak cell's window: its threshold reads no cell outside it, so |.|^2 and CA-CFAR run on these cells only
    window = (weak_bin - span + np.arange(2 * span + 1)) % n
    w_p = np.exp(-2j * np.pi * np.arange(m) * doppler_bin / m)
    vectors = [steering_vectors(dims, t) for t in scene.targets]
    b = np.array([bv for bv, _ in vectors]).T  # (N, targets)
    # (M, 2 targets) reals, so that the real matmul chi @ weights views as the complex chi @ (conj(c_t) w_p)
    weights = np.array([np.conj(cv) * w_p for _, cv in vectors]).T.copy().view(np.float64)

    def chain(books):
        tables = [(np.abs(g_cells) ** 2, chi_cells) for _, arms in books for g_cells, chi_cells in arms]

        def step(alphas, cell, xi):  # each block is finished, and its arrays dropped, before the next draw
            gains = np.stack(alphas, axis=-1)[:, None, :] * b
            columns = np.empty((len(tables), len(cell), n), dtype=np.complex128)
            for arm, (gain_sq_cells, chi_cells) in enumerate(tables):
                terms = (chi_cells[cell] @ weights).view(np.complex128) * gains
                column = np.add(terms[..., 0], terms[..., 1], out=columns[arm])  # the two targets
                column += xi * np.sqrt(gain_sq_cells[cell].sum(axis=-1))
            del cell
            np.fft.ifft(columns, axis=-1, out=columns)
            columns *= np.sqrt(n / m)
            profiles = np.abs(columns[..., window]) ** 2  # the weak cell at the centre, span
            del columns
            return [{"hits": hits} for hits in profiles[..., span] > cfar_thresholds(profiles, cfg)[..., span]]

        return DETECTION_BATCH, DETECTION_BLOCK_BYTES, (n,), step

    sums = _run_batches(codebooks, (f,), dims, scene, trials, seed, threads, chain)
    return tuple(s["hits"] / trials for s in sums)


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
