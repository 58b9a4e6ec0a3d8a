"""Sensing metrics: closed forms, expected DD profiles, and Monte Carlo estimates.

Closed forms follow from the alphabet moments: with chi = x*g and pedestal
P = gain_var*Var(chi) + noise_var*E|g|^2,

    MSE     = NM * (gain_var * E{(chi-1)^2} + noise_var * E|g|^2)
    SNR_out = SNR_in * (E{chi^2} + (NM-1) E^2{chi}) / E|g|^2
    ISLR    = (NM-1) Var(chi) / (E{chi^2} + (NM-1) E^2{chi})
    DR      = NM * gain_var * E^2{chi} / P          (peak over pedestal)
    NMSE    = N^2 M^2 / DR + (E{chi}-1)^2 / E^2{chi}

Empirical counterparts average over random symbols, target gains and noise,
with per-batch seeds derived from a master seed so results are reproducible
bit-for-bit and independent of the thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import FrameDims, Scene, complex_normal, steering_vectors
from .constellation import ChiStats, ShapedConstellation, chi_stats, moment_abs_pow, symbol_index
from .constellation import draw_symbols  # noqa: F401 -- stays importable: perfbench/tracing.py wraps it
from .filtering import FilterKind, dd_transform, point_gain

DEFAULT_BATCH = 256
FRAME_BLOCK_BYTES = 1 << 20  # the kernel's complex block of frames (32 at 64x32) stays within L2
FAR_DISTANCE = 4


@dataclass(frozen=True)
class MetricsReport:
    """Sensing metrics for one (constellation, filter, scene) tuple."""

    mse: float
    snr_out: float
    islr: float
    dr: float
    nmse: float
    provenance: str
    trials: int | None = None
    seed: int | None = None

    def __post_init__(self):
        for name in ("mse", "snr_out", "islr", "dr", "nmse"):
            v = getattr(self, name)
            if math.isnan(v) or v < 0:
                raise ValueError(f"metric {name} must be nonnegative, got {v}")
        if self.provenance == "empirical" and self.trials is None:
            raise ValueError("empirical reports must carry a trial count")


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the sensing-metric identities, estimated by Monte Carlo."""

    islr_identity_max_rel: float
    mse_relation_rel: float
    dd_unitarity_max_rel: float
    parseval_max_rel: float
    trials: int
    seed: int


def _ratio(num: float, den: float) -> float:
    if den == 0.0:
        return math.inf if num > 0 else 0.0
    return num / den


def pedestal_power(stats: ChiStats, gain_var: float, noise_var: float) -> float:
    """Flat DD-profile floor: signaling randomness plus filtered noise."""
    return gain_var * stats.var_chi + noise_var * stats.mean_gain_sq


def dynamic_range(
    stats: ChiStats,
    dims: FrameDims,
    gain_var: float,
    noise_var: float,
    include_unity: bool = False,
) -> float:
    """Peak-to-pedestal ratio of the expected DD profile.

    The default drops the +1 of the exact peak/pedestal ratio (the peak term
    accumulates NM-fold, so DR >> 1 in any useful regime); ``include_unity``
    restores it for small-frame sanity checks.
    """
    dr = _ratio(dims.size * gain_var * stats.mean_chi**2, pedestal_power(stats, gain_var, noise_var))
    return 1.0 + dr if include_unity else dr


def closed_form_metrics(
    c: ShapedConstellation,
    f: FilterKind,
    dims: FrameDims,
    gain_var: float,
    noise_var: float,
) -> MetricsReport:
    """Evaluate all closed-form metrics from the alphabet moments."""
    s = chi_stats(c, f)
    nm = dims.size
    snr_in = _ratio(gain_var, noise_var)
    mse = nm * (gain_var * (s.mean_chi_sq - 2.0 * s.mean_chi + 1.0) + noise_var * s.mean_gain_sq)
    denom = s.mean_chi_sq + (nm - 1) * s.mean_chi**2
    snr_out = snr_in * _ratio(denom, s.mean_gain_sq)
    islr = _ratio((nm - 1) * s.var_chi, denom)
    dr = dynamic_range(s, dims, gain_var, noise_var)
    nmse = _ratio(nm**2, dr) + _ratio((s.mean_chi - 1.0) ** 2, s.mean_chi**2)
    return MetricsReport(mse, snr_out, islr, dr, nmse, "closed-form")


def dirichlet_kernel(u, n: int) -> np.ndarray:
    """Normalized Dirichlet kernel sin(pi u) / (n sin(pi u / n)); 1 at u = 0."""
    u = np.asarray(u, dtype=np.float64)
    den = n * np.sin(np.pi * u / n)
    num = np.sin(np.pi * u)
    on_grid = np.abs(den) < 1e-9
    cycles = np.rint(u / n)
    limit = np.where((cycles * (n - 1)) % 2 == 0, 1.0, -1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.where(on_grid, limit, num / np.where(on_grid, 1.0, den))
    return value


def expected_dd_power(
    k,
    p,
    target_bins: tuple[float, float],
    c: ShapedConstellation,
    f: FilterKind,
    dims: FrameDims,
    gain_var: float,
    noise_var: float,
    kernel: str = "dirichlet",
) -> np.ndarray:
    """Expected DD-profile power at hypothesis bins (k, p) for a single target.

    ``kernel`` selects the exact Dirichlet kernel or the sinc approximation of
    the mainlobe shape; both agree on integer bins.
    """
    s = chi_stats(c, f)
    kk, pp = target_bins
    n, m = dims.shape
    if kernel == "dirichlet":
        shape = dirichlet_kernel(np.asarray(k) - kk, n) ** 2 * dirichlet_kernel(np.asarray(p) - pp, m) ** 2
    elif kernel == "sinc":
        shape = np.sinc(np.asarray(k) - kk) ** 2 * np.sinc(np.asarray(p) - pp) ** 2
    else:
        raise ValueError(f"kernel must be 'dirichlet' or 'sinc', got {kernel!r}")
    peak = dims.size * gain_var * s.mean_chi**2
    return pedestal_power(s, gain_var, noise_var) + peak * shape


def crossover_snr_in(c: ShapedConstellation) -> float:
    """Input SNR (linear) where MF and RF dynamic ranges coincide."""
    fourth = moment_abs_pow(c, 4.0)
    if abs(fourth - 1.0) < 1e-12:
        raise ValueError("constant-modulus constellation has no MF/RF crossover (0/0)")
    return (moment_abs_pow(c, -2.0) - 1.0) / (fourth - 1.0)


def far_region_mask(dims: FrameDims, scene: Scene, distance: int) -> np.ndarray:
    n, m = dims.shape
    mask = np.ones((n, m), dtype=bool)
    kk = np.arange(n)[:, None]
    pp = np.arange(m)[None, :]
    for t in scene.targets:
        tk = int(round(t.delay_bin)) % n
        tp = int(round(t.doppler_bin)) % m
        dk = np.minimum(np.abs(kk - tk), n - np.abs(kk - tk))
        dp = np.minimum(np.abs(pp - tp), m - np.abs(pp - tp))
        mask &= (dk >= distance) & (dp >= distance)
    if not mask.any():
        raise ValueError("far region is empty; frame too small for the pedestal estimate")
    return mask


def _batch_plan(trials: int, batch_size: int) -> list[tuple[int, int]]:
    if trials < 1 or batch_size < 1:
        raise ValueError(f"trials and batch_size must be >= 1, got {trials} and {batch_size}")
    return [(i, min(batch_size, trials - done)) for i, done in enumerate(range(0, trials, batch_size))]


def _energy(a: np.ndarray) -> np.ndarray:
    """Per-frame energy sum |a|^2 over the last two axes."""
    return np.sum(np.abs(a) ** 2, axis=(1, 2))


def _join_frames(key: str, blocks: list[np.ndarray]):
    """Reduce one key's per-frame blocks, joined in frame order, to the batch's partial."""
    frames = np.concatenate(blocks)
    total = frames.max() if key.endswith("_max") else frames.sum(axis=0)  # summed block by block, it would round apart
    return float(total) if total.ndim == 0 else total


def _simulate_batch(
    index: int,
    size: int,
    books: list[tuple[ShapedConstellation, list[tuple[int, np.ndarray, np.ndarray]]]],
    n_arms: int,
    dims: FrameDims,
    scene: Scene,
    seed: int,
    steering: list[np.ndarray],
    reduce,
) -> list[dict]:
    """Draw one batch of uniforms, gains and noise; ``reduce(h, g, chi, hhat)`` it per arm.

    Every arm sees the same trial set, so the arms' results (say, the P_d of
    each trade-off budget) differ through their codebooks and filters, never
    through the draw. The uniforms are mapped to symbol indices once per
    codebook in ``books``; each of that codebook's arms ``(arm, g_tab, chi_tab)``
    gathers g and chi from its filter's per-point tables. The chain runs over
    blocks of frames within ``FRAME_BLOCK_BYTES``. ``reduce`` returns per-frame
    arrays, frames first; each key's blocks are joined in frame order and summed
    over frames once per batch (``_max`` keys: the maximum), whatever the block size.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    shape = (size, *dims.shape)
    u = rng.random(shape)
    alphas = [complex_normal(rng, t.gain_var, (size,)) for t in scene.targets]
    z = complex_normal(rng, scene.noise_var, shape) if scene.noise_var > 0 else None
    block = max(1, FRAME_BLOCK_BYTES // (16 * dims.size))
    per_frame: list[dict] = [{} for _ in range(n_arms)]
    for lo in range(0, size, block):
        frames = slice(lo, lo + block)
        u_b = u[frames]
        h = np.zeros(u_b.shape, dtype=np.complex128)
        for alpha, s_q in zip(alphas, steering):
            h += alpha[frames, None, None] * s_q[None, :, :]
        for c, book_arms in books:
            idx = symbol_index(c, u_b)
            x = c.points[idx]
            y = h * x  # h * <temporary> would run in place as x * h, whose SIMD rounding differs
            del x  # not needed by the reducers; freeing it keeps the block's peak memory down
            if z is not None:
                y += z[frames]
            for arm, g_tab, chi_tab in book_arms:
                g = g_tab[idx]
                for key, value in reduce(h, g, chi_tab[idx], y * g).items():
                    per_frame[arm].setdefault(key, []).append(value)
    return [{key: _join_frames(key, values) for key, values in parts.items()} for parts in per_frame]


def _run_batches(
    arms: tuple[tuple[ShapedConstellation, FilterKind], ...],
    dims: FrameDims,
    scene: Scene,
    trials: int,
    seed: int,
    batch_size: int,
    threads: int,
    reduce,
) -> list[dict]:
    """One dict of partials per (codebook, filter) arm over one shared trial set.

    The arms' codebooks must share one alphabet (the same points up to the
    unit-power scale); equal codebooks map the uniforms once. ``reduce`` returns
    per-frame arrays (``_simulate_batch``); batches add up in plan order, and
    ``_max`` keys keep the maximum.
    """
    plan = _batch_plan(trials, batch_size)
    alphabet = arms[0][0].points / arms[0][0].points[0]
    groups: dict[bytes, tuple[ShapedConstellation, list]] = {}
    for arm, (c, f) in enumerate(arms):
        if c.order != alphabet.size or not np.allclose(c.points / c.points[0], alphabet, rtol=1e-12, atol=0.0):
            raise ValueError("codebooks must share one alphabet (the same points up to scale)")
        g_tab = point_gain(c.points, f)
        book = groups.setdefault(c.points.tobytes() + c.probs.tobytes(), (c, []))
        book[1].append((arm, g_tab, (c.points * g_tab).real))
    books = list(groups.values())
    steering = [np.outer(b, np.conj(cv)) for b, cv in (steering_vectors(dims, t) for t in scene.targets)]

    def work(job):
        index, size = job
        return _simulate_batch(index, size, books, len(arms), dims, scene, seed, steering, reduce)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(work, plan))
    else:
        partials = [work(job) for job in plan]

    totals: list[dict] = [{} for _ in arms]
    for parts in partials:  # fixed reduction order keeps outputs bit-identical
        for total, part in zip(totals, parts):
            for key, value in part.items():
                if key.endswith("_max"):
                    total[key] = max(total.get(key, 0.0), value)
                else:
                    total[key] = total.get(key, 0.0) + value
    return totals


def empirical_metrics(
    c: ShapedConstellation,
    f: FilterKind,
    dims: FrameDims,
    scene: Scene,
    trials: int,
    seed: int,
    batch_size: int = DEFAULT_BATCH,
    threads: int = 1,
) -> MetricsReport:
    """Monte Carlo metrics over random symbols, target gains, and noise."""
    if not scene.targets:
        raise ValueError("scene must contain at least one target")
    strongest = max(scene.targets, key=lambda t: t.gain_var)
    peak_bin = (
        int(round(strongest.delay_bin)) % dims.n_subcarriers,
        int(round(strongest.doppler_bin)) % dims.n_symbols,
    )
    far = far_region_mask(dims, scene, FAR_DISTANCE)
    nm = dims.size

    def reduce(h, g, chi, hhat):
        chi_sum = chi.sum(axis=(1, 2))
        lam_power = np.abs(dd_transform(hhat)) ** 2
        return {
            "mse": _energy(hhat - h),
            "g_energy": _energy(g),
            "r00_sq": (chi_sum / math.sqrt(nm)) ** 2,
            "r_energy": _energy(dd_transform(chi)),
            "chi_total": chi_sum,
            "peak": lam_power[:, peak_bin[0], peak_bin[1]],
            # cell by cell, as .mean(axis=1) sums a gather of 2+ frames; on one frame it sums pairwise
            "far": np.cumsum(lam_power[:, far], axis=1)[:, -1] / far.sum(),
        }

    (sums,) = _run_batches(((c, f),), dims, scene, trials, seed, batch_size, threads, reduce)
    mse = sums["mse"] / trials
    mean_r00_sq = sums["r00_sq"] / trials
    mean_g_energy = sums["g_energy"] / trials
    snr_out = _ratio(scene.total_gain_var * mean_r00_sq, scene.noise_var * mean_g_energy / nm)
    islr = _ratio(sums["r_energy"] / trials - mean_r00_sq, mean_r00_sq)
    dr = _ratio(sums["peak"] / trials, sums["far"] / trials)
    mean_chi = sums["chi_total"] / (trials * nm)
    nmse = _ratio(nm**2, dr) + _ratio((mean_chi - 1.0) ** 2, mean_chi**2)
    return MetricsReport(mse, snr_out, max(islr, 0.0), dr, nmse, "empirical", trials, seed)


def empirical_dd_profile(
    c: ShapedConstellation,
    f: FilterKind,
    dims: FrameDims,
    scene: Scene,
    trials: int,
    seed: int,
    batch_size: int = DEFAULT_BATCH,
    threads: int = 1,
) -> np.ndarray:
    """Mean DD power map E|Lambda|^2 estimated over random frames."""

    def reduce(h, g, chi, hhat):
        return {"power": np.abs(dd_transform(hhat)) ** 2}

    (sums,) = _run_batches(((c, f),), dims, scene, trials, seed, batch_size, threads, reduce)
    return sums["power"] / trials


def _identity_sums(h, g, chi, hhat) -> dict:
    """Per-frame terms of the identity residuals: the chi FFT and the error FFT."""
    nm = chi[0].size
    sqrt_nm = math.sqrt(nm)
    diff = hhat - h
    diff_energy = _energy(diff)
    dd_unitarity = np.abs(diff_energy - _energy(dd_transform(diff))) / np.maximum(diff_energy, 1e-300)
    del diff
    r_energy = _energy(dd_transform(chi))
    r00 = chi.sum(axis=(1, 2)) / sqrt_nm
    ident_lhs = r_energy - r00**2
    ident_rhs = ((chi - (r00 / sqrt_nm)[:, None, None]) ** 2).sum(axis=(1, 2))
    parseval = np.abs(r_energy - (chi**2).sum(axis=(1, 2))) / r_energy
    mse_relation_lhs = ident_lhs + nm * (1.0 - r00 / sqrt_nm) ** 2
    return {
        "mse": diff_energy,
        "g_energy": _energy(g),
        "mse_relation_lhs": mse_relation_lhs,
        "islr_identity_max": np.abs(ident_lhs - ident_rhs) / r_energy,
        "parseval_max": parseval,
        "dd_unitarity_max": dd_unitarity,
    }


def identity_checks(
    c: ShapedConstellation,
    f: FilterKind | tuple[FilterKind, ...],
    dims: FrameDims,
    scene: Scene,
    trials: int,
    seed: int,
    batch_size: int = DEFAULT_BATCH,
    threads: int = 1,
) -> IdentityReport | tuple[IdentityReport, ...]:
    """Residuals of the ISLR reformulation, the MSE relation, and DD unitarity.

    The MSE-relation residual compares the response-side expansion
    gain_var * E{sum|r|^2 - r(0,0)^2 + NM (1 - r(0,0)/sqrt(NM))^2}
    + noise_var * E{sum|g|^2} against the directly simulated CSI MSE; both
    sides are estimated from the same trial set. A tuple of filters shares
    one trial set and gets a tuple of reports, each equal to a single call's.
    """
    single = isinstance(f, FilterKind)
    filters = (f,) if single else tuple(f)
    reports = []
    arms = tuple((c, g) for g in filters)
    for sums in _run_batches(arms, dims, scene, trials, seed, batch_size, threads, _identity_sums):
        lhs = scene.total_gain_var * sums["mse_relation_lhs"] / trials + scene.noise_var * sums["g_energy"] / trials
        rhs = sums["mse"] / trials
        mse_relation = _ratio(abs(lhs - rhs), rhs)
        residuals = (sums["islr_identity_max"], mse_relation, sums["dd_unitarity_max"], sums["parseval_max"])
        reports.append(IdentityReport(*residuals, trials, seed))
    return reports[0] if single else tuple(reports)
