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
bit-for-bit and independent of the thread count. Empirical DR is read off the
mean DD map: its power at the strongest target's cell over its far-region mean.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import FrameDims, Scene, check_int, complex_normal, steering_vectors, target_cell
from .constellation import ChiStats, ShapedConstellation, _cell_tables, _guide_search, chi_stats, moment_abs_pow
from .constellation import draw_symbols  # noqa: F401 -- stays importable: perfbench/tracing.py wraps it
from .filtering import FilterKind, dd_transform, point_chi, point_gain

DEFAULT_BATCH = 256
# one complex array of a block (8 frames at 64x32): the chain holds about ten such arrays at once, so
# the block's whole working set (~2.5 MiB) sits near L2, and its temporaries below glibc's mmap threshold
FRAME_BLOCK_BYTES = 1 << 18
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
    """Identity residuals: ``_max`` fields over the first ``min(trials, DEFAULT_BATCH)`` frames, the rest over all."""

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
    dr = _ratio(nm * gain_var * s.mean_chi**2, pedestal_power(s, gain_var, noise_var))  # no +1: the peak grows NM-fold
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
) -> np.ndarray:
    """Expected DD-profile power at hypothesis bins (k, p) for a single target,
    with the exact Dirichlet mainlobe shape."""
    s = chi_stats(c, f)
    kk, pp = target_bins
    n, m = dims.shape
    shape = dirichlet_kernel(np.asarray(k) - kk, n) ** 2 * dirichlet_kernel(np.asarray(p) - pp, m) ** 2
    peak = dims.size * gain_var * s.mean_chi**2
    return pedestal_power(s, gain_var, noise_var) + peak * shape


def crossover_snr_in(c: ShapedConstellation) -> float:
    """Input SNR (linear) where MF and RF dynamic ranges coincide."""
    fourth = moment_abs_pow(c, 4.0)
    if abs(fourth - 1.0) < 1e-12:
        raise ValueError("constant-modulus constellation has no MF/RF crossover (0/0)")
    return (moment_abs_pow(c, -2.0) - 1.0) / (fourth - 1.0)


def far_region_mask(dims: FrameDims, scene: Scene) -> np.ndarray:
    """Cells at least ``FAR_DISTANCE`` bins (circularly) from every target's cell on both axes: the pedestal."""
    n, m = dims.shape
    mask = np.ones((n, m), dtype=bool)
    kk = np.arange(n)[:, None]
    pp = np.arange(m)[None, :]
    for t in scene.targets:
        tk, tp = target_cell(dims, t)
        dk = np.minimum(np.abs(kk - tk), n - np.abs(kk - tk))
        dp = np.minimum(np.abs(pp - tp), m - np.abs(pp - tp))
        mask &= (dk >= FAR_DISTANCE) & (dp >= FAR_DISTANCE)
    if not mask.any():
        raise ValueError("far region is empty; frame too small for the pedestal estimate")
    return mask


def _batch_plan(trials: int, batch_size: int) -> list[tuple[int, int]]:
    return [(i, min(batch_size, trials - done)) for i, done in enumerate(range(0, trials, batch_size))]


def _energy(a: np.ndarray) -> np.ndarray:
    """Per-frame energy sum |a|^2 of complex frames on the last two axes, squared as float pairs (no hypot)."""
    return np.square(a.view(np.float64)).sum(axis=(1, 2))


def _join_frames(parts: dict, key: str, block: np.ndarray) -> None:
    """Take one block of ``key``'s per-frame values into ``parts``, in frame order. Maps fold into a
    running total frame by frame: numpy sums a stack's leading axis in sequence from zero, so this
    gives the stack's ``sum(axis=0)`` without holding the stack. Scalars wait for ``_batch_partial``."""
    if block.ndim == 1:
        parts.setdefault(key, []).append(block)
    else:
        if key not in parts:
            parts[key] = np.zeros(block.shape[1:], dtype=block.dtype)
        for frame in block:
            parts[key] += frame


def _batch_partial(key: str, value):
    """A folded map as it is; per-frame scalars joined and reduced once, as block sums would round apart."""
    if isinstance(value, np.ndarray):
        return value
    frames = np.concatenate(value)
    return float(frames.max() if key.endswith("_max") else frames.sum())


def _draw_batch(index: int, size: int, dims: FrameDims, scene: Scene, seed: int, block_bytes: int,
                noise_shape: tuple[int, ...]):
    """Batch ``index``'s target gains, and its draw as ``(frames, u, z)`` blocks of frames whose complex
    array of ``dims`` fits ``block_bytes``, with the bits of drawing the whole batch's uniforms
    ``(size, N, M)``, then each target's gains, then the noise ``(size, *noise_shape)`` CN(0, noise_var):
    every block has its noise, zeros at ``noise_var`` 0. The frame kernel draws noise per resource
    element, ``dims.shape``; detection one value per delay bin, ``(N,)``. The uniforms and gains do not
    depend on ``noise_shape``. The uniforms come from a second generator on the batch's seed, which the first
    skips (``random`` takes one 64-bit output per float64). The stream puts every real part of the
    noise before its first imaginary part: those are batch-sized.
    """
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    uniforms, rng = np.random.default_rng(seq), np.random.default_rng(seq)
    rng.bit_generator.advance(size * dims.size)
    alphas = [complex_normal(rng, t.gain_var, (size,)) for t in scene.targets]
    real = rng.standard_normal((size, *noise_shape))
    block = max(1, block_bytes // (16 * dims.size))

    def blocks():  # binds no block array, so none outlives its block in this frame
        for lo in range(0, size, block):
            frames = slice(lo, min(lo + block, size))
            count = frames.stop - lo
            yield frames, uniforms.random((count, *dims.shape)), complex_normal(
                rng, scene.noise_var, (count, *noise_shape), real[frames])

    return alphas, blocks()


def _simulate_batch(index: int, size: int, cuts: np.ndarray, guide: np.ndarray, dims: FrameDims, scene: Scene,
                    seed: int, chain) -> list[dict]:
    """The one batch runner: batch ``index`` of a built ``chain = (batch, block_bytes, noise_shape, step)``.

    It draws the batch by ``_draw_batch(..., block_bytes, noise_shape)``, maps each block's uniforms
    to cells by one ``_guide_search``, and calls ``step(alphas, cell, z)`` on the block's gains: the
    step returns, per arm, a dict of per-frame arrays, which ``_join_frames`` takes in frame order
    (maps fold into a running total; scalars are summed, or for ``_max`` keys maxed, once per batch),
    so no result depends on the block size. Every arm sees the same draw.
    """
    _, block_bytes, noise_shape, step = chain
    alphas, blocks = _draw_batch(index, size, dims, scene, seed, block_bytes, noise_shape)
    per_arm: dict[int, dict] = {}
    for frames, u, z in blocks:  # the cells go to the step unbound here, so the step may free them
        for arm, values in enumerate(step([alpha[frames] for alpha in alphas], _guide_search(cuts, guide, u), z)):
            parts = per_arm.setdefault(arm, {})
            for key, value in values.items():
                _join_frames(parts, key, value)
    return [{key: _batch_partial(key, value) for key, value in parts.items()} for parts in per_arm.values()]


def _frame_chain(dims: FrameDims, scene: Scene, reduce):
    """The chain ``X -> G -> Y = H o X + Z -> Hhat`` that ``reduce(h, g, hhat, sums, cell, chi_cells)`` reads per
    arm, in ``DEFAULT_BATCH``-frame batches and ``FRAME_BLOCK_BYTES`` blocks, with noise per resource element.

    The symbol-only terms come from counts: one ``bincount`` per block gives each frame's count of every
    cell, and one matmul per codebook, on its table of each filter's |g|^2, chi and chi^2 per cell, gives
    ``sums``, each arm's per-frame ``g_energy`` (sum|g|^2), ``chi_total`` (sum chi) and ``r_energy``
    (sum chi^2). The matmul is a stack of vector-matrix products, one per frame and filter, each of the
    same shape, so an arm's sums depend neither on the block size nor on the other filters. No chi is
    gathered here: a reducer that needs chi per entry takes ``chi_cells[cell]``. ``hhat`` is the arm's
    own array, which a reducer may overwrite."""

    def chain(books):
        steering = [np.outer(b, np.conj(cv)) for b, cv in (steering_vectors(dims, t) for t in scene.targets)]
        cells = books[0][0].size
        tables = [np.stack([np.stack((g_cells.real**2 + g_cells.imag**2, chi_cells, chi_cells**2), axis=1)
                            for g_cells, chi_cells in arms]) for _, arms in books]

        def step(alphas, cell, z):
            frames = len(cell)
            if steering:
                h = alphas[0][:, None, None] * steering[0]
                for alpha, s_q in zip(alphas[1:], steering[1:]):
                    h += alpha[:, None, None] * s_q
            else:
                h = np.zeros(cell.shape, dtype=np.complex128)
            offsets = np.arange(0, frames * cells, cells)[:, None]  # frame i counts its cells in bins i*cells + cell
            counts = np.bincount((cell.reshape(frames, -1) + offsets).ravel(), minlength=frames * cells)
            counts = counts.reshape(frames, 1, 1, cells).astype(np.float64)
            for (x_cells, arms), table in zip(books, tables):
                terms = (counts @ table)[:, :, 0]
                x = x_cells[cell]
                y = h * x  # h * <temporary> would run in place as x * h, whose SIMD rounding differs
                del x  # not needed by the reducers; freeing it keeps the block's peak memory down
                y += z
                for i, (g_cells, chi_cells) in enumerate(arms):
                    g = g_cells[cell]
                    sums = dict(zip(("g_energy", "chi_total", "r_energy"), terms[:, i].T))
                    yield reduce(h, g, y * g, sums, cell, chi_cells)

        return DEFAULT_BATCH, FRAME_BLOCK_BYTES, dims.shape, step

    return chain


def _run_batches(codebooks: Sequence[ShapedConstellation], filters: Sequence[FilterKind], dims: FrameDims,
                 scene: Scene, trials: int, seed: int, threads: int, chain) -> list[dict]:
    """One dict of partials per arm, codebooks x filters numbered codebook-major, over one shared trial set.

    The codebooks must share one alphabet (the same points up to the unit-power
    scale). ``_cell_tables`` cuts [0, 1) once per call at every codebook's CDF cuts and
    builds their guide table, and ``books`` holds, per codebook, its symbol per cell and, per
    filter, its g and chi per cell. ``chain(books)``, called once per call, declares the chain's
    batch plan and step, ``(batch, block_bytes, noise_shape, step)``, which ``_simulate_batch``
    runs. ``threads`` counts the calling thread: it runs batches beside
    ``min(threads, batches) - 1`` pool helpers, one batch per thread at a time; once a batch
    raises, no thread starts another. Batches add up in plan order, and ``_max`` keys keep the
    maximum.
    """
    threads = check_int("threads", threads, 1)
    trials = check_int("trials", trials, 1)
    seed = check_int("seed", seed, 0)
    for name, items in (("codebooks", codebooks), ("filters", filters)):
        if len(items) == 0:
            raise ValueError(f"{name} must not be empty")
    alphabet = codebooks[0].points / codebooks[0].points[0]
    for c in codebooks:
        if c.order != alphabet.size or not np.allclose(c.points / c.points[0], alphabet, rtol=1e-12, atol=0.0):
            raise ValueError("codebooks must share one alphabet (the same points up to scale)")
    cuts, guide, cell_index = _cell_tables(codebooks)
    books = []
    for c, table in zip(codebooks, cell_index):
        tables = [(point_gain(c.points, f)[table], point_chi(c.points, f)[table]) for f in filters]
        books.append((c.points[table], tables))
    declared = chain(books)
    plan = _batch_plan(trials, declared[0])
    simulate = _simulate_batch  # read once, so a patched kernel serves the whole call

    # the calling thread drains the plan beside the helpers; results land by plan index
    helpers = min(threads, len(plan)) - 1
    partials: list = [None] * len(plan)
    jobs, lock = enumerate(plan), threading.Lock()

    def drain():
        nonlocal jobs
        while True:
            with lock:
                i, job = next(jobs, (None, None))
            if job is None:
                return
            try:
                partials[i] = simulate(*job, cuts, guide, dims, scene, seed, declared)
            except BaseException:
                with lock:
                    jobs = iter(())  # a failed run reports now, not after the rest of the plan
                raise

    with ThreadPoolExecutor(max_workers=max(helpers, 1)) as pool:  # starts no thread until a submit
        futures = [pool.submit(drain) for _ in range(helpers)]
        drain()
    for future in futures:
        future.result()

    totals: list[dict] = [{} for _ in range(len(codebooks) * len(filters))]
    for parts in partials:  # fixed reduction order keeps outputs bit-identical
        for total, part in zip(totals, parts):
            for key, value in part.items():
                if key.endswith("_max"):  # np.maximum, unlike max, keeps a NaN whichever side it is on
                    total[key] = float(np.maximum(total.get(key, 0.0), value))
                else:
                    total[key] = total.get(key, 0.0) + value
    return totals


def _moment_sums(h, g, hhat, sums, cell, chi_cells) -> dict:
    """Per-frame moments of the chain, FFT-free: the CSI error energy, and from the counts' ``sums``, sum|g|^2,
    r(0,0)^2, the response energy (as sum chi^2, by Parseval) and sum chi. It writes the error into ``hhat``."""
    hhat -= h
    error = hhat.view(np.float64)
    np.square(error, out=error)
    return {"mse": error.sum(axis=(1, 2)), **sums, "r00_sq": (sums["chi_total"] / math.sqrt(h[0].size)) ** 2}


def _dd_power(h, g, hhat, sums, cell, chi_cells) -> dict:
    """Per-frame DD power map |DD(Hhat)|^2, which folds into the mean map's running total."""
    return {"power": np.abs(dd_transform(hhat)) ** 2}


def empirical_metrics(
    c: ShapedConstellation,
    f: FilterKind,
    dims: FrameDims,
    scene: Scene,
    trials: int,
    seed: int,
    threads: int = 1,
) -> MetricsReport:
    """Monte Carlo metrics over random symbols, target gains, and noise, from one frame-chain pass of
    ``_moment_sums`` and ``_dd_power``. DR is read off the mean DD map that ``empirical_dd_profile`` returns
    for the same arguments: its power at the strongest target's ``target_cell`` over its far-region mean."""
    if not scene.targets:
        raise ValueError("scene must contain at least one target")
    peak = target_cell(dims, max(scene.targets, key=lambda t: t.gain_var))
    far = far_region_mask(dims, scene)  # raises on an empty far region before any batch is drawn
    nm = dims.size
    # the map first: _moment_sums overwrites hhat with the error
    chain = _frame_chain(dims, scene, lambda *frame: {**_dd_power(*frame), **_moment_sums(*frame)})
    (sums,) = _run_batches((c,), (f,), dims, scene, trials, seed, threads, chain)
    trials, seed = int(trials), int(seed)  # the counts _run_batches checked, as the Python ints a report holds
    mse = sums["mse"] / trials
    mean_r00_sq = sums["r00_sq"] / trials
    mean_g_energy = sums["g_energy"] / trials
    snr_out = _ratio(scene.total_gain_var * mean_r00_sq, scene.noise_var * mean_g_energy / nm)
    islr = _ratio(sums["r_energy"] / trials - mean_r00_sq, mean_r00_sq)
    power = sums["power"] / trials
    dr = _ratio(float(power[peak]), float(power[far].mean()))
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
    threads: int = 1,
) -> np.ndarray:
    """Mean DD power map E|Lambda|^2 estimated over random frames."""
    (sums,) = _run_batches((c,), (f,), dims, scene, trials, seed, threads, _frame_chain(dims, scene, _dd_power))
    return sums["power"] / trials


def _identity_sums(h, g, hhat, sums, cell, chi_cells) -> dict:
    """Per-frame residuals of the exact identities, on chi gathered per entry: the chi FFT against sum chi and
    sum chi^2, and the error FFT against the error energy."""
    chi = chi_cells[cell]
    sqrt_nm = math.sqrt(chi[0].size)
    chi_sum = chi.sum(axis=(1, 2))
    error = hhat - h
    diff_energy = _energy(error)
    r_energy = _energy(dd_transform(chi))
    mean_chi = chi_sum / sqrt_nm / sqrt_nm
    ident_rhs = ((chi - mean_chi[:, None, None]) ** 2).sum(axis=(1, 2))
    return {
        "islr_identity_max": np.abs(r_energy - (chi_sum / sqrt_nm) ** 2 - ident_rhs) / r_energy,
        "parseval_max": np.abs(r_energy - (chi**2).sum(axis=(1, 2))) / r_energy,
        "dd_unitarity_max": np.abs(diff_energy - _energy(dd_transform(error))) / np.maximum(diff_energy, 1e-300),
    }


def identity_checks(
    c: ShapedConstellation,
    filters: Sequence[FilterKind],
    dims: FrameDims,
    scene: Scene,
    trials: int,
    seed: int,
    threads: int = 1,
) -> tuple[IdentityReport, ...]:
    """Residuals of the ISLR reformulation, Parseval, DD unitarity and the MSE relation, one report per filter.

    The MSE-relation residual compares the per-symbol law
    gain_var * E{sum (chi - 1)^2} + noise_var * E{sum|g|^2} against the directly
    simulated CSI MSE E||Hhat - H||^2. The chain reads chi from ``point_chi`` and
    forms Hhat with ``point_gain``, so the check ties the closed-form chi to the
    simulated gain. Both sides come from the ``_moment_sums`` of all ``trials``
    frames, with E{sum (chi - 1)^2} = E{sum|r|^2} - 2 E{sum chi} + NM and sum|r|^2
    taken as sum chi^2, so this statistical check needs no transform: its sum|g|^2,
    sum chi and sum chi^2 are read off the frames' cell counts, and only the CSI
    error is formed entry by entry. The other three hold frame by frame to
    rounding, so a fault shows on every frame: they run their FFTs on the first
    ``min(trials, DEFAULT_BATCH)`` frames only, by a second run whose batch 0
    draws the same frames, and ``_identity_sums``, the one reducer that gathers
    chi per entry, forms every term they compare. The filters share one trial
    set, and each report equals that of a call on that filter alone. A NaN
    residual stays NaN in the report, so the check on it fails.
    """
    moments = _run_batches((c,), filters, dims, scene, trials, seed, threads, _frame_chain(dims, scene, _moment_sums))
    trials, seed = int(trials), int(seed)  # the counts _run_batches checked, as the Python ints a report holds
    identities = _run_batches((c,), filters, dims, scene, min(trials, DEFAULT_BATCH), seed, threads,
                              _frame_chain(dims, scene, _identity_sums))
    reports = []
    for sums, maxima in zip(moments, identities):
        chi_error = (sums["r_energy"] - 2.0 * sums["chi_total"]) / trials + dims.size
        lhs = scene.total_gain_var * chi_error + scene.noise_var * sums["g_energy"] / trials
        rhs = sums["mse"] / trials
        mse_relation = _ratio(abs(lhs - rhs), rhs)
        residuals = (maxima["islr_identity_max"], mse_relation, maxima["dd_unitarity_max"], maxima["parseval_max"])
        reports.append(IdentityReport(*residuals, trials, seed))
    return tuple(reports)
