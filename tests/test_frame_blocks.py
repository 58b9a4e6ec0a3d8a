"""The frame kernel's block size: outputs must not depend on it, and must match pinned values."""

import hashlib
import json
import math

import numpy as np
import pytest

from ofdm_isac import detection, metrics
from ofdm_isac.channel import FrameDims, Scene, Target, complex_normal
from ofdm_isac.cli import main
from ofdm_isac.constellation import make_shaped, make_uniform
from ofdm_isac.detection import CfarConfig, cfar_thresholds, default_tradeoff_scene, detection_probability
from ofdm_isac.filtering import MF, RF, dd_transform, wiener
from ofdm_isac.metrics import empirical_dd_profile, empirical_metrics, identity_checks

DIMS = FrameDims(64, 32)  # 8 frames to a default frame-kernel block, 16 to a detection block
BATCH = 44  # six kernel blocks per batch by default, five of 8 frames and one of 4; detection blocks of 16, 16 and 12
TRIALS = 100  # three batches, the last a partial one
FRAME_BYTES = 16 * DIMS.size
SNR = 10.0**0.4
SCENE = Scene((Target(1.0, 0.0, 0.0), Target(0.2, 9.0, 3.0)), 1.0 / SNR)


def _outputs(threads=1):
    c = make_shaped("qam", 16, np.arange(16) % 5 + 1.0)
    filters = (MF, RF, wiener(SNR))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "DEFAULT_BATCH", BATCH)  # every chain's batches
        return (
            identity_checks(c, filters, DIMS, SCENE, TRIALS, 7, threads=threads),
            empirical_metrics(c, wiener(SNR), DIMS, SCENE, TRIALS, 8, threads=threads),
            empirical_dd_profile(c, MF, DIMS, SCENE, TRIALS, 9, threads=threads),
            detection_probability(
                DIMS, default_tradeoff_scene(1.0 / SNR, weak_rel_power_db=-12.0),
                (c,), wiener(SNR), CfarConfig(pfa=1e-2), TRIALS, 10, threads=threads,
            ),
        )


def _assert_same(got, want):
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert np.array_equal(got[2], want[2])
    assert got[3] == want[3]


@pytest.fixture(scope="module")
def default_outputs():
    return _outputs()


@pytest.mark.parametrize(
    "block_bytes",
    [FRAME_BYTES, 3 * FRAME_BYTES, BATCH * FRAME_BYTES, 1],
    ids=["one-frame", "three-frames", "whole-batch", "below-one-frame"],
)
def test_block_size_invariance(monkeypatch, default_outputs, block_bytes):
    monkeypatch.setattr(metrics, "FRAME_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(detection, "DETECTION_BLOCK_BYTES", block_bytes)
    _assert_same(_outputs(), default_outputs)


def test_block_size_invariance_threads(monkeypatch, default_outputs):
    monkeypatch.setattr(metrics, "FRAME_BLOCK_BYTES", FRAME_BYTES)
    monkeypatch.setattr(detection, "DETECTION_BLOCK_BYTES", FRAME_BYTES)
    _assert_same(_outputs(threads=2), default_outputs)


def _spied(chain, sizes):
    """``chain`` with a step that records the frame count of each block it runs."""

    def spied(books):
        *plan, step = chain(books)
        return (*plan, lambda alphas, cell, z: sizes.append(len(cell)) or step(alphas, cell, z))

    return spied


def test_kernel_calls_reducer_once_per_block(monkeypatch):
    """The one batch runner calls each chain's step once per block: the frame chain's reducer on blocks of
    5 frames of 12-frame batches, and detection's step on its own blocks of 16 frames of a 44-frame batch."""
    monkeypatch.setattr(metrics, "FRAME_BLOCK_BYTES", 5 * FRAME_BYTES)
    monkeypatch.setattr(metrics, "DEFAULT_BATCH", 12)
    c = make_uniform("qam", 16)
    sizes = []

    def reduce(h, g, hhat, sums, cell, chi_cells):
        sizes.append(len(hhat))
        return {"n": np.ones(len(hhat)), "index": np.arange(len(hhat), dtype=float)}

    (sums,) = metrics._run_batches((c,), (MF,), DIMS, SCENE, 23, 1, 1, metrics._frame_chain(DIMS, SCENE, reduce))
    assert sizes == [5, 5, 2, 5, 5, 1]
    assert sums.keys() == {"n", "index"}
    assert np.array_equal(sums["n"], np.ones(23))
    assert np.array_equal(sums["index"], np.concatenate([np.arange(size, dtype=float) for size in sizes]))

    monkeypatch.setattr(metrics, "DEFAULT_BATCH", BATCH)
    run_batches, steps = metrics._run_batches, []
    monkeypatch.setattr(detection, "_run_batches", lambda *args: run_batches(*args[:-1], _spied(args[-1], steps)))
    scene = default_tradeoff_scene(1.0 / SNR, weak_rel_power_db=-12.0)
    (pd,) = detection_probability(DIMS, scene, (c,), MF, CfarConfig(pfa=1e-2), BATCH, 10)
    assert steps == [16, 16, 12]
    assert 0.0 < pd < 1.0


def test_kernel_searches_symbols_once_per_block(monkeypatch):
    """Two codebooks and three filters, six arms: one symbol search per block serves them all."""
    monkeypatch.setattr(metrics, "FRAME_BLOCK_BYTES", 5 * FRAME_BYTES)
    monkeypatch.setattr(metrics, "DEFAULT_BATCH", 12)
    guide_search, searched, reduced = metrics._guide_search, [], []
    monkeypatch.setattr(metrics, "_guide_search",
                        lambda cuts, guide, u: searched.append(len(u)) or guide_search(cuts, guide, u))
    books = (make_uniform("qam", 16), make_shaped("qam", 16, np.arange(16) % 5 + 1.0))

    def reduce(h, g, hhat, sums, cell, chi_cells):
        reduced.append(len(hhat))
        return {"n": np.ones(len(hhat))}

    chain = metrics._frame_chain(DIMS, SCENE, reduce)
    sums = metrics._run_batches(books, (MF, RF, wiener(SNR)), DIMS, SCENE, 23, 1, 1, chain)
    assert searched == [5, 5, 2, 5, 5, 1]
    assert reduced == [size for size in searched for _ in range(6)]
    assert len(sums) == 6
    assert all(arm.keys() == {"n"} and np.array_equal(arm["n"], np.ones(23)) for arm in sums)


def _whole_batch_draw(index, size, scene, seed):
    """The batch's draw in one piece: uniforms, then each target's gains, then the noise."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    shape = (size, *DIMS.shape)
    u = rng.random(shape)
    alphas = [complex_normal(rng, t.gain_var, (size,)) for t in scene.targets]
    return u, alphas, complex_normal(rng, scene.noise_var, shape)


@pytest.mark.parametrize("batch", [(0, BATCH), (2, TRIALS % BATCH)], ids=["full-batch", "partial-batch"])
@pytest.mark.parametrize("block", [1, 7, 49])  # 49: one block holds the whole batch
@pytest.mark.parametrize("n_targets", [1, 2])
@pytest.mark.parametrize("noise_var", [0.0, 1.0 / SNR])
def test_streamed_draw_equals_whole_batch_draw(batch, block, n_targets, noise_var):
    index, size = batch
    scene = Scene(SCENE.targets[:n_targets], noise_var)
    u, alphas, z = _whole_batch_draw(index, size, scene, 5)
    got_alphas, blocks = metrics._draw_batch(index, size, DIMS, scene, 5, block * FRAME_BYTES, DIMS.shape)
    assert [a.tobytes() for a in got_alphas] == [a.tobytes() for a in alphas]
    frames, u_blocks, z_blocks = zip(*blocks)
    assert [(f.start, f.stop) for f in frames] == [(lo, min(lo + block, size)) for lo in range(0, size, block)]
    assert np.concatenate(u_blocks).tobytes() == u.tobytes()
    assert np.concatenate(z_blocks).tobytes() == z.tobytes()  # zeros at noise_var 0


@pytest.mark.parametrize("batch", [(0, BATCH), (2, TRIALS % BATCH)], ids=["full-batch", "partial-batch"])
@pytest.mark.parametrize("block", [1, 7, 49])
def test_delay_bin_noise_keeps_uniforms_and_gains(batch, block):
    """Detection's noise shape (N,) draws the uniforms and gains of the frame kernel's (N, M) bit for bit,
    in the same blocks of frames, then one CN(0, noise_var) value per frame and delay bin."""
    index, size = batch
    n = DIMS.n_subcarriers
    kernel_alphas, kernel_blocks = metrics._draw_batch(index, size, DIMS, SCENE, 5, block * FRAME_BYTES, DIMS.shape)
    alphas, blocks = metrics._draw_batch(index, size, DIMS, SCENE, 5, block * FRAME_BYTES, (n,))
    assert [a.tobytes() for a in alphas] == [a.tobytes() for a in kernel_alphas]
    kernel_frames, kernel_u, _ = zip(*kernel_blocks)
    frames, u, xi = zip(*blocks)
    assert frames == kernel_frames
    assert np.concatenate(u).tobytes() == np.concatenate(kernel_u).tobytes()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(index,)))
    rng.bit_generator.advance(size * DIMS.size)
    for t in SCENE.targets:
        complex_normal(rng, t.gain_var, (size,))
    assert np.concatenate(xi).tobytes() == complex_normal(rng, SCENE.noise_var, (size, n)).tobytes()


@pytest.mark.parametrize("shape", [(256, 64, 32), (256, 16, 16), (7, 64, 32), (256, 3), (256,)])
def test_joined_blocks_equal_stacked_sum(shape):
    """Maps fold frame by frame into the stack's sum over frames; per-frame scalars join in frame order."""
    rng = np.random.default_rng(sum(shape))
    stack = np.abs(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) ** 2
    blocks = np.array_split(stack, [1, 5, 37])
    maps, frames = {}, {}
    for block in blocks:
        metrics._join_frames(maps, frames, "power", block)
    if stack.ndim == 1:
        assert not maps
        assert np.concatenate(frames["power"]).tobytes() == stack.tobytes()
    else:
        assert not frames
        assert maps["power"].tobytes() == stack.sum(axis=0).tobytes()


def test_dd_transform_matches_out_of_place_form():
    """The in-place FFT and scaling give the bits of the out-of-place expression."""
    rng = np.random.default_rng(4)
    for shape in ((16, 8), (3, 64, 32), (5, 16, 16)):
        n, m = shape[-2:]
        for a in (rng.standard_normal(shape) + 1j * rng.standard_normal(shape), rng.standard_normal(shape)):
            want = np.sqrt(n / m) * np.fft.fft(np.fft.ifft(a.astype(np.complex128), axis=-2), axis=-1)
            assert np.array_equal(dd_transform(a), want)


def _within_binomial_sigmas(new, old, trials):
    """|new - old| <= 4 binomial sigmas of one estimate at ``old`` over ``trials`` trials."""
    return abs(new - old) <= 4 * math.sqrt(old * (1.0 - old) / trials)


# Recorded when detection moved onto the frame kernel's 256-frame batches, drawing one noise value per
# delay bin (xi, the column's CN(0, noise_var sum_m |g|^2) noise term): 64-QAM, WF at 4 dB, 64x32, 1024 trials.
PINNED_PD = {5: 0.091796875, 2026: 0.0703125}
# The same, from the commit before: its noise term summed N M draws per frame. The old and new
# streams estimate one P_d, so the pins may move by Monte Carlo error only.
PINNED_PD_NM_NOISE = {5: 0.0712890625, 2026: 0.0751953125}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("seed", sorted(PINNED_PD))
def test_detection_probability_pinned(seed, threads):
    (pd,) = detection_probability(
        DIMS, default_tradeoff_scene(1.0 / SNR), (make_uniform("qam", 64),), wiener(SNR),
        CfarConfig(), 1024, seed, threads=threads,
    )
    assert pd == PINNED_PD[seed]
    assert _within_binomial_sigmas(pd, PINNED_PD_NM_NOISE[seed], 1024)


# Recorded with the per-delay-bin noise draw on 256-frame batches: four 16-QAM codebooks (two with
# zero-probability points), WF at 4 dB, targets at fractional Doppler bins, the weak one read on
# Doppler column 6, 500 trials.
PINNED_PD_COLUMN = (0.576, 0.574, 0.556, 0.578)
# The same, from the commit whose detection formed hhat and projected it onto w_p, with N M noise draws.
PINNED_PD_COLUMN_NM_NOISE = (0.584, 0.594, 0.576, 0.588)


@pytest.mark.parametrize("threads", [1, 2])
def test_detection_probability_pinned_on_a_nonzero_column(threads):
    points = make_uniform("qam", 16).points
    holed = np.arange(16) % 5 + 1.0
    holed[3] = 0.0
    falling = np.arange(16, 0, -1.0)
    falling[[0, 9]] = 0.0
    books = [make_uniform("qam", 16)] + [
        make_shaped("qam", 16, w) for w in (holed, np.exp(-0.6 * np.abs(points) ** 2), falling)
    ]
    scene = Scene((Target(1.0, 0.0, 1.4), Target(10**-2.1, 7.0, 5.6)), 1.0 / SNR)
    pds = detection_probability(DIMS, scene, books, wiener(SNR), CfarConfig(2, 8, 1e-2), 500, 31, threads=threads)
    assert pds == PINNED_PD_COLUMN
    assert all(_within_binomial_sigmas(new, old, 500) for new, old in zip(pds, PINNED_PD_COLUMN_NM_NOISE))


# sha256 of verify_report.json for a 16x16, 1024-trial verify at seed 3, from
# the same commit under numpy 2.4 on x86-64. The report holds rounding-level
# residuals, so another numpy build can change these bytes without a bug.
PINNED_VERIFY_SHA256 = "1fd025fecbcd40c2359ef4498eb8d38f9f92e0e67f3cb56ad9c69fa836e2f9f6"


@pytest.mark.skipif(not np.__version__.startswith("2.4."), reason="digest pinned under numpy 2.4")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_reduced_verify_report_pinned(tmp_path, threads):
    cfg = tmp_path / "v.json"
    cfg.write_text(json.dumps({"dims": {"N": 16, "M": 16}, "trials": 1024}))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path), "--seed", "3", "--threads", threads]) == 0
    digest = hashlib.sha256((tmp_path / "verify_report.json").read_bytes()).hexdigest()
    assert digest == PINNED_VERIFY_SHA256


# Noise-free results, recorded where a scene without noise drew no noise at all: drawing it as zeros
# must leave every bit. Numpy 2.4 on x86-64, as the verify digest above; the detection pin on 256-frame batches.
PINNED_NOISE_FREE_PD = (0.94, 0.9333333333333333)
PINNED_NOISE_FREE_PROFILE_SHA256 = "66872bda1dea1c568c1db144e64e9d982b6be92e19e99a705fcfa9b5937a85ec"
PINNED_NOISE_FREE_RESIDUALS = [  # (islr_identity, mse_relation, dd_unitarity, parseval) for MF, RF and WF
    (8.223874256482646e-16, 0.03329720143287376, 3.9853342615405698e-16, 6.62819716194123e-16),
    (0.0, 1.0, 2.3583116782039247e-16, 0.0),
    (5.800247844492415e-16, 0.03147670652692551, 4.380109856976171e-16, 5.752598372662334e-16),
]
QUIET_DIMS = FrameDims(16, 16)
QUIET_TARGET = Target(1.0, 3.4, 5.7)  # off the grid on both axes


@pytest.mark.parametrize("threads", [1, 2])
def test_noise_free_detection_pinned(threads):
    scene = Scene((Target(1, 0, 1), Target(10**-1.3, 6, 3)), 0.0)
    books = (make_uniform("qam", 16), make_shaped("qam", 16, np.linspace(1, 2, 16)))
    pds = detection_probability(FrameDims(64, 8), scene, books, MF, CfarConfig(2, 8, 1e-2), 300, 5, threads)
    assert pds == PINNED_NOISE_FREE_PD


@pytest.mark.skipif(not np.__version__.startswith("2.4."), reason="digest pinned under numpy 2.4")
@pytest.mark.parametrize("threads", [1, 2])
def test_noise_free_wf_profile_pinned(threads):
    profile = empirical_dd_profile(make_uniform("qam", 16), wiener(100.0), QUIET_DIMS, Scene((QUIET_TARGET,), 0.0),
                                   300, 4, threads)
    assert hashlib.sha256(profile.tobytes()).hexdigest() == PINNED_NOISE_FREE_PROFILE_SHA256


@pytest.mark.skipif(not np.__version__.startswith("2.4."), reason="residuals pinned under numpy 2.4")
@pytest.mark.parametrize("threads", [1, 2])
def test_noise_free_identity_residuals_pinned(threads):
    scene = Scene((QUIET_TARGET, Target(0.5, 9.0, 2.0)), 0.0)
    reports = identity_checks(make_uniform("qam", 16), (MF, RF, wiener(100.0)), QUIET_DIMS, scene, 300, 6, threads)
    residuals = [(r.islr_identity_max_rel, r.mse_relation_rel, r.dd_unitarity_max_rel, r.parseval_max_rel)
                 for r in reports]
    assert residuals == PINNED_NOISE_FREE_RESIDUALS


def _full_map_hits(cfar, weak_cell):
    """The frame kernel's reducer of CA-CFAR on the full DD map's column: a hit when the weak cell passes."""
    k, p = weak_cell

    def reduce(h, g, hhat, sums, cell, chi_cells):
        profiles = (np.abs(dd_transform(hhat)) ** 2)[:, :, p]
        return {"hits": profiles[:, k] > cfar_thresholds(profiles, cfar)[:, k]}

    return reduce


@pytest.mark.parametrize("doppler_bin", [0.0, 3.0, 29.0])
def test_detection_column_matches_full_dd_map(doppler_bin):
    """Without noise, detection reads one DD-map column: at one seed its P_d equals that of CA-CFAR on the
    full map's column, trial by trial, as both chains draw their trials in the same batches."""
    scene = Scene((Target(1.0, 0.0, 1.0), Target(10**-1.3, 6.0, doppler_bin)), 0.0)
    c = make_shaped("qam", 16, np.arange(16) % 5 + 1.0)
    cfar = CfarConfig(2, 8, 1e-3)
    full_map = _full_map_hits(cfar, (6, int(doppler_bin)))
    (sums,) = metrics._run_batches((c,), (MF,), DIMS, scene, 400, 21, 1, metrics._frame_chain(DIMS, scene, full_map))
    (pd,) = detection_probability(DIMS, scene, (c,), MF, cfar, 400, 21)
    assert 0.0 < pd < 1.0
    assert sums["hits"].shape == (400,)
    assert pd == sums["hits"].mean()


LAW_TRIALS = 2000
# (filter, noise_var, weak target's power in dB): WF and RF at 4 dB, and MF at 20 dB, where |g|^2 = |x|^2
# carries the shaped codebook's amplitude spread into the noise term. Each power puts P_d between 0.45 and
# 0.65 (a 2,000-trial measurement), where a wrong noise law moves P_d most.
LAW_CASES = {"wf-4dB": (wiener(SNR), 1.0 / SNR, -25.0), "mf-20dB": (MF, 0.01, -25.0), "rf-4dB": (RF, 1.0 / SNR, -20.0)}


@pytest.mark.parametrize("doppler_bin", [0, 29])
@pytest.mark.parametrize("case", sorted(LAW_CASES))
def test_detection_law_matches_full_dd_map(case, doppler_bin):
    """With noise, detection's xi sqrt(sum_m |g|^2) per delay bin has the law of the full map's
    sum_m z g w_p: the P_d of the two, on independent seeds, agree within 4 binomial sigmas of their
    difference. The weak target sits at delay bin 24, outside its reference window (bins 14-34)."""
    f, noise_var, weak_db = LAW_CASES[case]
    scene = Scene((Target(1.0, 0.0, 1.0), Target(10 ** (weak_db / 10), 24.0, float(doppler_bin))), noise_var)
    points = make_uniform("qam", 64).points
    c = make_shaped("qam", 64, np.exp(-0.7 * np.abs(points) ** 2))
    cfar = CfarConfig(2, 8, 1e-3)
    full_map = _full_map_hits(cfar, (24, doppler_bin))
    (sums,) = metrics._run_batches((c,), (f,), DIMS, scene, LAW_TRIALS, 41, 1,
                                   metrics._frame_chain(DIMS, scene, full_map))
    full = sums["hits"].mean()
    (pd,) = detection_probability(DIMS, scene, (c,), f, cfar, LAW_TRIALS, 42)
    pooled = (full + pd) / 2
    sigma = math.sqrt(pooled * (1.0 - pooled) * 2 / LAW_TRIALS)
    assert 0.1 < pooled < 0.9
    assert abs(pd - full) <= 4 * sigma, f"P_d {pd} against the full map's {full}, sigma {sigma:.4f}"
