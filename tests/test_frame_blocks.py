"""The frame kernel's block size: outputs must not depend on it, and must match pinned values."""

import hashlib
import json

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
        mp.setattr(metrics, "DEFAULT_BATCH", BATCH)
        mp.setattr(detection, "DETECTION_BATCH", BATCH)
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


def test_kernel_calls_reducer_once_per_block(monkeypatch):
    monkeypatch.setattr(metrics, "FRAME_BLOCK_BYTES", 5 * FRAME_BYTES)
    c = make_uniform("qam", 16)
    sizes = []

    def reduce(h, g, chi, hhat):
        sizes.append(len(hhat))
        return {"n": np.ones(len(hhat)), "n_max": np.arange(len(hhat), dtype=float)}

    (sums,) = metrics._run_batches((c,), (MF,), DIMS, SCENE, 23, 1, 12, 1, reduce)
    assert sizes == [5, 5, 2, 5, 5, 1]
    assert sums == {"n": 23.0, "n_max": 4.0}


def test_kernel_searches_symbols_once_per_block(monkeypatch):
    """Two codebooks and three filters, six arms: one symbol search per block serves them all."""
    monkeypatch.setattr(metrics, "FRAME_BLOCK_BYTES", 5 * FRAME_BYTES)
    guide_search, searched, reduced = metrics._guide_search, [], []
    monkeypatch.setattr(metrics, "_guide_search", lambda cuts, u: searched.append(len(u)) or guide_search(cuts, u))
    books = (make_uniform("qam", 16), make_shaped("qam", 16, np.arange(16) % 5 + 1.0))
    sums = metrics._run_batches(books, (MF, RF, wiener(SNR)), DIMS, SCENE, 23, 1, 12, 1,
                                lambda h, g, chi, hhat: reduced.append(len(hhat)) or {"n": np.ones(len(hhat))})
    assert searched == [5, 5, 2, 5, 5, 1]
    assert reduced == [size for size in searched for _ in range(6)]
    assert sums == [{"n": 23.0}] * 6


def _whole_batch_draw(index, size, scene, seed):
    """The batch's draw in one piece: uniforms, then each target's gains, then the noise."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    shape = (size, *DIMS.shape)
    u = rng.random(shape)
    alphas = [complex_normal(rng, t.gain_var, (size,)) for t in scene.targets]
    return u, alphas, complex_normal(rng, scene.noise_var, shape) if scene.noise_var > 0 else None


@pytest.mark.parametrize("batch", [(0, BATCH), (2, TRIALS % BATCH)], ids=["full-batch", "partial-batch"])
@pytest.mark.parametrize("block", [1, 7, 49])  # 49: one block holds the whole batch
@pytest.mark.parametrize("n_targets", [1, 2])
@pytest.mark.parametrize("noise_var", [0.0, 1.0 / SNR])
def test_streamed_draw_equals_whole_batch_draw(batch, block, n_targets, noise_var):
    index, size = batch
    scene = Scene(SCENE.targets[:n_targets], noise_var)
    u, alphas, z = _whole_batch_draw(index, size, scene, 5)
    got_alphas, blocks = metrics._draw_batch(index, size, DIMS, scene, 5, block * FRAME_BYTES)
    assert [a.tobytes() for a in got_alphas] == [a.tobytes() for a in alphas]
    frames, u_blocks, z_blocks = zip(*blocks)
    assert [(f.start, f.stop) for f in frames] == [(lo, min(lo + block, size)) for lo in range(0, size, block)]
    assert np.concatenate(u_blocks).tobytes() == u.tobytes()
    if z is None:
        assert set(z_blocks) == {None}
    else:
        assert np.concatenate(z_blocks).tobytes() == z.tobytes()


@pytest.mark.parametrize("shape", [(256, 64, 32), (256, 16, 16), (7, 64, 32), (256, 3), (256,)])
def test_joined_blocks_equal_stacked_sum(shape):
    """Maps fold frame by frame and scalars join once per batch; both give the stack's sum over frames."""
    rng = np.random.default_rng(sum(shape))
    stack = np.abs(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) ** 2
    blocks = np.array_split(stack, [1, 5, 37])
    parts = {}
    for block in blocks:
        metrics._join_frames(parts, "power", block)
    got = metrics._batch_partial("power", parts["power"])
    assert np.asarray(got).tobytes() == np.concatenate(blocks).sum(axis=0).tobytes()


def test_dd_transform_matches_out_of_place_form():
    """The in-place FFT and scaling give the bits of the out-of-place expression."""
    rng = np.random.default_rng(4)
    for shape in ((16, 8), (3, 64, 32), (5, 16, 16)):
        n, m = shape[-2:]
        for a in (rng.standard_normal(shape) + 1j * rng.standard_normal(shape), rng.standard_normal(shape)):
            want = np.sqrt(n / m) * np.fft.fft(np.fft.ifft(a.astype(np.complex128), axis=-2), axis=-1)
            assert np.array_equal(dd_transform(a), want)


# Taken from the commit before the kernel ran over blocks (its detection had a
# chain and a thread pool of its own): 64-QAM, WF at 4 dB, 64x32, 1024 trials.
PINNED_PD = {5: 0.0712890625, 2026: 0.0751953125}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("seed", sorted(PINNED_PD))
def test_detection_probability_pinned(seed, threads):
    (pd,) = detection_probability(
        DIMS, default_tradeoff_scene(1.0 / SNR), (make_uniform("qam", 64),), wiener(SNR),
        CfarConfig(), 1024, seed, threads=threads,
    )
    assert pd == PINNED_PD[seed]


# Taken from the commit whose detection formed hhat and projected it onto w_p:
# four 16-QAM codebooks (two with zero-probability points), WF at 4 dB, targets
# at fractional Doppler bins, the weak one read on Doppler column 6, 500 trials.
PINNED_PD_COLUMN = (0.584, 0.594, 0.576, 0.588)


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


# sha256 of verify_report.json for a 16x16, 1024-trial verify at seed 3, from
# the same commit under numpy 2.4 on x86-64. The report holds rounding-level
# residuals, so another numpy build can change these bytes without a bug.
PINNED_VERIFY_SHA256 = "7c75218b76bdab266287ca5160129204c07a7765ac00c1d4327798ec7af6ea2f"


@pytest.mark.skipif(not np.__version__.startswith("2.4."), reason="digest pinned under numpy 2.4")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_reduced_verify_report_pinned(tmp_path, threads):
    cfg = tmp_path / "v.json"
    cfg.write_text(json.dumps({"dims": {"N": 16, "M": 16}, "trials": 1024}))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path), "--seed", "3", "--threads", threads]) == 0
    digest = hashlib.sha256((tmp_path / "verify_report.json").read_bytes()).hexdigest()
    assert digest == PINNED_VERIFY_SHA256


@pytest.mark.parametrize("doppler_bin", [0.0, 3.0, 29.0])
def test_detection_column_matches_full_dd_map(doppler_bin):
    """Detection reads one DD-map column; its P_d equals that of CA-CFAR on the full map's column."""
    scene = Scene((Target(1.0, 0.0, 1.0), Target(10**-1.3, 6.0, doppler_bin)), 1.0 / SNR)
    c = make_shaped("qam", 16, np.arange(16) % 5 + 1.0)
    cfar = CfarConfig(2, 8, 1e-3)
    p = int(doppler_bin)

    def full_map(h, g, chi, hhat):
        profiles = (np.abs(dd_transform(hhat)) ** 2)[:, :, p]
        thresholds = cfar_thresholds(profiles, cfar)
        return {"hits": profiles[:, 6] > thresholds[:, 6]}

    (sums,) = metrics._run_batches((c,), (MF,), DIMS, scene, 400, 21, 128, 1, full_map)
    (pd,) = detection_probability(DIMS, scene, (c,), MF, cfar, 400, 21)
    assert 0.0 < pd < 1.0
    assert pd == sums["hits"] / 400
