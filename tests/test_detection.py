"""CA-CFAR behavior and Monte Carlo detection probability."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ofdm_isac
from ofdm_isac import metrics
from ofdm_isac.channel import FrameDims, Scene, Target
from ofdm_isac.constellation import make_uniform
from ofdm_isac.detection import (
    CfarConfig,
    cfar_threshold_factor,
    cfar_thresholds,
    default_tradeoff_scene,
    detection_cell,
    detection_probability,
)
from ofdm_isac.filtering import MF, RF, wiener

DIMS = FrameDims(64, 32)
SNR = 10.0**0.4


def detect(profile, cfg):
    """The detector's rule: the cells whose power exceeds their CA-CFAR threshold, and the thresholds."""
    thresholds = cfar_thresholds(profile, cfg)
    return np.flatnonzero(profile > thresholds), thresholds


class TestCaCfar:
    def test_all_zero_profile(self):
        det, thr = detect(np.zeros(128), CfarConfig(2, 8, 1e-3))
        assert det.size == 0

    def test_single_spike_detected(self):
        rng = np.random.default_rng(0)
        profile = rng.exponential(1.0, 256)
        profile[100] = 1e6 * profile.mean()
        det, _ = detect(profile, CfarConfig(2, 8, 1e-3))
        assert 100 in det

    def test_false_alarm_calibration(self):
        rng = np.random.default_rng(1)
        profile = rng.exponential(1.0, 1_000_000)
        pfa = 1e-2
        det, _ = detect(profile, CfarConfig(2, 16, pfa))
        rate = det.size / profile.size
        assert pfa / 1.5 < rate < pfa * 1.5

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        profile = rng.exponential(1.0, 512)
        cfg = CfarConfig(3, 10, 1e-2)
        det1, thr1 = detect(profile, cfg)
        det2, thr2 = detect(7.5 * profile, cfg)
        np.testing.assert_allclose(thr2, 7.5 * thr1, rtol=1e-12)
        np.testing.assert_array_equal(det1, det2)

    def test_lower_pfa_never_adds_detections(self):
        rng = np.random.default_rng(3)
        profile = rng.exponential(1.0, 2048)
        profile[[50, 700]] = 40.0
        loose, _ = detect(profile, CfarConfig(2, 8, 1e-2))
        tight, _ = detect(profile, CfarConfig(2, 8, 1e-4))
        assert set(tight).issubset(set(loose))

    def test_profile_too_short(self):
        with pytest.raises(ValueError, match="must exceed"):
            cfar_thresholds(np.ones(36), CfarConfig(2, 16, 1e-3))

    @pytest.mark.parametrize("guard, train", [(2, 16), (0, 1), (3, 5)])
    def test_thresholds_match_window_filters(self, guard, train):
        """The circular training-cell sums agree with scipy's running-mean window filters, and with
        an exact per-cell sum to a few ulps beside a strong peak, where a running sum keeps the
        peak's rounding error in every cell it has passed."""
        from scipy.ndimage import uniform_filter1d

        rng = np.random.default_rng(guard + train)
        profiles = rng.exponential(1.0, (3, 5, 64))
        profiles[..., 7] *= 1e6
        cfg = CfarConfig(guard, train, 1e-3)
        span = guard + train
        alpha = cfar_threshold_factor(2 * train, cfg.pfa)
        got = cfar_thresholds(profiles, cfg)

        full = uniform_filter1d(profiles, 2 * span + 1, axis=-1, mode="wrap") * (2 * span + 1)
        cut = uniform_filter1d(profiles, 2 * guard + 1, axis=-1, mode="wrap") * (2 * guard + 1)
        np.testing.assert_allclose(got, alpha * (full - cut) / (2 * train), rtol=1e-8)
        offsets = [d for d in range(-span, span + 1) if abs(d) > guard]
        exact = [[math.fsum(row[(i + d) % 64] for d in offsets) for i in range(64)] for row in profiles.reshape(-1, 64)]
        np.testing.assert_allclose(got, alpha * np.reshape(exact, got.shape) / (2 * train), rtol=2e-14)
        assert np.array_equal(cfar_thresholds(profiles[1, 2], cfg), got[1, 2])

    @pytest.mark.parametrize("guard, train", [(2, 16), (0, 1), (3, 5), (0, 31)])
    def test_window_thresholds_equal_full_profile(self, guard, train):
        """Detection's CA-CFAR on the 2 span + 1 cells around one cell gives that cell's threshold of the
        whole profile bit for bit, at every cell, beside strong peaks and across gains."""
        rng = np.random.default_rng(10 * guard + train)
        profiles = rng.exponential(1.0, (3, 5, 64)) * np.logspace(0, 6, 3)[:, None, None]
        profiles[..., [7, 40]] *= 1e6
        cfg = CfarConfig(guard, train, 1e-3)
        span = guard + train
        full = cfar_thresholds(profiles, cfg)
        for cell in range(64):
            window = (cell - span + np.arange(2 * span + 1)) % 64
            assert cfar_thresholds(profiles[..., window], cfg)[..., span].tobytes() == full[..., cell].tobytes()

    def test_cli_import_leaves_ndimage_unloaded(self):
        """The thresholds need no scipy.ndimage, whose import cost every command's set-up."""
        src = str(Path(ofdm_isac.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = "import sys, ofdm_isac.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.ndimage')))"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr

    def test_threshold_factor_formula(self):
        t = 32
        pfa = 1e-3
        alpha = cfar_threshold_factor(t, pfa)
        assert (1.0 + alpha / t) ** (-t) == pytest.approx(pfa, rel=1e-12)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            CfarConfig(-1, 8, 1e-3)
        with pytest.raises(ValueError):
            CfarConfig(2, 0, 1e-3)
        with pytest.raises(ValueError):
            CfarConfig(2, 8, 1.5)


class TestDetectionProbability:
    def test_absent_weak_target_false_alarm_rate(self):
        # QPSK + RF: the off-peak cells are exactly CN noise, so the weak bin
        # triggers at the configured false-alarm rate
        pfa = 0.05
        scene = Scene((Target(1.0, 0.0, 0.0), Target(0.0, 20.0, 0.0)), 1.0 / SNR)
        trials = 3000
        (pd,) = detection_probability(
            DIMS, scene, (make_uniform("psk", 4),), RF, CfarConfig(2, 8, pfa), trials, seed=4
        )
        sigma = np.sqrt(pfa * (1 - pfa) / trials)
        assert abs(pd - pfa) < 3 * sigma

    @pytest.mark.parametrize("doppler_bin, f, snr_db, off_column", [
        (5.0, MF, 20.0, True), (5.0, RF, 4.0, True), (5.0, wiener(SNR), 4.0, True), (0.0, MF, 20.0, False),
    ], ids=["off-column-mf-20db", "off-column-rf-4db", "off-column-wf-4db", "on-column-mf-20db"])
    def test_false_alarms_off_the_strong_targets_column(self, doppler_bin, f, snr_db, off_column):
        """With the weak target at 1e-30 power, hits are false alarms at its cell. Off the strong target's
        Doppler column they come at the nominal rate. On it, where signaling makes the pedestal (MF at 20 dB),
        chi is real, so the pedestal mirrors about the strong bin: cell 24's mirror, bin 40, lies in its
        training window and raises the threshold, and the rate falls below nominal."""
        pfa, trials = 1e-2, 10_000
        scene = Scene((Target(1.0, 0.0, 0.0), Target(1e-30, 24.0, doppler_bin)), 10.0 ** (-snr_db / 10.0))
        (pd,) = detection_probability(DIMS, scene, (make_uniform("qam", 64),), f, CfarConfig(2, 16, pfa), trials, 3)
        if off_column:
            assert abs(pd - pfa) < 4 * math.sqrt(pfa * (1 - pfa) / trials)
        else:
            assert pd < pfa

    def test_noise_free_rf_always_detects(self):
        scene = Scene((Target(1.0, 0.0, 0.0), Target(0.01, 9.0, 0.0)), 0.0)
        (pd,) = detection_probability(
            DIMS, scene, (make_uniform("qam", 16),), RF, CfarConfig(2, 4, 1e-4), 200, seed=5
        )
        assert pd == 1.0

    def test_monotone_in_weak_power(self):
        pds = []
        for db in (-25.0, -15.0, -5.0):
            scene = default_tradeoff_scene(1.0 / SNR, weak_rel_power_db=db)
            pds.extend(
                detection_probability(
                    DIMS, scene, (make_uniform("qam", 64),), MF, CfarConfig(2, 16, 1e-3), 800, seed=6
                )
            )
        assert pds[0] < pds[1] < pds[2]

    def test_requires_two_distinct_targets(self):
        c = (make_uniform("qam", 16),)
        with pytest.raises(ValueError, match="two targets"):
            detection_probability(
                DIMS, Scene((Target(1.0, 0.0, 0.0),), 0.1), c, MF, CfarConfig(), 10, 0
            )
        coincident = Scene((Target(1.0, 3.0, 0.0), Target(0.1, 3.2, 0.0)), 0.1)
        with pytest.raises(ValueError, match="coincident"):
            detection_probability(DIMS, coincident, c, MF, CfarConfig(), 10, 0)

    def test_detection_cell_is_the_weaker_targets(self):
        weak, strong = Target(0.03, 9.0, 4.0), Target(1.0, 2.0, 0.0)
        assert detection_cell(DIMS, Scene((weak, strong), 0.1)) == (9, 4)
        assert detection_cell(DIMS, Scene((strong, weak), 0.1)) == (9, 4)
        assert detection_cell(DIMS, default_tradeoff_scene(0.1)) == (5, 0)

    def test_equal_target_powers_rejected(self):
        """At equal powers neither target is the weak one: no cell is picked, where the target at bin 0 was."""
        with pytest.raises(ValueError, match="equal powers"):
            detection_cell(DIMS, default_tradeoff_scene(0.1, weak_rel_power_db=0.0))

    def test_profile_too_short_fails_before_any_batch(self, monkeypatch):
        """The weak cell's window never wraps onto itself: a profile no longer than 2 (guard + train) is
        rejected before anything is drawn, as CA-CFAR on the whole profile rejects it."""
        monkeypatch.setattr(metrics, "_draw_batch", lambda *a: pytest.fail("a batch was drawn"))
        scene = default_tradeoff_scene(1.0 / SNR)
        with pytest.raises(ValueError, match=r"profile length 16 must exceed 2\*\(guard\+train\) = 36"):
            detection_probability(FrameDims(16, 8), scene, (make_uniform("qam", 16),), MF, CfarConfig(2, 16), 10, 0)

    def test_threads_do_not_change_result(self):
        scene = default_tradeoff_scene(1.0 / SNR)
        c = (make_uniform("qam", 16),)
        # four 256-frame batches, so that three pool helpers start beside the calling thread
        a = detection_probability(DIMS, scene, c, MF, CfarConfig(2, 8, 1e-3), 1024, 7, threads=1)
        b = detection_probability(DIMS, scene, c, MF, CfarConfig(2, 8, 1e-3), 1024, 7, threads=4)
        assert a == b

    def test_shaped_beats_uniform_on_pedestal_limited_scene(self):
        # weak target far enough that the strong peak stays out of the window
        from ofdm_isac.pcs import PcsConfig, c0_bounds, mba_solve

        f = wiener(SNR)
        noise = 1.0 / SNR
        lo, _ = c0_bounds(64, f, DIMS, 1.0, noise)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = mba_solve(
                PcsConfig(
                    "qam", 64, f, DIMS, 1.0, noise,
                    0.02, lo,
                )
            )
        scene = Scene((Target(1.0, 0.0, 0.0), Target(10 ** (-2.2), 20.0, 0.0)), noise)
        cfar = CfarConfig(2, 8, 1e-3)
        (pd_uniform,) = detection_probability(DIMS, scene, (make_uniform("qam", 64),), f, cfar, 1500, 9)
        (pd_shaped,) = detection_probability(DIMS, scene, (sol.codebook,), f, cfar, 1500, 9)
        assert pd_shaped >= pd_uniform


class TestSharedTrialSet:
    """A sequence of codebooks shares one trial set; each P_d equals a single call's."""

    CFAR = CfarConfig(2, 8, 1e-2)
    # The weak target outside its reference window (bins 14-34), where P_d depends on the codebook:
    # at 8,000 trials (seed 99), books()[0] 0.3575 and books()[1] 0.3353, the widest gap of -30 to -20 dB.
    # At bin 5 (and -12 dB) the strong peak sits in the window and masks the weak target: 0.1511 and 0.1516.
    SCENE = default_tradeoff_scene(1.0 / SNR, weak_delay_bin=24, weak_rel_power_db=-30.0)

    def books(self):
        from ofdm_isac.constellation import make_shaped

        uniform = make_uniform("qam", 16)
        weights = np.arange(16) % 5 + 1.0
        weights[3] = 0.0
        shaped = make_shaped("qam", 16, weights)
        # a repeated object, and an equal codebook built apart, map the shared uniforms as the others do
        return (shaped, uniform, shaped, make_shaped("qam", 16, weights))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_entry_equals_a_single_call(self, monkeypatch, threads):
        monkeypatch.setattr(metrics, "DEFAULT_BATCH", 64)
        f = wiener(SNR)
        books = self.books()
        pds = detection_probability(DIMS, self.SCENE, books, f, self.CFAR, 300, 12, threads=threads)
        singles = [
            detection_probability(DIMS, self.SCENE, (c,), f, self.CFAR, 300, 12, threads=1)[0] for c in books
        ]
        assert isinstance(pds, tuple) and len(pds) == len(books)
        assert list(pds) == singles
        assert pds[0] == pds[2] == pds[3]
        assert pds[0] != pds[1]  # every codebook sees the same draw: the codebooks set the difference

    def test_cell_tables_built_once_per_call(self, monkeypatch):
        monkeypatch.setattr(metrics, "DEFAULT_BATCH", 16)
        built = []
        cell_tables = metrics._cell_tables
        monkeypatch.setattr(metrics, "_cell_tables", lambda books: built.append(len(books)) or cell_tables(books))
        detection_probability(DIMS, self.SCENE, self.books(), MF, self.CFAR, 100, 4, threads=2)
        assert built == [4]  # seven batches, four codebooks

    def test_codebooks_must_be_a_nonempty_sequence(self, monkeypatch):
        monkeypatch.setattr(metrics, "_draw_batch", lambda *a: pytest.fail("a batch was drawn"))
        with pytest.raises(ValueError, match="codebooks must not be empty"):
            detection_probability(DIMS, self.SCENE, (), MF, self.CFAR, 10, 0)
        with pytest.raises(TypeError):
            detection_probability(DIMS, self.SCENE, make_uniform("qam", 16), MF, self.CFAR, 10, 0)

    def test_different_alphabets_rejected(self):
        scene = self.SCENE
        for other in (make_uniform("qam", 64), make_uniform("psk", 16)):
            with pytest.raises(ValueError, match="one alphabet"):
                detection_probability(DIMS, scene, (make_uniform("qam", 16), other), MF, self.CFAR, 10, 0)
