"""CA-CFAR behavior and Monte Carlo detection probability."""

import numpy as np
import pytest

from ofdm_isac.channel import FrameDims, Scene, Target
from ofdm_isac.constellation import make_uniform
from ofdm_isac.detection import (
    CfarConfig,
    ca_cfar_1d,
    cfar_threshold_factor,
    default_tradeoff_scene,
    detection_probability,
)
from ofdm_isac.filtering import MF, RF, wiener

DIMS = FrameDims(64, 32)
SNR = 10.0**0.4


class TestCaCfar:
    def test_all_zero_profile(self):
        det, thr = ca_cfar_1d(np.zeros(128), CfarConfig(2, 8, 1e-3))
        assert det.size == 0

    def test_single_spike_detected(self):
        rng = np.random.default_rng(0)
        profile = rng.exponential(1.0, 256)
        profile[100] = 1e6 * profile.mean()
        det, _ = ca_cfar_1d(profile, CfarConfig(2, 8, 1e-3))
        assert 100 in det

    def test_false_alarm_calibration(self):
        rng = np.random.default_rng(1)
        profile = rng.exponential(1.0, 1_000_000)
        pfa = 1e-2
        det, _ = ca_cfar_1d(profile, CfarConfig(2, 16, pfa))
        rate = det.size / profile.size
        assert pfa / 1.5 < rate < pfa * 1.5

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        profile = rng.exponential(1.0, 512)
        cfg = CfarConfig(3, 10, 1e-2)
        det1, thr1 = ca_cfar_1d(profile, cfg)
        det2, thr2 = ca_cfar_1d(7.5 * profile, cfg)
        np.testing.assert_allclose(thr2, 7.5 * thr1, rtol=1e-12)
        np.testing.assert_array_equal(det1, det2)

    def test_lower_pfa_never_adds_detections(self):
        rng = np.random.default_rng(3)
        profile = rng.exponential(1.0, 2048)
        profile[[50, 700]] = 40.0
        loose, _ = ca_cfar_1d(profile, CfarConfig(2, 8, 1e-2))
        tight, _ = ca_cfar_1d(profile, CfarConfig(2, 8, 1e-4))
        assert set(tight).issubset(set(loose))

    def test_profile_too_short(self):
        with pytest.raises(ValueError, match="must exceed"):
            ca_cfar_1d(np.ones(36), CfarConfig(2, 16, 1e-3))

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
        pd = detection_probability(
            DIMS, scene, make_uniform("psk", 4), RF, CfarConfig(2, 8, pfa), trials, seed=4
        )
        sigma = np.sqrt(pfa * (1 - pfa) / trials)
        assert abs(pd - pfa) < 3 * sigma

    def test_noise_free_rf_always_detects(self):
        scene = Scene((Target(1.0, 0.0, 0.0), Target(0.01, 9.0, 0.0)), 0.0)
        pd = detection_probability(
            DIMS, scene, make_uniform("qam", 16), RF, CfarConfig(2, 4, 1e-4), 200, seed=5
        )
        assert pd == 1.0

    def test_monotone_in_weak_power(self):
        pds = []
        for db in (-25.0, -15.0, -5.0):
            scene = default_tradeoff_scene(1.0 / SNR, weak_rel_power_db=db)
            pds.append(
                detection_probability(
                    DIMS, scene, make_uniform("qam", 64), MF, CfarConfig(2, 16, 1e-3), 800, seed=6
                )
            )
        assert pds[0] < pds[1] < pds[2]

    def test_requires_two_distinct_targets(self):
        c = make_uniform("qam", 16)
        with pytest.raises(ValueError, match="two targets"):
            detection_probability(
                DIMS, Scene((Target(1.0, 0.0, 0.0),), 0.1), c, MF, CfarConfig(), 10, 0
            )
        coincident = Scene((Target(1.0, 3.0, 0.0), Target(0.1, 3.2, 0.0)), 0.1)
        with pytest.raises(ValueError, match="coincident"):
            detection_probability(DIMS, coincident, c, MF, CfarConfig(), 10, 0)

    def test_threads_do_not_change_result(self):
        scene = default_tradeoff_scene(1.0 / SNR)
        c = make_uniform("qam", 16)
        a = detection_probability(DIMS, scene, c, MF, CfarConfig(2, 8, 1e-3), 256, 7, threads=1)
        b = detection_probability(DIMS, scene, c, MF, CfarConfig(2, 8, 1e-3), 256, 7, threads=4)
        assert a == b

    def test_shaped_beats_uniform_on_pedestal_limited_scene(self):
        # weak target far enough that the strong peak stays out of the window
        from ofdm_isac.air import AirConfig
        from ofdm_isac.constellation import make_shaped
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
                    AirConfig(0.02, mc_samples=10_000, seed=11), lo,
                )
            )
        shaped = make_shaped("qam", 64, sol.probs)
        scene = Scene((Target(1.0, 0.0, 0.0), Target(10 ** (-2.2), 20.0, 0.0)), noise)
        cfar = CfarConfig(2, 8, 1e-3)
        pd_uniform = detection_probability(DIMS, scene, make_uniform("qam", 64), f, cfar, 1500, 9)
        pd_shaped = detection_probability(DIMS, scene, shaped, f, cfar, 1500, 9)
        assert pd_shaped >= pd_uniform


class TestSharedTrialSet:
    """A sequence of codebooks shares one trial set; each P_d equals a single call's."""

    CFAR = CfarConfig(2, 8, 1e-2)
    SCENE = default_tradeoff_scene(1.0 / SNR, weak_rel_power_db=-12.0)

    def books(self):
        from ofdm_isac.constellation import make_shaped

        uniform = make_uniform("qam", 16)
        weights = np.arange(16) % 5 + 1.0
        weights[3] = 0.0
        shaped = make_shaped("qam", 16, weights)
        # a repeated object, and an equal codebook built apart, map the shared uniforms as the others do
        return (shaped, uniform, shaped, make_shaped("qam", 16, weights))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_entry_equals_a_single_call(self, threads):
        f = wiener(SNR)
        books = self.books()
        pds = detection_probability(DIMS, self.SCENE, books, f, self.CFAR, 300, 12, batch_size=64, threads=threads)
        singles = [
            detection_probability(DIMS, self.SCENE, c, f, self.CFAR, 300, 12, batch_size=64, threads=1) for c in books
        ]
        assert isinstance(pds, tuple) and len(pds) == len(books)
        assert list(pds) == singles
        assert pds[0] == pds[2] == pds[3]
        assert pds[0] != pds[1]  # the codebooks, not the draw, set the difference

    def test_different_alphabets_rejected(self):
        scene = self.SCENE
        for other in (make_uniform("qam", 64), make_uniform("psk", 16)):
            with pytest.raises(ValueError, match="one alphabet"):
                detection_probability(DIMS, scene, (make_uniform("qam", 16), other), MF, self.CFAR, 10, 0)
