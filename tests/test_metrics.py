"""Closed-form metrics, expected profiles, crossover, and Monte Carlo agreement."""

import math

import numpy as np
import pytest

from ofdm_isac import metrics
from ofdm_isac.channel import FrameDims, Scene, Target, complex_normal, steering_vectors
from ofdm_isac.constellation import chi_stats, make_shaped, make_uniform, moment_abs_pow
from ofdm_isac.filtering import MF, RF, point_gain, wiener
from ofdm_isac.metrics import (
    closed_form_metrics,
    crossover_snr_in,
    dirichlet_kernel,
    dynamic_range,
    empirical_dd_profile,
    empirical_metrics,
    expected_dd_power,
    identity_checks,
    pedestal_power,
)

DIMS = FrameDims(64, 32)
SNR_4DB = 10.0**0.4


def scene_at(snr_linear, gain_var=1.0, delay_bin=0.0, doppler_bin=0.0):
    return Scene((Target(gain_var, delay_bin, doppler_bin),), gain_var / snr_linear)


class TestClosedForm:
    def test_psk_islr_zero_and_dr_equal(self):
        c = make_uniform("psk", 4)
        noise = 1.0 / SNR_4DB
        reports = [closed_form_metrics(c, f, DIMS, 1.0, noise) for f in (MF, RF, wiener(SNR_4DB))]
        for rep in reports:
            assert rep.islr == pytest.approx(0.0, abs=1e-14)
            assert rep.dr == pytest.approx(DIMS.size * SNR_4DB, rel=1e-12)

    def test_rf_islr_zero_any_constellation(self):
        rep = closed_form_metrics(make_uniform("qam", 64), RF, DIMS, 1.0, 0.1)
        assert rep.islr == 0.0

    def test_mf_noise_free_mse(self):
        c = make_uniform("qam", 64)
        rep = closed_form_metrics(c, MF, DIMS, 1.0, 0.0)
        expected = DIMS.size * (moment_abs_pow(c, 4.0) - 1.0)
        assert rep.mse == pytest.approx(expected, rel=1e-12)
        assert rep.mse == pytest.approx(DIMS.size * 0.380952, rel=1e-5)

    def test_mse_matches_moment_forms(self):
        # the general expression reduces to the per-filter closed forms
        c = make_uniform("qam", 16)
        gain, noise = 1.0, 0.25
        snr = gain / noise
        nm = DIMS.size
        assert closed_form_metrics(c, MF, DIMS, gain, noise).mse == pytest.approx(
            nm * (gain * (moment_abs_pow(c, 4.0) - 1.0) + noise), rel=1e-12
        )
        assert closed_form_metrics(c, RF, DIMS, gain, noise).mse == pytest.approx(
            nm * noise * moment_abs_pow(c, -2.0), rel=1e-12
        )
        wf_cell = np.sum(
            make_uniform("qam", 16).probs / (np.abs(make_uniform("qam", 16).points) ** 2 + 1.0 / snr)
        )
        assert closed_form_metrics(c, wiener(snr), DIMS, gain, noise).mse == pytest.approx(
            nm * noise * wf_cell, rel=1e-12
        )

    def test_snr_out_mf_table_row(self):
        c = make_uniform("qam", 64)
        rep = closed_form_metrics(c, MF, DIMS, 1.0, 1.0 / SNR_4DB)
        expected = SNR_4DB * (moment_abs_pow(c, 4.0) + DIMS.size - 1.0)
        assert rep.snr_out == pytest.approx(expected, rel=1e-12)

    def test_nmse_decomposition(self):
        for c in (make_uniform("psk", 4), make_uniform("qam", 16), make_uniform("qam", 64)):
            for f in (MF, RF, wiener(SNR_4DB)):
                rep = closed_form_metrics(c, f, DIMS, 1.0, 1.0 / SNR_4DB)
                s = chi_stats(c, f)
                penalty = (s.mean_chi - 1.0) ** 2 / s.mean_chi**2
                assert abs(rep.nmse - DIMS.size**2 / rep.dr - penalty) < 1e-12

    def test_dr_exact_form_is_one_more(self):
        s = chi_stats(make_uniform("qam", 64), MF)
        approx = dynamic_range(s, DIMS, 1.0, 0.5)
        exact = dynamic_range(s, DIMS, 1.0, 0.5, include_unity=True)
        assert exact == pytest.approx(approx + 1.0, rel=1e-14)


class TestDrBehavior:
    def test_ordering_low_snr(self):
        # -10 dB: MF ~ WF, both beat RF
        c = make_uniform("qam", 64)
        snr = 0.1
        noise = 1.0 / snr
        dr = {
            "mf": closed_form_metrics(c, MF, DIMS, 1.0, noise).dr,
            "rf": closed_form_metrics(c, RF, DIMS, 1.0, noise).dr,
            "wf": closed_form_metrics(c, wiener(snr), DIMS, 1.0, noise).dr,
        }
        assert dr["mf"] > dr["rf"]
        assert dr["wf"] > dr["rf"]
        assert abs(10 * math.log10(dr["wf"] / dr["mf"])) < 0.2

    def test_ordering_high_snr(self):
        # +20 dB: RF ~ WF, both beat MF
        c = make_uniform("qam", 64)
        snr = 100.0
        noise = 1.0 / snr
        dr = {
            "mf": closed_form_metrics(c, MF, DIMS, 1.0, noise).dr,
            "rf": closed_form_metrics(c, RF, DIMS, 1.0, noise).dr,
            "wf": closed_form_metrics(c, wiener(snr), DIMS, 1.0, noise).dr,
        }
        assert dr["rf"] > dr["mf"]
        assert dr["wf"] > dr["mf"]
        assert abs(10 * math.log10(dr["wf"] / dr["rf"])) < 0.5

    def test_wf_tracks_mf_in_deep_noise(self):
        c = make_uniform("qam", 64)
        for snr_db in (-20.0, -30.0):
            snr = 10.0 ** (snr_db / 10.0)
            noise = 1.0 / snr
            ratio = closed_form_metrics(c, wiener(snr), DIMS, 1.0, noise).dr / (DIMS.size * snr)
            assert 0.99 <= ratio <= 1.01

    def test_crossover_inside_dr_curves(self):
        c = make_uniform("qam", 64)
        cross = crossover_snr_in(c)
        for snr in (cross * 0.8, cross * 1.25):
            noise = 1.0 / snr
            mf = closed_form_metrics(c, MF, DIMS, 1.0, noise).dr
            rf = closed_form_metrics(c, RF, DIMS, 1.0, noise).dr
            assert (mf > rf) == (snr < cross)
        noise = 1.0 / cross
        assert closed_form_metrics(c, MF, DIMS, 1.0, noise).dr == pytest.approx(
            closed_form_metrics(c, RF, DIMS, 1.0, noise).dr, rel=1e-12
        )


class TestCrossover:
    def test_qam64(self):
        cross = crossover_snr_in(make_uniform("qam", 64))
        assert cross == pytest.approx(4.42422, abs=1e-4)
        assert 10 * math.log10(cross) == pytest.approx(6.458, abs=1e-3)

    def test_qam16_against_enumeration(self):
        # oracle from the odd grid {+-1, +-3}^2: E|x|^4 = 1.32, E|x|^-2 = 17/9
        oracle = (17.0 / 9.0 - 1.0) / (1.32 - 1.0)
        got = crossover_snr_in(make_uniform("qam", 16))
        assert abs(got - oracle) / oracle < 1e-9
        assert 10 * math.log10(got) == pytest.approx(4.437, abs=1e-3)

    def test_constant_modulus_degenerate(self):
        with pytest.raises(ValueError, match="no MF/RF crossover"):
            crossover_snr_in(make_uniform("psk", 4))


class TestExpectedDdPower:
    def test_psk_mf_peak(self):
        c = make_uniform("psk", 4)
        gain, noise = 1.0, 0.4
        peak = expected_dd_power(0.0, 0.0, (0.0, 0.0), c, MF, DIMS, gain, noise)
        assert peak == pytest.approx(DIMS.size * gain + noise, rel=1e-12)

    def test_far_region_pedestal(self):
        c = make_uniform("qam", 64)
        f = wiener(SNR_4DB)
        gain, noise = 1.0, 1.0 / SNR_4DB
        value = expected_dd_power(20.0, 16.0, (0.0, 0.0), c, f, DIMS, gain, noise)
        s = chi_stats(c, f)
        assert value == pytest.approx(pedestal_power(s, gain, noise), rel=1e-12)

    def test_rf_noise_free_off_peak_zero(self):
        c = make_uniform("qam", 16)
        value = expected_dd_power(5.0, 3.0, (0.0, 0.0), c, RF, DIMS, 1.0, 0.0)
        assert value == pytest.approx(0.0, abs=1e-20)

    def test_dirichlet_kernel_properties(self):
        n = 16
        assert dirichlet_kernel(0.0, n) == pytest.approx(1.0)
        assert dirichlet_kernel(3.0, n) == pytest.approx(0.0, abs=1e-15)
        # off-grid energy sums to ~1/N of the squared-kernel mass over one period
        u = 4.37
        total = np.sum(dirichlet_kernel(np.arange(n) - u, n) ** 2)
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_sinc_kernel_toggle(self):
        c = make_uniform("qam", 64)
        on_grid = expected_dd_power(3.0, 2.0, (3.0, 2.0), c, MF, DIMS, 1.0, 0.1, kernel="sinc")
        assert on_grid == pytest.approx(
            expected_dd_power(3.0, 2.0, (3.0, 2.0), c, MF, DIMS, 1.0, 0.1), rel=1e-12
        )

    def test_pedestal_scaling_nine_db(self):
        # pedestal is dims-independent while the peak accumulates NM-fold
        c = make_uniform("qam", 64)
        gain, noise = 1.0, 1.0 / SNR_4DB
        gaps = []
        for dims in (FrameDims(16, 16), FrameDims(64, 32)):
            rep = closed_form_metrics(c, MF, dims, gain, noise)
            gaps.append(10 * math.log10(rep.dr + 1.0))
        assert gaps[1] - gaps[0] == pytest.approx(10 * math.log10(2048 / 256), abs=0.05)


class TestEmpirical:
    def test_psk_rf_mse_is_pure_noise_energy(self):
        c = make_uniform("psk", 4)
        scene = scene_at(SNR_4DB)
        rep = empirical_metrics(c, RF, DIMS, scene, trials=100, seed=8)
        expected = DIMS.size * scene.noise_var
        # |g| = 1 exactly, so the estimate is the mean noise energy
        assert rep.mse == pytest.approx(expected, rel=3.0 / math.sqrt(100 * DIMS.size))
        assert rep.islr < 1e-9

    def test_qam64_mf_within_three_percent(self):
        c = make_uniform("qam", 64)
        scene = scene_at(SNR_4DB)
        cf = closed_form_metrics(c, MF, DIMS, 1.0, scene.noise_var)
        em = empirical_metrics(c, MF, DIMS, scene, trials=1000, seed=42)
        assert em.mse == pytest.approx(cf.mse, rel=0.03)
        assert em.snr_out == pytest.approx(cf.snr_out, rel=0.03)
        assert em.islr == pytest.approx(cf.islr, abs=0.02)

    def test_empirical_rf_islr_zero(self):
        rep = empirical_metrics(make_uniform("qam", 16), RF, DIMS, scene_at(SNR_4DB), 50, seed=2)
        assert rep.islr < 1e-9

    def test_report_carries_provenance(self):
        rep = empirical_metrics(make_uniform("qam", 16), MF, DIMS, scene_at(1.0), 10, seed=5)
        assert rep.provenance == "empirical"
        assert rep.trials == 10
        assert rep.seed == 5

    def test_threads_do_not_change_results(self):
        c = make_uniform("qam", 16)
        scene = scene_at(SNR_4DB)
        a = empirical_metrics(c, MF, DIMS, scene, 300, seed=4, threads=1)
        b = empirical_metrics(c, MF, DIMS, scene, 300, seed=4, threads=4)
        assert a.mse == b.mse
        assert a.dr == b.dr

    def test_off_grid_target_runs(self):
        scene = Scene((Target(1.0, 10.6, 7.3),), 0.5)
        rep = empirical_metrics(make_uniform("qam", 16), MF, DIMS, scene, 20, seed=1)
        assert rep.mse > 0


class TestIdentityChecks:
    @pytest.mark.parametrize("f", [MF, RF, wiener(SNR_4DB)], ids=["mf", "rf", "wf"])
    def test_per_realization_identities(self, f):
        rep = identity_checks(make_uniform("qam", 64), f, DIMS, scene_at(SNR_4DB), 50, seed=3)
        assert rep.dd_unitarity_max_rel < 1e-9
        assert rep.islr_identity_max_rel < 1e-10
        assert rep.parseval_max_rel < 1e-10

    def test_mse_relation_small_sample(self):
        rep = identity_checks(make_uniform("qam", 64), MF, DIMS, scene_at(SNR_4DB), 2000, seed=3)
        assert rep.mse_relation_rel < 0.05

    def test_filter_tuple_shares_one_trial_set(self):
        c = make_uniform("qam", 64)
        filters = (MF, RF, wiener(SNR_4DB))
        scene = scene_at(SNR_4DB)
        together = identity_checks(c, filters, DIMS, scene, 300, seed=4)
        alone = tuple(identity_checks(c, f, DIMS, scene, 300, seed=4) for f in filters)
        assert isinstance(together, tuple) and len(together) == 3
        for a, b in zip(together, alone):
            assert a == b  # every field, exactly


class TestEmpiricalProfile:
    def test_thread_count_invariant(self):
        scene = Scene((Target(1.0, 3.0, 2.0), Target(0.2, 9.0, 5.0)), 0.3)
        args = (make_uniform("qam", 16), wiener(SNR_4DB), FrameDims(16, 16), scene, 600, 8)
        one = empirical_dd_profile(*args, batch_size=128, threads=1)
        two = empirical_dd_profile(*args, batch_size=128, threads=2)
        assert one.shape == (16, 16)
        assert np.array_equal(one, two)


class TestFrameKernel:
    def test_tables_match_per_entry_chain(self):
        """The kernel's table gathers give the bits of the per-entry chain X -> G -> (H o X + Z) o G.

        Two codebooks on one alphabet share the uniforms, gains and noise; each maps
        the uniforms to its own symbols.
        """
        books = (make_shaped("qam", 16, np.arange(16) % 5 + 1.0), make_uniform("qam", 16))
        dims = FrameDims(16, 16)  # 512 KiB batches: big enough for numpy's temporary elision
        scene = Scene((Target(1.0, 2.0, 1.0), Target(0.3, 6.0, 3.0)), 0.4)
        filters = (MF, RF, wiener(2.5))
        steering = [np.outer(b, np.conj(cv)) for b, cv in (steering_vectors(dims, t) for t in scene.targets)]
        groups = []
        for b, c in enumerate(books):
            tables = [(g, (c.points * g).real) for g in (point_gain(c.points, f) for f in filters)]
            groups.append((c, [(3 * b + i, g, chi) for i, (g, chi) in enumerate(tables)]))
        seen = []
        metrics._simulate_batch(3, 128, groups, 6, dims, scene, 77, steering, lambda *a: seen.append(a) or {})

        rng = np.random.default_rng(np.random.SeedSequence(entropy=77, spawn_key=(3,)))
        u = rng.random((128, *dims.shape))
        h = np.zeros(u.shape, dtype=np.complex128)
        for t, s_q in zip(scene.targets, steering):
            alpha = complex_normal(rng, t.gain_var, (128,))
            h += alpha[:, None, None] * s_q[None, :, :]
        z = complex_normal(rng, scene.noise_var, u.shape)
        assert len(seen) == len(books) * len(filters)
        for b, c in enumerate(books):
            x = c.points[np.minimum(np.searchsorted(np.cumsum(c.probs), u, side="right"), c.order - 1)]
            for f, (h_k, g_k, chi_k, hhat_k) in zip(filters, seen[3 * b : 3 * b + 3]):
                g = point_gain(x, f)
                assert np.array_equal(h_k, h)
                assert np.array_equal(g_k, g)
                assert np.array_equal(chi_k, (x * g).real)
                assert np.array_equal(hhat_k, (h * x + z) * g)
