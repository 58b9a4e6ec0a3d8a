"""Closed-form metrics, expected profiles, crossover, and Monte Carlo agreement."""

import math
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from ofdm_isac import metrics
from ofdm_isac.channel import FrameDims, Scene, Target, complex_normal, steering_vectors
from ofdm_isac.constellation import chi_stats, make_shaped, make_uniform, moment_abs_pow
from ofdm_isac.filtering import MF, RF, dd_transform, point_chi, point_gain, wiener
from ofdm_isac.metrics import (
    closed_form_metrics,
    crossover_snr_in,
    dirichlet_kernel,
    empirical_dd_profile,
    empirical_metrics,
    expected_dd_power,
    identity_checks,
    pedestal_power,
)
from ofdm_isac.verification import run_verification

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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_dr_is_read_off_the_mean_map(self, threads):
        """DR is the mean DD map's power at the strongest target's cell (15.6 wraps to delay cell 0) over
        its far-region mean, on the map that ``empirical_dd_profile`` returns for the same draw."""
        dims = FrameDims(16, 16)
        scene = Scene((Target(0.2, 6.0, 9.0), Target(1.0, 15.6, 2.4)), 0.3)
        args = (make_uniform("qam", 16), wiener(SNR_4DB), dims, scene, 300, 11)
        rep = empirical_metrics(*args, threads=threads)
        mean_map = empirical_dd_profile(*args, threads=threads)
        assert all(type(getattr(rep, name)) is float for name in ("mse", "snr_out", "islr", "dr", "nmse"))
        assert rep.dr == pytest.approx(mean_map[0, 2] / mean_map[metrics.far_region_mask(dims, scene)].mean(),
                                       rel=1e-12, abs=0.0)

    def test_empty_far_region_raises_before_any_batch(self, monkeypatch):
        monkeypatch.setattr(metrics, "_simulate_batch", lambda *a: pytest.fail("a batch was run"))
        with pytest.raises(ValueError, match="far region is empty"):
            empirical_metrics(make_uniform("qam", 16), MF, FrameDims(6, 6), scene_at(SNR_4DB), 10, seed=0)

    def test_off_grid_target_runs(self):
        scene = Scene((Target(1.0, 10.6, 7.3),), 0.5)
        rep = empirical_metrics(make_uniform("qam", 16), MF, DIMS, scene, 20, seed=1)
        assert rep.mse > 0


class TestIdentityChecks:
    @pytest.mark.parametrize("f", [MF, RF, wiener(SNR_4DB)], ids=["mf", "rf", "wf"])
    def test_per_realization_identities(self, f):
        (rep,) = identity_checks(make_uniform("qam", 64), (f,), DIMS, scene_at(SNR_4DB), 50, seed=3)
        assert rep.dd_unitarity_max_rel < 1e-9
        assert rep.islr_identity_max_rel < 1e-10
        assert rep.parseval_max_rel < 1e-10

    def test_mse_relation_small_sample(self):
        (rep,) = identity_checks(make_uniform("qam", 64), (MF,), DIMS, scene_at(SNR_4DB), 2000, seed=3)
        assert rep.mse_relation_rel < 0.05

    def test_filter_tuple_shares_one_trial_set(self):
        c = make_uniform("qam", 64)
        filters = (MF, RF, wiener(SNR_4DB))
        scene = scene_at(SNR_4DB)
        assert 300 > metrics.DEFAULT_BATCH  # the MSE relation spans two batches, the identities one
        together = identity_checks(c, filters, DIMS, scene, 300, seed=4)
        alone = tuple(identity_checks(c, (f,), DIMS, scene, 300, seed=4)[0] for f in filters)
        assert isinstance(together, tuple) and len(together) == 3
        for a, b in zip(together, alone):
            assert a == b  # every field, exactly

    def test_identity_maxima_read_the_first_batch_only(self):
        c = make_uniform("qam", 16)
        filters = (MF, RF, wiener(SNR_4DB))
        scene = scene_at(SNR_4DB)
        first = identity_checks(c, filters, DIMS, scene, metrics.DEFAULT_BATCH, seed=6)
        longer = identity_checks(c, filters, DIMS, scene, 600, seed=6)
        for a, b in zip(first, longer):
            assert b.dd_unitarity_max_rel == a.dd_unitarity_max_rel
            assert b.islr_identity_max_rel == a.islr_identity_max_rel
            assert b.parseval_max_rel == a.parseval_max_rel
            assert b.mse_relation_rel != a.mse_relation_rel  # over all 600 trials
            assert b.trials == 600

    def test_mse_relation_matches_fft_energy_form(self):
        """sum chi^2 in place of the response energy sum |r|^2 from the FFT moves the residual only at rounding."""
        c = make_uniform("qam", 64)
        filters = (MF, RF, wiener(SNR_4DB))
        scene = scene_at(SNR_4DB)
        trials = 300

        def fft_form(h, g, hhat, sums, cell, chi_cells):
            chi = chi_cells[cell]
            nm = chi[0].size
            r00 = chi.sum(axis=(1, 2)) / math.sqrt(nm)
            r_energy = np.sum(np.abs(dd_transform(chi)) ** 2, axis=(1, 2))
            return {
                "mse": np.sum(np.abs(hhat - h) ** 2, axis=(1, 2)),
                "g_energy": np.sum(np.abs(g) ** 2, axis=(1, 2)),
                "lhs": r_energy - r00**2 + nm * (1.0 - r00 / math.sqrt(nm)) ** 2,
            }

        chain = metrics._frame_chain(DIMS, scene, fft_form)
        sums = metrics._run_batches((c,), filters, DIMS, scene, trials, 4, 1, chain)
        for rep, s in zip(identity_checks(c, filters, DIMS, scene, trials, seed=4), sums):
            assert all(s[key].shape == (trials,) for key in ("mse", "g_energy", "lhs"))
            lhs = scene.total_gain_var * s["lhs"].mean() + scene.noise_var * s["g_energy"].mean()
            want = abs(lhs - s["mse"].mean()) / s["mse"].mean()
            assert rep.mse_relation_rel == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_parseval_reads_the_count_sums(self, monkeypatch):
        """Parseval compares the chi FFT with the sum chi^2 read off the cell counts, so a fault on the count
        path shows in it: sum chi^2 scaled by 1 + 1e-8 reads a 1e-8 residual."""
        identity_sums = metrics._identity_sums

        def skewed(h, g, hhat, sums, cell, chi_cells):
            return identity_sums(h, g, hhat, {**sums, "r_energy": sums["r_energy"] * (1 + 1e-8)}, cell, chi_cells)

        monkeypatch.setattr(metrics, "_identity_sums", skewed)
        for rep in identity_checks(make_uniform("qam", 16), (MF, RF), FrameDims(16, 16), scene_at(SNR_4DB), 64, 2):
            assert rep.parseval_max_rel == pytest.approx(1e-8, rel=1e-6)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_nan_identity_residual_fails_verify(self, monkeypatch, threads):
        """A NaN identity residual on one frame is NaN in the report, and verify's check on it fails."""
        identity_sums = metrics._identity_sums

        def nan_parseval(*frame):
            out = identity_sums(*frame)
            out["parseval"][-1] = math.nan
            return out

        monkeypatch.setattr(metrics, "_identity_sums", nan_parseval)
        dims = FrameDims(16, 16)
        for rep in identity_checks(make_uniform("qam", 64), (MF, RF), dims, scene_at(SNR_4DB), 300, 1, threads):
            assert math.isnan(rep.parseval_max_rel)
            assert rep.dd_unitarity_max_rel < 1e-9
        checks = {c.name: c for c in run_verification(dims, trials=300, seed=1, threads=threads)}
        for tag in ("mf", "rf", "wf"):
            assert math.isnan(checks[f"parseval_{tag}"].residual)
            assert not checks[f"parseval_{tag}"].passed
            assert checks[f"dd_unitarity_{tag}"].passed

    def test_filters_must_be_a_nonempty_sequence(self, monkeypatch):
        monkeypatch.setattr(metrics, "_draw_batch", lambda *a: pytest.fail("a batch was drawn"))
        c = make_uniform("qam", 16)
        with pytest.raises(ValueError, match="filters must not be empty"):
            identity_checks(c, (), DIMS, scene_at(SNR_4DB), 10, seed=0)
        with pytest.raises(TypeError):
            identity_checks(c, MF, DIMS, scene_at(SNR_4DB), 10, seed=0)


class TestEmpiricalProfile:
    def test_thread_count_invariant(self, monkeypatch):
        monkeypatch.setattr(metrics, "DEFAULT_BATCH", 128)
        scene = Scene((Target(1.0, 3.0, 2.0), Target(0.2, 9.0, 5.0)), 0.3)
        args = (make_uniform("qam", 16), wiener(SNR_4DB), FrameDims(16, 16), scene, 600, 8)
        one = empirical_dd_profile(*args, threads=1)
        two = empirical_dd_profile(*args, threads=2)
        assert one.shape == (16, 16)
        assert np.array_equal(one, two)


class TestFrameKernel:
    def test_tables_match_per_entry_chain(self, monkeypatch):
        """The kernel's table gathers give the bits of the per-entry chain X -> G -> (H o X + Z) o G, with
        chi = point_chi(X).

        Two codebooks on one alphabet share the uniforms, gains and noise; each maps
        the uniforms to its own symbols.
        """
        books = (make_shaped("qam", 16, np.arange(16) % 5 + 1.0), make_uniform("qam", 16))
        dims = FrameDims(16, 16)
        # the 128-frame batch as one 512 KiB block: big enough for numpy's temporary elision
        monkeypatch.setattr(metrics, "FRAME_BLOCK_BYTES", 128 * 16 * dims.size)
        scene = Scene((Target(1.0, 2.0, 1.0), Target(0.3, 6.0, 3.0)), 0.4)
        filters = (MF, RF, wiener(2.5))
        steering = [np.outer(b, np.conj(cv)) for b, cv in (steering_vectors(dims, t) for t in scene.targets)]
        cuts, guide, cell_index = metrics._cell_tables(books)
        groups = []
        for c, table in zip(books, cell_index):
            tables = [(point_gain(c.points, f)[table], point_chi(c.points, f)[table]) for f in filters]
            groups.append((c.points[table], tables))
        seen = []
        chain = metrics._frame_chain(dims, scene, lambda *a: seen.append(a) or {})(groups)
        metrics._simulate_batch(3, 128, cuts, guide, dims, scene, 77, chain)

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
            for f, (h_k, g_k, hhat_k, _, cell_k, chi_cells_k) in zip(filters, seen[3 * b : 3 * b + 3]):
                g = point_gain(x, f)
                assert np.array_equal(h_k, h)
                assert np.array_equal(g_k, g)
                assert np.array_equal(chi_cells_k[cell_k], point_chi(x, f))
                assert np.array_equal(hhat_k, (h * x + z) * g)

    @pytest.mark.parametrize("dims, trials", [(FrameDims(64, 32), 21), (FrameDims(16, 16), 100), (FrameDims(4, 1), 300)],
                             ids=["64x32", "16x16", "4x1"])
    def test_count_sums_match_per_entry_gathers(self, dims, trials):
        """The step's symbol terms, read off per-frame cell counts, equal the per-entry definitions
        sum|g|^2, sum chi and sum chi^2 to 1e-12 relative, frame by frame, on every arm.

        Three codebooks on one alphabet share the cells, one with zero-probability points; the filters
        include a WF at a wrong SNR. Each trial count ends on a short block (8 + 8 + 5 frames at 64x32,
        64 + 36 at 16x16, a 256-frame batch then a 44-frame one at 4x1)."""
        books = (make_uniform("qam", 16), make_shaped("qam", 16, np.arange(16) % 5),
                 make_shaped("qam", 16, np.linspace(1.0, 3.0, 16)))
        filters = (MF, RF, wiener(SNR_4DB), wiener(0.05))
        scene = Scene((Target(1.0, 1.0, 0.0),), 0.3)
        seen = []

        def both(h, g, hhat, sums, cell, chi_cells):
            chi = chi_cells[cell]
            gathered = {"g_energy": (np.abs(g) ** 2).sum(axis=(1, 2)), "chi_total": chi.sum(axis=(1, 2)),
                        "r_energy": (chi**2).sum(axis=(1, 2))}
            seen.append((len(hhat), sums, gathered))
            return {}

        metrics._run_batches(books, filters, dims, scene, trials, 5, 1, metrics._frame_chain(dims, scene, both))
        arms = len(books) * len(filters)  # the step calls the reducer on every arm of a block in turn
        for arm in range(arms):
            blocks = seen[arm::arms]
            assert sum(size for size, _, _ in blocks) == trials
            for _, sums, gathered in blocks:
                assert sums.keys() == gathered.keys()
                for key, want in gathered.items():
                    np.testing.assert_allclose(sums[key], want, rtol=1e-12, atol=0.0, err_msg=key)


class TestPerFrameContract:
    """``_run_batches`` hands back each per-frame scalar as one array of ``trials`` values in frame order."""

    def _run(self, trials, threads):
        dims = FrameDims(16, 16)
        scene = Scene((Target(1.0, 2.0, 3.0), Target(0.3, 9.0, 1.0)), 0.4)
        chain = metrics._frame_chain(dims, scene, lambda *frame: {**metrics._dd_power(*frame),
                                                                 **metrics._moment_sums(*frame)})
        return metrics._run_batches((make_uniform("qam", 16),), (MF, wiener(SNR_4DB)), dims, scene, trials, 12,
                                    threads, chain)

    def test_per_frame_arrays(self):
        assert 600 > 2 * metrics.DEFAULT_BATCH  # three batches, the last a partial one
        longer, first = self._run(600, 1), self._run(metrics.DEFAULT_BATCH, 1)
        for long_arm, first_arm in zip(longer, first):
            assert long_arm.keys() == {"power", "mse", "g_energy", "chi_total", "r_energy"}
            assert long_arm["power"].shape == (16, 16)
            for key in ("mse", "g_energy", "chi_total", "r_energy"):
                assert long_arm[key].shape == (600,) and first_arm[key].shape == (metrics.DEFAULT_BATCH,)
                assert long_arm[key][: metrics.DEFAULT_BATCH].tobytes() == first_arm[key].tobytes(), key

    def test_thread_count_invariant(self):
        for one, three in zip(self._run(600, 1), self._run(600, 3)):
            assert one.keys() == three.keys()
            for key, value in one.items():
                assert value.tobytes() == three[key].tobytes(), key


class TestThreadPool:
    """``_run_batches`` runs batches on the calling thread beside at most ``threads - 1`` pool helpers."""

    SCENE = Scene((Target(1.0, 0.0, 0.0),), 0.1)

    @staticmethod
    def _frame(**values):
        """One batch runner's result for a one-frame batch: one arm, no map, and each per-frame scalar."""
        return [({}, {key: np.array([value]) for key, value in values.items()})]

    def _run(self, threads, run, trials=16):
        """``_run_batches`` on one-frame batches, with ``run(index, size)`` as the batch runner."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_simulate_batch", lambda index, size, *rest: run(index, size))
            mp.setattr(metrics, "DEFAULT_BATCH", 1)
            return metrics._run_batches((make_uniform("qam", 16),), (MF,), FrameDims(4, 4), self.SCENE, trials, 0,
                                        threads, lambda books: (metrics.FRAME_BLOCK_BYTES, (4, 4), None))

    def test_helpers_capped_by_plan_without_starting_threads(self, monkeypatch):
        """--threads 1000 on a 16-batch plan asks for 15 helpers; the stand-in pool runs them inline."""
        asked, idents = [], set()

        class InlinePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(metrics, "ThreadPoolExecutor", InlinePool)

        def run(index, size):
            idents.add(threading.get_ident())
            return self._frame(n=float(index))

        (sums,) = self._run(1000, run)
        assert np.array_equal(sums["n"], np.arange(16.0))
        assert asked == [15]
        assert idents == {threading.get_ident()}

    def test_caller_runs_a_batch(self):
        idents = []

        def run(index, size):
            idents.append(threading.get_ident())
            time.sleep(0.005)
            return self._frame(n=1.0)

        (sums,) = self._run(3, run)
        assert np.array_equal(sums["n"], np.ones(16))
        assert len(idents) == 16
        assert threading.get_ident() in idents

    def test_each_batch_runs_once_under_contention(self):
        """More threads than cores and a short switch interval: no batch is lost or run twice, and the
        per-frame values join in plan order."""
        seen = []

        def run(index, size):
            seen.append(index)
            return self._frame(n=float(index))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sums = self._run(8, run, trials=400)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == list(range(400))
        assert len(sums) == 1 and np.array_equal(sums[0]["n"], np.arange(400.0))

    def test_one_thread_starts_no_helper(self, monkeypatch):
        """At ``threads=1`` the caller runs every batch through the same drain loop; the pool gets no submit."""
        submitted = []

        class WatchedPool(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                submitted.append(fn)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(metrics, "ThreadPoolExecutor", WatchedPool)
        before, counts = threading.active_count(), []

        def run(index, size):
            counts.append(threading.active_count())
            return self._frame(n=1.0)

        (sums,) = self._run(1, run)
        assert np.array_equal(sums["n"], np.ones(16))
        assert submitted == []
        assert set(counts) == {before} and threading.active_count() == before

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("where", [0, 9])
    def test_nan_frame_value_survives_the_join(self, threads, where):
        """A NaN per-frame value keeps its frame's place in the joined array, whether it is in the first
        batch or a later one, so the caller's ``max`` reads NaN."""
        (sums,) = self._run(threads, lambda index, size: self._frame(r=math.nan if index == where else 0.5, n=1.0))
        assert np.array_equal(np.isnan(sums["r"]), np.arange(16) == where)
        assert math.isnan(sums["r"].max())
        assert np.array_equal(sums["n"], np.ones(16))

    @pytest.mark.parametrize("threads", [1, 3])
    def test_batch_error_stops_the_plan(self, threads):
        """Once a batch raises, no thread starts another: the threads already running finish theirs."""
        started = []

        def run(index, size):
            started.append(index)
            if index == 0:
                raise RuntimeError("batch 0 failed")
            time.sleep(0.02)
            return self._frame(n=1.0)

        with pytest.raises(RuntimeError, match="batch 0 failed"):
            self._run(threads, run)
        assert 0 in started and len(started) <= threads

    @pytest.mark.parametrize("threads", [1, 3])
    def test_batch_error_raises(self, threads):
        def run(index, size):
            if index == 5:
                raise RuntimeError("batch 5 failed")
            return self._frame(n=1.0)

        with pytest.raises(RuntimeError, match="batch 5 failed"):
            self._run(threads, run)
