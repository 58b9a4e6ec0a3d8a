"""Shaping solver: penalties, budget bounds, constraint satisfaction, BA oracle."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import logsumexp

from ofdm_isac import pcs
from ofdm_isac.air import air_quadrature, symmetry_orbits
from ofdm_isac.channel import FrameDims, complex_normal
from ofdm_isac.constellation import make_shaped, make_uniform, moment_abs_pow
from ofdm_isac.filtering import MF, RF, wiener
from ofdm_isac.metrics import closed_form_metrics
from ofdm_isac.pcs import (
    PcsConfig,
    PcsSolution,
    SolverError,
    c0_bounds,
    mba_solve,
    min_penalty_on_simplex,
    penalty_f,
    tradeoff_sweep,
)

DIMS = FrameDims(64, 32)
SNR = 10.0**0.4
NOISE = 1.0 / SNR
COMM_NOISE_VAR = 0.02


def quick_cfg(filt, c0, **kw):
    defaults = dict(
        family="qam",
        order=64,
        filt=filt,
        dims=DIMS,
        gain_var=1.0,
        noise_var=NOISE,
        comm_noise_var=COMM_NOISE_VAR,
        c0=c0,
    )
    defaults.update(kw)
    return PcsConfig(**defaults)


def ba_power_only(points, noise_var, l_y, bank_seed, iters=500, tol=1e-9):
    """Independent Blahut-Arimoto oracle with only simplex + power constraints."""
    q = len(points)
    rng = np.random.default_rng(bank_seed)
    y = points[:, None] + complex_normal(rng, noise_var, (q, l_y))
    ll = (-(np.abs(y[:, :, None] - points[None, None, :]) ** 2) / noise_var).reshape(q * l_y, q)
    own = np.repeat(np.arange(q), l_y)
    own_ll = ll[np.arange(q * l_y), own]
    energy = np.abs(points) ** 2
    p = np.full(q, 1.0 / q)
    for _ in range(iters):
        logp = np.log(np.clip(p, 1e-300, None))
        lse = logsumexp(ll + logp[None, :], axis=1)
        t = (logp[own] + own_ll - lse).reshape(q, l_y).mean(axis=1)

        def power_residual(l2):
            a = t - l2 * energy
            w = np.exp(a - a.max())
            return float(w @ energy / w.sum()) - 1.0

        lo, hi = -1.0, 1.0
        while power_residual(hi) > 0:
            hi *= 2.0
        while power_residual(lo) < 0:
            lo *= 2.0
        l2 = brentq(power_residual, lo, hi, xtol=1e-13)
        a = t - l2 * energy
        w = np.exp(a - a.max())
        p_next = w / w.sum()
        done = float(((p_next - p) ** 2).sum()) <= tol
        p = p_next
        if done:
            break
    return p


def _softmax(a):
    w = np.exp(a - a.max())
    return w / w.sum()


def _power_multiplier(t, energy):
    """The l2 at which exp(t - l2 |x|^2) has unit power, by an independent bracketed root."""
    if np.ptp(energy) < 1e-12:
        return 0.0

    def resid(l2):
        return float(_softmax(t - l2 * energy) @ energy) - 1.0

    return brentq(resid, -64.0, 64.0, xtol=1e-14)


class TestPenalty:
    def test_mf_unit_modulus(self):
        assert penalty_f(np.array([1.0 + 0j]), MF, 3.7)[0] == pytest.approx(1.0)

    def test_rf_half(self):
        assert penalty_f(np.array([math.sqrt(2.0) + 0j]), RF, 1.0)[0] == pytest.approx(0.5)

    def test_wf_half(self):
        assert penalty_f(np.array([1.0 + 0j]), wiener(1.0), 1.0)[0] == pytest.approx(0.5)

    def test_expected_penalty_reproduces_mse(self):
        # scaled alphabet average equals the closed-form MSE for each filter and law, WF off the scene SNR too
        for c in (make_uniform("qam", 64), make_shaped("qam", 64, np.arange(64) % 5 + 1.0)):
            for f in (MF, RF, wiener(SNR), wiener(4 * SNR), wiener(SNR / 10)):
                val = float(c.probs @ penalty_f(c.points, f, SNR)) * DIMS.size * NOISE
                assert val == pytest.approx(closed_form_metrics(c, f, DIMS, 1.0, NOISE).mse, rel=1e-12)

    def test_mf_penalty_against_the_unit_power_form(self):
        # the exact MF penalty departs from snr (|x|^4 - 1) + 1 by a term of zero mean at unit power
        points = make_uniform("qam", 64).points
        sq = np.abs(points) ** 2
        unit_power_form = SNR * (sq**2 - 1.0) + 1.0
        np.testing.assert_allclose(penalty_f(points, MF, SNR) - unit_power_form, (1.0 - 2.0 * SNR) * (sq - 1.0),
                                   rtol=0.0, atol=1e-12)


class TestBudgetBounds:
    def test_mf_psk_floor(self):
        lo, _ = c0_bounds(64, MF, DIMS, 1.0, NOISE)
        assert lo == pytest.approx(DIMS.size * NOISE, rel=1e-12)

    def test_mf_qam_ceiling(self):
        _, hi = c0_bounds(64, MF, DIMS, 1.0, NOISE)
        assert hi == pytest.approx(DIMS.size * (0.380952381 + NOISE), rel=1e-8)

    def test_rf_bounds(self):
        lo, hi = c0_bounds(64, RF, DIMS, 1.0, NOISE)
        assert lo == pytest.approx(DIMS.size * NOISE, rel=1e-12)
        assert hi == pytest.approx(DIMS.size * NOISE * 2.685417, rel=1e-6)

    def test_min_penalty_above_psk_floor(self):
        # no unit-modulus shell with unit mean power exists on the 64-QAM grid
        c = make_uniform("qam", 64)
        energy = np.abs(c.points) ** 2
        val, probs = min_penalty_on_simplex(penalty_f(c.points, RF, SNR), energy)
        assert val > 1.0
        assert val == pytest.approx(1.0377, abs=1e-3)
        assert float(probs @ energy) == pytest.approx(1.0, abs=1e-12)
        assert np.count_nonzero(probs) <= 2

    def test_min_penalty_uses_exact_shell_when_present(self):
        # 16-QAM has a shell exactly at unit power
        c = make_uniform("qam", 16)
        energy = np.abs(c.points) ** 2
        val, _ = min_penalty_on_simplex(penalty_f(c.points, RF, SNR), energy)
        assert val == pytest.approx(1.0, rel=1e-12)


class TestSolver:
    def test_psk_alphabet_returns_uniform(self):
        for filt in (MF, RF, wiener(SNR)):
            _, hi = c0_bounds(8, filt, DIMS, 1.0, NOISE, family="psk")
            sol = mba_solve(quick_cfg(filt, hi, family="psk", order=8))
            tv = 0.5 * float(np.abs(sol.codebook.probs - 1.0 / 8).sum())
            assert tv < 0.03
            assert sol.trace_rows[-1][4] == 0.0

    @pytest.mark.parametrize(
        "filt, fraction, family, order",
        [pytest.param(wiener(SNR), fr, "qam", 64, id=str(fr)) for fr in (0.0, 0.2, 0.3, 0.5, 0.8, 1.0)]
        + [pytest.param(f, fr, "qam", 64, id=f"{name}-{fr}")
           for name, f in (("rf", RF), ("mf", MF)) for fr in (0.0, 0.2, 0.5, 0.8)]
        + [pytest.param(wiener(SNR), 1.0, "psk", 8, id="psk8")],
    )
    def test_constraints_satisfied(self, monkeypatch, filt, fraction, family, order):
        """The solution meets its constraints, and the last multiplier step its KKT conditions on the orbits."""
        update, steps = pcs._constrained_update, []

        def recording(*args):
            steps.append((args, update(*args)))
            return steps[-1][1]

        monkeypatch.setattr(pcs, "_constrained_update", recording)
        lo, hi = c0_bounds(order, filt, DIMS, 1.0, NOISE, family=family)
        c0 = lo + fraction * (hi - lo)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = mba_solve(quick_cfg(filt, c0, family=family, order=order))
        points = make_uniform(family, order).points
        energy = np.abs(points) ** 2
        assert abs(float(sol.codebook.probs.sum()) - 1.0) < 1e-10
        assert np.all(sol.codebook.probs >= 0)
        assert abs(float(sol.codebook.probs @ energy) - 1.0) <= 1e-12
        assert sol.sensing_mse <= sol.c0_effective * (1.0 + 1e-12)
        if sol.trace_rows[-1][4] > 0:
            assert abs(sol.sensing_mse / sol.c0_effective - 1.0) <= 1e-12
        # the update runs on the orbit masses P(O), with t + log|O| and each representative's features
        reps, sizes, orbit_of = symmetry_orbits(points)
        (t_orbit, fpen, energy_rep, budget_norm), (mass, l1, l2) = steps[-1]
        np.testing.assert_array_equal(fpen, penalty_f(points[reps], filt, SNR))
        np.testing.assert_array_equal(energy_rep, energy[reps])
        assert (l1, l2) == sol.trace_rows[-1][4:6]
        np.testing.assert_array_equal(sol.codebook.probs, make_shaped(family, order, (mass / sizes)[orbit_of]).probs)
        # complementary slackness: l1 = 0 exactly when the power-only law meets the budget
        power_only = _softmax(t_orbit - _power_multiplier(t_orbit, energy_rep) * energy_rep)
        assert (l1 == 0.0) == (float(power_only @ fpen) <= budget_norm * (1.0 + 1e-12))
        np.testing.assert_allclose(mass, _softmax(t_orbit - l1 * fpen - l2 * energy_rep), rtol=1e-12, atol=0.0)

    def test_mf_solve_matches_the_unit_power_penalty(self, monkeypatch):
        """MF's exact penalty and snr (|x|^4 - 1) + 1 differ by (1 - 2 snr)(|x|^2 - 1), zero in mean at unit
        power: the law is the same, and only l2 moves, by -l1 (1 - 2 snr)."""
        lo, hi = c0_bounds(64, MF, DIMS, 1.0, NOISE)
        cfg = quick_cfg(MF, lo + 0.5 * (hi - lo))
        exact = mba_solve(cfg)
        monkeypatch.setattr(pcs, "penalty_f", lambda points, f, snr: snr * (np.abs(points) ** 4 - 1.0) + 1.0)
        unit_power = mba_solve(cfg)
        (l1, l2), (unit_l1, unit_l2) = exact.trace_rows[-1][4:6], unit_power.trace_rows[-1][4:6]
        assert l1 > 0 and exact.outer_iters == unit_power.outer_iters
        np.testing.assert_allclose(exact.codebook.probs, unit_power.codebook.probs, rtol=0.0, atol=1e-15)
        assert abs(exact.air_bits - unit_power.air_bits) <= 1e-14
        assert l1 == pytest.approx(unit_l1, rel=1e-12)
        assert l2 == pytest.approx(unit_l2 - unit_l1 * (1.0 - 2.0 * SNR), abs=1e-12)

    def test_multiplier_step_at_the_alphabet_floor(self):
        """A budget just above the LP floor is met with equality; one below it raises with diagnostics."""
        points = make_uniform("qam", 64).points
        energy, fpen = np.abs(points) ** 2, penalty_f(points, RF, SNR)
        floor, _ = min_penalty_on_simplex(fpen, energy)
        p, l1, _ = pcs._constrained_update(np.zeros(64), fpen, energy, floor * (1.0 + 1e-7))
        assert l1 > 0 and float(p @ fpen) == pytest.approx(floor * (1.0 + 1e-7), rel=1e-12)
        with pytest.raises(SolverError) as exc:
            pcs._constrained_update(np.zeros(64), fpen, energy, 0.999 * floor)
        assert len(exc.value.diagnostics["lambda"]) == len(exc.value.diagnostics["gap"]) == 2

    def test_objective_trace_monotone(self):
        f = RF
        lo, hi = c0_bounds(64, f, DIMS, 1.0, NOISE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = mba_solve(quick_cfg(f, lo, tol=1e-9, max_outer_iters=80))
        diffs = np.diff([row[1] for row in sol.trace_rows])
        assert diffs.min() >= -1e-3

    def test_loose_budget_matches_power_only_ba(self):
        f = MF
        _, hi = c0_bounds(64, f, DIMS, 1.0, NOISE)
        sol = mba_solve(quick_cfg(f, hi, tol=1e-9, max_outer_iters=400))
        oracle = ba_power_only(
            make_uniform("qam", 64).points, COMM_NOISE_VAR, 200, bank_seed=5
        )
        tv = 0.5 * float(np.abs(sol.codebook.probs - oracle).sum())
        assert tv <= 0.05

    @pytest.mark.parametrize("filt", [wiener(SNR), RF], ids=["wf", "rf"])
    def test_loosest_budget_reaches_uniform_air(self, filt):
        """Uniform 64-QAM meets the loosest budget, so the solved AIR may not fall below its AIR."""
        _, hi = c0_bounds(64, filt, DIMS, 1.0, NOISE)
        sol = mba_solve(quick_cfg(filt, hi))
        assert sol.air_bits >= air_quadrature(make_uniform("qam", 64), COMM_NOISE_VAR)

    def test_tight_rf_budget_concentrates_near_unit_modulus(self):
        f = RF
        lo, hi = c0_bounds(64, f, DIMS, 1.0, NOISE)
        with pytest.warns(UserWarning, match="clamped"):
            sol = mba_solve(quick_cfg(f, lo + 0.01 * (hi - lo)))
        assert moment_abs_pow(sol.codebook, -2.0) <= 1.05
        energy = np.abs(make_uniform("qam", 64).points) ** 2
        near_ring = np.abs(energy - 1.0) < 0.25
        assert float(sol.codebook.probs[near_ring].sum()) > 0.95

    def test_budget_above_ceiling_clamped(self):
        f = RF
        _, hi = c0_bounds(64, f, DIMS, 1.0, NOISE)
        with pytest.warns(UserWarning, match="clamped"):
            sol = mba_solve(quick_cfg(f, hi * 10))
        assert sol.c0_effective == pytest.approx(hi)

    @pytest.mark.parametrize("filt", [RF], ids=["clamp"])
    @pytest.mark.parametrize("entry", ["mba_solve", "tradeoff_sweep"])
    def test_warning_names_the_caller(self, filt, entry):
        """A warning points at the first frame outside the package, not at the solver's own lines."""
        lo, hi = c0_bounds(64, filt, DIMS, 1.0, NOISE)
        cfg = quick_cfg(filt, lo + 0.01 * (hi - lo), max_outer_iters=3)
        with pytest.warns(UserWarning, match="clamped") as record:
            mba_solve(cfg) if entry == "mba_solve" else tradeoff_sweep(cfg, [cfg.c0])
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("filt", [wiener(4 * SNR), wiener(SNR / 10)], ids=["4snr", "snr/10"])
    def test_mismatched_wf_solve_meets_its_budget(self, filt):
        """A WF off the scene SNR: the reported MSE is its law's closed-form MSE, within the budget."""
        lo, hi = c0_bounds(64, filt, DIMS, 1.0, NOISE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = mba_solve(quick_cfg(filt, lo + 0.5 * (hi - lo)))
        law_mse = closed_form_metrics(sol.codebook, filt, DIMS, 1.0, NOISE).mse
        assert sol.sensing_mse == pytest.approx(law_mse, rel=1e-12)
        assert sol.sensing_mse <= sol.c0_effective * (1.0 + 1e-12)

    def test_air_is_quadrature_of_solution(self):
        f = RF
        lo, hi = c0_bounds(64, f, DIMS, 1.0, NOISE)
        cfg = quick_cfg(f, lo + 0.5 * (hi - lo))
        sol = mba_solve(cfg)
        assert sol.air_bits == air_quadrature(sol.codebook, COMM_NOISE_VAR)

    def test_trace_rows_schema(self):
        f = MF
        _, hi = c0_bounds(64, f, DIMS, 1.0, NOISE)
        sol = mba_solve(quick_cfg(f, hi, max_outer_iters=5, tol=1e-12))
        row = sol.trace_rows[0]
        assert len(row) == 6
        assert row[0] == 1


class TestSweep:
    def test_monotone_air_and_mse(self):
        f = wiener(SNR)
        lo, hi = c0_bounds(64, f, DIMS, 1.0, NOISE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sweep = tradeoff_sweep(quick_cfg(f, hi), np.linspace(lo, hi, 5))
        assert all(isinstance(sol, PcsSolution) for _, sol in sweep)
        airs = [sol.air_bits for _, sol in sweep]
        mses = [sol.sensing_mse for _, sol in sweep]
        assert all(b >= a - 5e-3 for a, b in zip(airs, airs[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(mses, mses[1:]))
        assert airs[0] <= airs[-1]

    def test_points_carry_convergence(self):
        f = RF
        lo, hi = c0_bounds(64, f, DIMS, 1.0, NOISE)
        grid = [lo + 0.5 * (hi - lo), hi]
        done = tradeoff_sweep(quick_cfg(f, hi), grid)
        assert all(sol.converged and sol.outer_iters > 1 for _, sol in done)
        cut = tradeoff_sweep(quick_cfg(f, hi, max_outer_iters=1), grid)
        assert all(isinstance(sol, PcsSolution) and not sol.converged and sol.outer_iters == 1 for _, sol in cut)

    def test_output_sorted_by_budget(self):
        f = RF
        lo, hi = c0_bounds(64, f, DIMS, 1.0, NOISE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sweep = tradeoff_sweep(quick_cfg(f, hi), [hi, lo + 0.5 * (hi - lo)])
        assert sweep[0][0] < sweep[1][0]

    def test_solver_error_paired_with_its_budget(self, monkeypatch):
        """A budget whose solve raises SolverError keeps its place; the other budgets are still solved."""
        solve = pcs.mba_solve

        def failing_middle(cfg):
            if cfg.c0 == 2.0:
                raise SolverError("stuck", {"gap": [1.0]})
            return solve(cfg)

        monkeypatch.setattr(pcs, "mba_solve", failing_middle)
        _, hi = c0_bounds(64, MF, DIMS, 1.0, NOISE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sweep = tradeoff_sweep(quick_cfg(MF, hi, max_outer_iters=2), [3.0, hi, 2.0])
        assert [c0 for c0, _ in sweep] == [2.0, 3.0, hi]
        assert isinstance(sweep[0][1], SolverError) and sweep[0][1].diagnostics == {"gap": [1.0]}
        assert all(isinstance(sol, PcsSolution) for _, sol in sweep[1:])

    def test_linalg_error_is_a_solver_error(self, monkeypatch):
        """A multiplier step whose least-squares solve fails raises SolverError with the iterate's
        multipliers and gap; the sweep records it for that budget and solves the others."""
        lstsq, solve, broken = np.linalg.lstsq, pcs.mba_solve, [True]

        def failing_lstsq(*args, **kwargs):
            if broken[0]:
                raise np.linalg.LinAlgError("SVD did not converge")
            return lstsq(*args, **kwargs)

        def solve_breaking_middle(cfg):
            broken[0] = cfg.c0 == 2.0
            return solve(cfg)

        monkeypatch.setattr(np.linalg, "lstsq", failing_lstsq)
        _, hi = c0_bounds(64, MF, DIMS, 1.0, NOISE)
        with pytest.raises(SolverError, match="SVD did not converge") as exc:
            mba_solve(quick_cfg(MF, hi))
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)
        assert set(exc.value.diagnostics) == {"lambda", "gap"}

        monkeypatch.setattr(pcs, "mba_solve", solve_breaking_middle)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sweep = tradeoff_sweep(quick_cfg(MF, hi, max_outer_iters=2), [3.0, hi, 2.0])
        assert [c0 for c0, _ in sweep] == [2.0, 3.0, hi]
        assert isinstance(sweep[0][1], SolverError) and "SVD did not converge" in str(sweep[0][1])
        assert all(isinstance(sol, PcsSolution) for _, sol in sweep[1:])

    def test_nan_budget_raises_before_any_solve(self, monkeypatch):
        def no_solve(cfg):
            raise AssertionError("solved a budget of a grid holding nan")

        monkeypatch.setattr(pcs, "mba_solve", no_solve)
        with pytest.raises(ValueError, match="c0"):
            tradeoff_sweep(quick_cfg(MF, 1.0), [1.0, math.nan])
