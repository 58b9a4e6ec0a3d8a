"""Acceptance suite: every exit criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
Expected values marked as derived are computed here from independent oracles
(grid enumeration, direct quadrature, power-only BA) rather than taken from
the code under test.
"""

import json
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import logsumexp

from ofdm_isac.air import air_estimate
from ofdm_isac.channel import FrameDims, Scene, Target, complex_normal
from ofdm_isac.cli import main
from ofdm_isac.constellation import chi_stats, make_shaped, make_uniform
from ofdm_isac.detection import CfarConfig, cfar_thresholds, detection_probability
from ofdm_isac.filtering import MF, RF, wiener
from ofdm_isac.metrics import (
    closed_form_metrics,
    crossover_snr_in,
    empirical_dd_profile,
    empirical_metrics,
    far_region_mask,
    identity_checks,
)
from ofdm_isac.pcs import PcsConfig, c0_bounds, mba_solve

DIMS = FrameDims(64, 32)
SNR_4DB = 10.0**0.4
NOISE_4DB = 1.0 / SNR_4DB
SCENE_4DB = Scene((Target(1.0, 0.0, 0.0),), NOISE_4DB)
COMM_NOISE_VAR = 0.02


def check(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def qam_square_moduli(order):
    side = math.isqrt(order)
    levels = [2 * i - (side - 1) for i in range(side)]
    return [a * a + b * b for a in levels for b in levels]


def enumerate_qam_moments(order):
    sq = qam_square_moduli(order)
    mean = sum(sq) / order
    fourth = sum(v * v for v in sq) / order / mean**2
    inv = sum(mean / v for v in sq) / order
    return fourth, inv


def wf_pedestal_gain_bounds_db(order, snr):
    """Best WF far-region pedestal gain over the unit-power QAM grid, and the PSK limit.

    The pedestal Var(chi) + E|g|^2 / snr (gain variance 1) is linear in p minus
    (E chi)^2, so it is concave in p: its minimum over the simplex with
    E|x|^2 = 1 sits at a vertex, one shell at unit energy or two shells on
    either side of it. Every vertex is checked. Returns the gains in dB over
    the uniform grid of that minimum and of the constant-modulus point.
    """
    sq = qam_square_moduli(order)
    mean = sum(sq) // order  # 2 (order - 1) / 3, an integer

    def pedestal(weights, energies):
        chi = [r / (r + 1 / snr) for r in energies]
        gain_sq = [r / (r + 1 / snr) ** 2 for r in energies]
        mean_chi = sum(w * c for w, c in zip(weights, chi))
        var_chi = sum(w * c * c for w, c in zip(weights, chi)) - mean_chi**2
        return var_chi + sum(w * g for w, g in zip(weights, gain_sq)) / snr

    uniform = pedestal([1 / order] * order, [v / mean for v in sq])
    psk = pedestal([1.0], [1.0])
    shells = set(sq)
    vertices = [psk] if mean in shells else []
    for lo in (v for v in shells if v < mean):
        for hi in (v for v in shells if v > mean):
            w = (hi - mean) / (hi - lo)
            vertices.append(pedestal([w, 1 - w], [lo / mean, hi / mean]))
    return 10 * math.log10(uniform / min(vertices)), 10 * math.log10(uniform / psk)


def filters(snr):
    return [("mf", MF), ("rf", RF), ("wf", wiener(snr))]


def empirical_pedestal(c, f, trials, seed):
    mean_map = empirical_dd_profile(c, f, DIMS, SCENE_4DB, trials, seed)
    return float(mean_map[far_region_mask(DIMS, SCENE_4DB)].mean())


def ba_power_only(points, noise_var, l_y, bank_seed, iters=500, tol=1e-9):
    """Blahut-Arimoto with simplex + power constraints only (oracle)."""
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

        def residual(l2):
            a = t - l2 * energy
            w = np.exp(a - a.max())
            return float(w @ energy / w.sum()) - 1.0

        lo, hi = -1.0, 1.0
        while residual(hi) > 0:
            hi *= 2.0
        while residual(lo) < 0:
            lo *= 2.0
        a = t - brentq(residual, lo, hi, xtol=1e-13) * energy
        w = np.exp(a - a.max())
        p_next = w / w.sum()
        done = float(((p_next - p) ** 2).sum()) <= tol
        p = p_next
        if done:
            break
    return p


def test_criterion_01_mf_rf_crossover(tmp_path):
    analytic = crossover_snr_in(make_uniform("qam", 64))
    analytic_db = 10 * math.log10(analytic)
    ok = abs(analytic_db - 6.458) <= 1e-3
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"snr_db_start": 0.0, "snr_db_stop": 12.0, "snr_db_step": 0.05}))
    assert main(["dr-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = [
        line.split(",")
        for line in (tmp_path / "dr_sweep.csv").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("snr_in_db")
    ]
    dbs = np.array([float(r[0]) for r in rows])
    gap = np.array([float(r[2]) - float(r[3]) for r in rows])
    idx = int(np.flatnonzero(np.sign(gap[:-1]) != np.sign(gap[1:]))[0])
    crossing_db = dbs[idx] + (dbs[idx + 1] - dbs[idx]) * gap[idx] / (gap[idx] - gap[idx + 1])
    ok = ok and abs(crossing_db - analytic_db) <= 0.2
    check(
        "criterion 1 (64-QAM MF/RF crossover)",
        ok,
        f"analytic {analytic_db:.4f} dB, sweep crossing {crossing_db:.4f} dB",
    )


def test_criterion_02_16qam_crossover():
    fourth, inv = enumerate_qam_moments(16)
    oracle = (inv - 1.0) / (fourth - 1.0)
    got = crossover_snr_in(make_uniform("qam", 16))
    rel = abs(got - oracle) / oracle
    ok = rel <= 1e-9 and abs(10 * math.log10(oracle) - 4.437) <= 1e-3
    check(
        "criterion 2 (16-QAM crossover vs enumeration)",
        ok,
        f"oracle {10 * math.log10(oracle):.4f} dB, closed form matches to {rel:.1e}",
    )


def test_criterion_03_table_agreement():
    constellations = [("qpsk", make_uniform("psk", 4)), ("16qam", make_uniform("qam", 16)), ("64qam", make_uniform("qam", 64))]
    worst = {"mse": 0.0, "snr_out": 0.0, "islr": 0.0, "rf_islr": 0.0}
    for cname, c in constellations:
        for fname, f in filters(SNR_4DB):
            cf = closed_form_metrics(c, f, DIMS, 1.0, NOISE_4DB)
            em = empirical_metrics(c, f, DIMS, SCENE_4DB, trials=1000, seed=42)
            worst["mse"] = max(worst["mse"], abs(em.mse / cf.mse - 1.0))
            worst["snr_out"] = max(worst["snr_out"], abs(em.snr_out / cf.snr_out - 1.0))
            worst["islr"] = max(worst["islr"], abs(em.islr - cf.islr))
            if fname == "rf":
                worst["rf_islr"] = max(worst["rf_islr"], em.islr)
    ok = (
        worst["mse"] <= 0.05
        and worst["snr_out"] <= 0.05
        and worst["islr"] <= 0.02
        and worst["rf_islr"] <= 1e-9
    )
    check(
        "criterion 3 (Table agreement, 9 combos, 1e3 trials)",
        ok,
        f"worst rel mse {worst['mse']:.3%}, snr_out {worst['snr_out']:.3%}, "
        f"islr abs {worst['islr']:.4f}, rf islr {worst['rf_islr']:.1e}",
    )


def test_criterion_04_identity_suite():
    c = make_uniform("qam", 64)
    worst = {"dd": 0.0, "islr": 0.0, "mse": 0.0}
    for fname, f in filters(SNR_4DB):
        (rep,) = identity_checks(c, (f,), DIMS, SCENE_4DB, trials=10_000, seed=3)
        worst["dd"] = max(worst["dd"], rep.dd_unitarity_max_rel)
        worst["islr"] = max(worst["islr"], rep.islr_identity_max_rel)
        worst["mse"] = max(worst["mse"], rep.mse_relation_rel)
    ok = worst["dd"] < 1e-9 and worst["islr"] < 1e-10 and worst["mse"] < 0.02
    check(
        "criterion 4 (identity suite, 1e4 trials)",
        ok,
        f"DD-unitarity {worst['dd']:.1e}, ISLR identity {worst['islr']:.1e}, "
        f"MSE relation {worst['mse']:.3%}",
    )


def test_criterion_05_psk_dr_equality():
    c = make_uniform("psk", 64)
    worst = 0.0
    for db in np.arange(-10.0, 30.0 + 1e-9, 0.5):
        snr = 10.0 ** (db / 10.0)
        drs = [closed_form_metrics(c, f, DIMS, 1.0, 1.0 / snr).dr for _, f in filters(snr)]
        worst = max(worst, (max(drs) - min(drs)) / min(drs))
    check(
        "criterion 5 (PSK DR equal across filters)",
        worst <= 1e-12,
        f"worst relative spread {worst:.2e} over the -10..30 dB grid",
    )


def test_criterion_06_pedestal_scaling():
    c = make_uniform("qam", 64)
    psk = make_uniform("psk", 64)

    def rel_pedestal_db(rep):
        return -10 * math.log10(rep.dr + 1.0)  # pedestal relative to peak

    cf_gain = rel_pedestal_db(closed_form_metrics(c, MF, FrameDims(16, 16), 1.0, NOISE_4DB)) - rel_pedestal_db(
        closed_form_metrics(c, MF, FrameDims(64, 32), 1.0, NOISE_4DB)
    )
    scene_small = Scene((Target(1.0, 0.0, 0.0),), NOISE_4DB)
    small = empirical_dd_profile(c, MF, FrameDims(16, 16), scene_small, 2500, seed=17)
    large = empirical_dd_profile(c, MF, FrameDims(64, 32), scene_small, 2500, seed=18)
    emp_gain = 10 * math.log10(
        (large[0, 0] / large[far_region_mask(FrameDims(64, 32), scene_small)].mean())
        / (small[0, 0] / small[far_region_mask(FrameDims(16, 16), scene_small)].mean())
    )
    s_qam = chi_stats(c, MF)
    s_psk = chi_stats(psk, MF)
    psk_gap = 10 * math.log10(
        (s_qam.var_chi + NOISE_4DB * s_qam.mean_gain_sq) / (s_psk.var_chi + NOISE_4DB * s_psk.mean_gain_sq)
    )
    ok = abs(cf_gain - 9.0) <= 0.5 and abs(emp_gain - 9.0) <= 0.5 and abs(psk_gap - 3.0) <= 0.5
    check(
        "criterion 6 (pedestal scaling and PSK gap)",
        ok,
        f"closed-form 16x16->64x32 gain {cf_gain:.2f} dB, empirical {emp_gain:.2f} dB, "
        f"PSK-vs-QAM pedestal gap {psk_gap:.2f} dB",
    )


def test_criterion_07_snr_limits():
    c = make_uniform("qam", 64)
    snr_low = 10.0**-2.0
    low_gap = abs(
        10
        * math.log10(
            closed_form_metrics(c, wiener(snr_low), DIMS, 1.0, 1.0 / snr_low).dr
            / closed_form_metrics(c, MF, DIMS, 1.0, 1.0 / snr_low).dr
        )
    )
    snr_high = 10.0**3.0
    high_gap = abs(
        10
        * math.log10(
            closed_form_metrics(c, wiener(snr_high), DIMS, 1.0, 1.0 / snr_high).dr
            / closed_form_metrics(c, RF, DIMS, 1.0, 1.0 / snr_high).dr
        )
    )
    ok = low_gap <= 0.2 and high_gap <= 0.2
    check(
        "criterion 7 (WF limits)",
        ok,
        f"WF/MF gap {low_gap:.3f} dB at -20 dB, WF/RF gap {high_gap:.3f} dB at +30 dB",
    )


def test_criterion_08_mba_solver_properties():
    f = wiener(SNR_4DB)
    lo, hi = c0_bounds(64, f, DIMS, 1.0, NOISE_4DB)
    energy = np.abs(make_uniform("qam", 64).points) ** 2
    grid = np.linspace(lo, hi, 8)
    sols = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for c0 in grid:
            sols.append(
                mba_solve(
                    PcsConfig(
                        "qam", 64, f, DIMS, 1.0, NOISE_4DB, COMM_NOISE_VAR, float(c0),
                    )
                )
            )
    power_res = max(abs(float(s.probs @ energy) - 1.0) for s in sols)
    simplex_res = max(abs(float(s.probs.sum()) - 1.0) for s in sols)
    budget_ok = all(s.sensing_mse <= s.c0_effective * (1.0 + 1e-4) for s in sols)
    objectives = [[row[1] for row in s.trace_rows] for s in sols]
    trace_ok = all(np.diff(obj).min() >= -1e-3 for obj in objectives if len(obj) > 1)
    airs = [s.air_bits for s in sols]
    mses = [s.sensing_mse for s in sols]
    air_mono = all(b >= a - 5e-3 for a, b in zip(airs, airs[1:]))
    mse_mono = all(b >= a - 1e-9 for a, b in zip(mses, mses[1:]))
    oracle = ba_power_only(make_uniform("qam", 64).points, COMM_NOISE_VAR, 200, bank_seed=5)
    tv = 0.5 * float(np.abs(sols[-1].probs - oracle).sum())
    ok = (
        simplex_res <= 1e-10
        and power_res <= 1e-6
        and budget_ok
        and trace_ok
        and air_mono
        and mse_mono
        and tv <= 0.05
    )
    check(
        "criterion 8 (MBA solver properties, 8-point sweep)",
        ok,
        f"simplex {simplex_res:.1e}, power {power_res:.1e}, budgets ok={budget_ok}, "
        f"trace monotone={trace_ok}, AIR {airs[0]:.3f}->{airs[-1]:.3f} mono={air_mono}, "
        f"MSE mono={mse_mono}, TV vs BA oracle {tv:.4f}",
    )


def _pcs_pedestal_gain_db(f):
    lo, _ = c0_bounds(64, f, DIMS, 1.0, NOISE_4DB)
    # lo is the uniform-PSK MSE, below what the 64-QAM grid reaches: the solve
    # clamps it to the grid's floor and must still converge.
    with pytest.warns(UserWarning, match="clamped"):
        sol = mba_solve(
            PcsConfig(
                "qam", 64, f, DIMS, 1.0, NOISE_4DB, COMM_NOISE_VAR, lo,
            )
        )
    assert sol.converged, f"mba_solve stopped after {sol.outer_iters} iterations"
    shaped = make_shaped("qam", 64, sol.probs)
    ped_uniform = empirical_pedestal(make_uniform("qam", 64), f, trials=800, seed=23)
    ped_shaped = empirical_pedestal(shaped, f, trials=800, seed=24)
    return 10 * math.log10(ped_uniform / ped_shaped)


def test_criterion_09a_pcs_pedestal_gain_rf():
    gain = _pcs_pedestal_gain_db(RF)
    check(
        "criterion 9a (RF shaping pedestal gain at 4 dB)",
        gain >= 2.0,
        f"empirical far-region pedestal gain {gain:.2f} dB (required >= 2)",
    )


def test_criterion_09b_pcs_pedestal_gain_wf():
    # At 4 dB input SNR the filtered-noise term dominates the WF pedestal and
    # barely depends on the input distribution. The pedestal is concave in p,
    # so its minimum over the unit-power 64-QAM grid is at a one- or two-shell
    # vertex; enumerating them bounds the gain at ~0.49 dB (the constant-modulus
    # limit, which the grid cannot reach, is ~0.54 dB). Shaping at the tightest
    # budget must reach that bound, within the 800-trial estimate's spread
    # (about 0.03-0.04 dB s.d. over seed pairs).
    bound, psk_limit = wf_pedestal_gain_bounds_db(64, SNR_4DB)
    gain = _pcs_pedestal_gain_db(wiener(SNR_4DB))
    ok = bound < 2.0 and abs(bound - 0.494) <= 1e-3 and abs(gain - bound) <= 0.12
    check(
        "criterion 9b (WF shaping pedestal gain at 4 dB)",
        ok,
        f"empirical far-region pedestal gain {gain:.3f} dB vs 64-QAM grid optimum "
        f"{bound:.3f} dB (required within 0.12), 64-PSK limit {psk_limit:.3f} dB",
    )


def test_criterion_10_air_estimator():
    ceiling = air_estimate(make_uniform("qam", 64), 1e-6, samples=200_000, seed=0)
    bpsk = air_estimate(make_uniform("psk", 2), 2.0, samples=300_000, seed=0)
    t, w = np.polynomial.hermite.hermgauss(127)
    y = 1.0 + math.sqrt(2.0) * t
    p_y = 0.5 * (np.exp(-((y - 1.0) ** 2) / 2) + np.exp(-((y + 1.0) ** 2) / 2)) / math.sqrt(2 * math.pi)
    oracle = -np.sum(w / math.sqrt(math.pi) * np.log(p_y)) / math.log(2) - 0.5 * math.log2(
        2 * math.pi * math.e
    )
    ok = abs(ceiling - 6.0) <= 0.01 and abs(bpsk - oracle) <= 0.01 and abs(oracle - 0.486) <= 1e-3
    check(
        "criterion 10 (AIR estimator)",
        ok,
        f"64-QAM ceiling {ceiling:.4f} bits, BPSK {bpsk:.4f} vs oracle {oracle:.4f} bits",
    )


def test_criterion_11_cfar():
    rng = np.random.default_rng(12)
    cells = rng.exponential(1.0, 10_000_000)
    pfa = 1e-3
    detections = np.flatnonzero(cells > cfar_thresholds(cells, CfarConfig(2, 16, pfa)))
    rate = detections.size / cells.size
    rate_ok = pfa / 2.0 <= rate <= pfa * 2.0
    pds = []
    for db in (-25.0, -15.0, -5.0):
        scene = Scene(
            (Target(1.0, 0.0, 0.0), Target(10.0 ** (db / 10.0), 5.0, 0.0)), NOISE_4DB
        )
        pds.extend(
            detection_probability(
                DIMS, scene, (make_uniform("qam", 64),), MF, CfarConfig(2, 16, 1e-3), 800, seed=6
            )
        )
    mono_ok = pds[0] < pds[1] < pds[2]
    check(
        "criterion 11 (CFAR calibration and monotonicity)",
        rate_ok and mono_ok,
        f"empirical pfa {rate:.2e} (target {pfa:.0e}), Pd {pds[0]:.3f} < {pds[1]:.3f} < {pds[2]:.3f}",
    )
