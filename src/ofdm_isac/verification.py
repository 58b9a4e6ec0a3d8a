"""Self-check suite behind the ``verify`` command.

Runs the per-realization identities (DD-domain MSE equivalence, ISLR
reformulation, Parseval), the Monte Carlo MSE relation, filter limit
behaviors, and the closed-form consistency checks, reporting one residual
per check against its pinned tolerance. The statistical MSE relation reads
every trial. The identities hold exactly per frame, so they read the first 256
trials (``DEFAULT_BATCH``), where each 64-QAM point shows thousands of times
at 64x32. The filter limits are per-point maps and read each point once.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .channel import FrameDims, Scene, Target
from .constellation import Family, chi_stats, make_uniform
from .filtering import MF, RF, FilterKind, point_gain, wiener
from .metrics import closed_form_metrics, crossover_snr_in, identity_checks


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def as_dict(self) -> dict:
        return {**asdict(self), "pass": bool(self.passed)}


def _enumerated_qam_moments(order: int) -> tuple[float, float]:
    """Independent odd-grid enumeration of E|x|^4 and E|x|^-2 (unit power)."""
    side = math.isqrt(order)
    levels = [2 * i - (side - 1) for i in range(side)]
    sq = [a * a + b * b for a in levels for b in levels]
    mean = sum(sq) / order
    fourth = sum(v * v for v in sq) / order / mean**2
    inv = sum(1.0 / v for v in sq) / order * mean
    return fourth, inv


def _filters(snr_in: float) -> tuple[FilterKind, ...]:
    return (MF, RF, wiener(snr_in))


def run_verification(
    dims: FrameDims = FrameDims(64, 32),
    order: int = 64,
    snr_in_db: float = 4.0,
    trials: int = 10_000,
    seed: int = 0,
    threads: int = 1,
) -> list[Check]:
    snr_in = 10.0 ** (snr_in_db / 10.0)
    gain_var = 1.0
    noise_var = gain_var / snr_in
    scene = Scene((Target(gain_var=gain_var, delay_bin=0.0, doppler_bin=0.0),), noise_var)
    qam = make_uniform(Family.QAM, order)
    psk = make_uniform(Family.PSK, order)
    checks: list[Check] = []

    # Monte Carlo identity residuals, all filters on one shared trial set
    filters = _filters(snr_in)
    for f, rep in zip(filters, identity_checks(qam, filters, dims, scene, trials, seed, threads=threads)):
        tag = f.kind.value
        checks.append(Check(f"dd_unitarity_{tag}", rep.dd_unitarity_max_rel, 1e-9))
        checks.append(Check(f"islr_identity_{tag}", rep.islr_identity_max_rel, 1e-10))
        checks.append(Check(f"parseval_{tag}", rep.parseval_max_rel, 1e-10))
        checks.append(Check(f"mse_relation_{tag}", rep.mse_relation_rel, 0.02))

    # RF response is delta-shaped per realization: if chi = x g lies within d of its alphabet mean, of modulus
    # m, on every point, Parseval bounds any frame's off-peak power over its peak by (d / (m - d))^2
    chi = qam.points * point_gain(qam.points, RF)
    m, d = abs(chi.mean()), float(np.abs(chi - chi.mean()).max())
    checks.append(Check("rf_delta_response", (d / (m - d)) ** 2 if d < m else math.inf, 1e-10))

    # WF -> MF at low SNR (filter gains, every point once), WF -> RF at high SNR (chi stats)
    g_wf = point_gain(qam.points, wiener(1e-6))
    g_mf = point_gain(qam.points, MF)
    low_gap = float(np.max(np.abs(g_wf - 1e-6 * g_mf) / np.abs(1e-6 * g_mf)))
    checks.append(Check("wf_low_snr_matches_mf", low_gap, 1e-4))
    s_wf = chi_stats(qam, wiener(1e6))
    s_rf = chi_stats(qam, RF)
    high_gap = max(
        abs(s_wf.mean_chi - s_rf.mean_chi),
        abs(s_wf.mean_gain_sq - s_rf.mean_gain_sq) / s_rf.mean_gain_sq,
    )
    checks.append(Check("wf_high_snr_matches_rf", high_gap, 1e-3))

    # closed-form invariants across the 9 (filter x constellation) combos
    nmse_res = 0.0
    chi_bound = 0.0
    var_res = 0.0
    for c in (make_uniform(Family.PSK, 4), make_uniform(Family.QAM, 16), qam):
        for f in _filters(snr_in):
            rep = closed_form_metrics(c, f, dims, gain_var, noise_var)
            s = chi_stats(c, f)
            nmse_res = max(nmse_res, abs(rep.nmse - dims.size**2 / rep.dr - (s.mean_chi - 1.0) ** 2 / s.mean_chi**2))
            chi_bound = max(chi_bound, s.mean_chi - 1.0)
            var_res = max(var_res, abs(s.var_chi - (s.mean_chi_sq - s.mean_chi**2)), -min(s.var_chi, 0.0))
    checks.append(Check("nmse_decomposition", nmse_res, 1e-12))
    checks.append(Check("chi_mean_upper_bound", chi_bound, 1e-12))
    checks.append(Check("chi_variance_identity", var_res, 1e-12))

    # PSK gives the same DR for all three filters at every sweep SNR
    psk_gap = 0.0
    for db in np.arange(-10.0, 30.5, 2.0):
        s = 10.0 ** (db / 10.0)
        drs = [closed_form_metrics(psk, f, dims, 1.0, 1.0 / s).dr for f in _filters(s)]
        psk_gap = max(psk_gap, (max(drs) - min(drs)) / min(drs))
    checks.append(Check("psk_dr_filter_equality", psk_gap, 1e-12))

    # analytic MF/RF crossover against an independent grid enumeration
    for q in (16, 64):
        fourth, inv = _enumerated_qam_moments(q)
        expected = (inv - 1.0) / (fourth - 1.0)
        got = crossover_snr_in(make_uniform(Family.QAM, q))
        checks.append(Check(f"crossover_{q}qam", abs(got - expected) / expected, 1e-9))

    return checks
