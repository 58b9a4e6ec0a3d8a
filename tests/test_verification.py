"""The ``verify`` suite fails when it should: each injected fault breaks the check that covers it."""

import numpy as np

from ofdm_isac import filtering, metrics, verification
from ofdm_isac.channel import FrameDims
from ofdm_isac.filtering import MF, FilterType
from ofdm_isac.verification import run_verification

CHECKS = [
    *(f"{check}_{tag}" for tag in ("mf", "rf", "wf")
      for check in ("dd_unitarity", "islr_identity", "parseval", "mse_relation")),
    "rf_delta_response", "wf_low_snr_matches_mf", "wf_high_snr_matches_rf", "nmse_decomposition",
    "chi_mean_upper_bound", "chi_variance_identity", "psk_dr_filter_equality", "crossover_16qam", "crossover_64qam",
]


def _failed():
    checks = run_verification(dims=FrameDims(16, 16), trials=1024, seed=3)
    assert [c.name for c in checks] == CHECKS
    return {c.name for c in checks if not c.passed}


def test_reduced_verify_passes():
    assert _failed() == set()


def test_scaled_dd_transform_fails_unitarity(monkeypatch):
    exact = filtering.dd_transform
    monkeypatch.setattr(metrics, "dd_transform", lambda a: exact(a) * (1.0 + 1e-6))
    failed = _failed()
    assert {"dd_unitarity_mf", "dd_unitarity_rf", "dd_unitarity_wf"} <= failed
    assert not any(name.startswith("mse_relation") for name in failed)  # the MSE relation reads no transform


def test_rf_gain_replaced_by_mf_fails_delta_response(monkeypatch):
    exact = filtering.point_gain

    def faulty(x, f):
        return exact(x, MF if f.kind is FilterType.RF else f)

    for module in (filtering, metrics, verification):
        monkeypatch.setattr(module, "point_gain", faulty)
    assert {"rf_delta_response", "mse_relation_rf"} <= _failed()  # the chain's chi stays point_chi's ones


def test_wf_gain_overregularized_fails_mse_relation(monkeypatch):
    exact = filtering.point_gain

    def faulty(x, f):
        if f.kind is not FilterType.WF:
            return exact(x, f)
        return np.conj(x) / (np.abs(x) ** 2 + 2.0 / f.snr_in)

    for module in (filtering, metrics, verification):
        monkeypatch.setattr(module, "point_gain", faulty)
    assert "mse_relation_wf" in _failed()

