"""The row-wise log-sum-exp kernel: scipy's bits, and the solver outputs it leaves unchanged."""

import hashlib
import inspect
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from ofdm_isac import pcs
from ofdm_isac.air import AirConfig, air_quadrature, row_logsumexp
from ofdm_isac.channel import FrameDims
from ofdm_isac.constellation import make_shaped
from ofdm_isac.filtering import RF, wiener
from ofdm_isac.pcs import PcsConfig, c0_bounds, mba_solve


def _scipy_uses_log1p_form() -> bool:
    """True when scipy's logsumexp separates the row maxima and sums with log1p, as the kernel does."""
    try:
        from scipy.special import _logsumexp
        return "log1p" in inspect.getsource(_logsumexp)
    except (ImportError, OSError, TypeError):
        return False


SCIPY_LOG1P_FORM = _scipy_uses_log1p_form()


def _table(rows, cols, scale, shift, seed, integer, tied, equal):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols)) * scale + shift
    if integer:
        a = np.round(a)
    if tied and cols > 1:
        # copy each chosen row's maximum into up to three other cells
        for r in np.flatnonzero(rng.random(rows) < 0.5):
            cells = rng.choice(cols, size=min(3, cols - 1), replace=False)
            a[r, cells] = a[r].max()
    if equal:
        chosen = rng.random(rows) < 0.3
        a[chosen] = a[chosen, :1]
    return a


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 9000),
    cols=st.integers(1, 70),
    scale=st.floats(0.1, 300.0),
    shift=st.floats(-700.0, 50.0),
    seed=st.integers(0, 2**32 - 1),
    integer=st.booleans(),
    tied=st.booleans(),
    equal=st.booleans(),
)
@example(rows=1, cols=1, scale=0.1, shift=0.0, seed=0, integer=False, tied=False, equal=False)
@example(rows=9000, cols=70, scale=300.0, shift=-690.0, seed=1, integer=False, tied=True, equal=True)
@example(rows=64, cols=64, scale=3.0, shift=0.0, seed=2, integer=True, tied=True, equal=False)
def test_matches_scipy(rows, cols, scale, shift, seed, integer, tied, equal):
    a = _table(rows, cols, scale, shift, seed, integer, tied, equal)
    want = logsumexp(a, axis=1)
    a_max = a.max(axis=1)
    got = row_logsumexp(a.copy())
    assert got.shape == want.shape == (rows,)
    # a few ulps of the largest term summed, on any scipy release
    tol = 8 * np.finfo(float).eps * (1.0 + np.abs(a_max) + np.log(cols))
    assert np.all(np.abs(got - want) <= tol)
    if SCIPY_LOG1P_FORM:
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_solver_posterior_runs_the_kernel():
    # the benchmark's tracer wraps pcs.logsumexp as the solver's posterior step
    assert pcs.logsumexp is row_logsumexp


# Recorded on the 10x10 Gauss-Hermite bank under numpy 2.4 on x86-64: the
# benchmark's six shaping solves (64-QAM, 64x32, 4 dB, comm noise variance
# 0.02, default tolerance).
# Per (filter, budget fraction): sha256 of the probs bytes, air_bits,
# sha256 of repr(trace_rows), outer_iters.
PINNED_SOLVES = {
    ("wf", 0.2): ("a52a1f1dbe2e47274a0d6f473d80dc8fad1bfde7654c71c17e3f4ce5ea930806", 4.691742687242389,
                  "c8200a0d9ce6b1971c99e99d505ef67a004db7befedadeb801afce80b1a69dd1", 3),
    ("wf", 0.5): ("d0502061fa6a472520bef3d5c28ee984dfe19c1b769811773ff9c19e0694ba1e", 5.073030749927425,
                  "38a324bb53ed904fe2630b565d28e69d28ba77a93ada4530359dd2e9545591e3", 2),
    ("wf", 0.8): ("0ae5bace7b77e28a89da9f5befb85d5220c544adf60059f5ab90df8b991881da", 5.2000300313001535,
                  "011c432e4e29636ade5db0b5c4d52be7ce3d4256958c84e480e10f113361f1e8", 2),
    ("rf", 0.2): ("93b2f201bd9fc8404254b05a62abd341681e0be704844619e4d0bf8ba27a4242", 5.048466006080262,
                  "ce45648db873a369ecaaf5a8fec6b4a27daf9fe9065a47864b491cfb769b32e1", 2),
    ("rf", 0.5): ("e6d951e74e437d8c1bb967241993dee0a0fc29ae94021df47160c059c5c4dfcb", 5.1862088042815895,
                  "df0fad47fe4cae3bad9f3b96d807f7059258a75264b1c5960702d7cb5dbf2cbf", 3),
    ("rf", 0.8): ("7a97fe85fe8e489c49d669cbe9051f36ab17e621349f0eeaaba3c8bcbc4fc4b9", 5.217444031915401,
                  "c0f202876f3a0e4f6d1fea44e8dc6e8fc7c5346e60488c7725ff1e3af6deea7b", 2),
}
# air_quadrature of 64-QAM with probabilities (i mod 7), zeros included, at
# (comm noise variance, channel gain); the second spans three row blocks.
PINNED_QUADRATURE = {(0.1, 0.6 + 0.8j): 3.152883326969589, (0.02, 1.0 + 0.0j): 4.945604127373198}

SNR = 10.0**0.4
pinned_numpy = pytest.mark.skipif(not np.__version__.startswith("2.4."), reason="bits pinned under numpy 2.4")


@pinned_numpy
@pytest.mark.parametrize("filt, fraction", sorted(PINNED_SOLVES))
def test_shaping_solves_pinned(filt, fraction):
    f = wiener(SNR) if filt == "wf" else RF
    dims = FrameDims(64, 32)
    lo, hi = c0_bounds(64, f, dims, 1.0, 1.0 / SNR)
    cfg = PcsConfig("qam", 64, f, dims, 1.0, 1.0 / SNR, AirConfig(0.02), lo + fraction * (hi - lo))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = mba_solve(cfg)
    probs_sha, air_bits, rows_sha, iters = PINNED_SOLVES[filt, fraction]
    assert sol.converged
    assert sol.outer_iters == iters
    assert sol.air_bits == air_bits
    assert hashlib.sha256(sol.probs.tobytes()).hexdigest() == probs_sha
    assert hashlib.sha256(repr(sol.trace_rows).encode()).hexdigest() == rows_sha


@pinned_numpy
@pytest.mark.parametrize("noise_var, gain", sorted(PINNED_QUADRATURE, key=lambda k: k[0]))
def test_air_quadrature_pinned(noise_var, gain):
    c = make_shaped("qam", 64, np.arange(64) % 7 + 0.0)
    assert air_quadrature(c, AirConfig(noise_var, gain)) == PINNED_QUADRATURE[noise_var, gain]
