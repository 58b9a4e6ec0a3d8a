"""The row-wise log-sum-exp kernel: scipy's bits, and the solver outputs it leaves unchanged."""

import functools
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
# 0.02, default tolerance), with the multipliers solved by Newton's method on
# the dual. To re-record, run each solve as test_shaping_solves_pinned does and
# print the four values.
# Per (filter, budget fraction): sha256 of the probs bytes, air_bits,
# sha256 of repr(trace_rows), outer_iters.
PINNED_SOLVES = {
    ("wf", 0.2): ("5c431953d8b327a8cb1a496d5a62d24bc758b409efd038283b269ba4e1ba355e", 4.69174319484745,
                  "940deb60fab99c8970463b910b94745acde07e8c354b0fedb6c1baf095e0e36a", 3),
    ("wf", 0.5): ("27b70a74486faf216b561d6aa488fbb2f635d0f3ab27d5c96b099c14d8e10da4", 5.073030879091987,
                  "8b88391a2065251f8850126122d8bfa1c0d54a66f31f3a3e101a52366a0ad1ef", 2),
    ("wf", 0.8): ("96c1cc756672a24b565988f6665268951743debc281e7c0bc9d34c42ffe47422", 5.200030113160443,
                  "e5d1e8e208e893ae7e2083c8113f0ed671b72a7838c4bc9b77e2963270ffc9d8", 2),
    ("rf", 0.2): ("4cc6f616c2c0f5eb0b199b56bc54b57ed713839d13afa098e8ce3ead82bf5a88", 5.048466049086006,
                  "a86db088cc277a9b9a6e0cfe77653f48b1b9a3fc1ae452ce0888b78475806b6d", 2),
    ("rf", 0.5): ("952444183e7d05095a2a88cab279ac38e47442355774136ec0aa72a84c0ce093", 5.186208816964971,
                  "72fc2ec582983cf62961264bf60ae03a0c6715b4d69bb3ef65b7776f76994ca8", 3),
    ("rf", 0.8): ("dca8cb7bb567339d40560f74bd09dc45a37172976e2bec370b417c1be836c823", 5.21744403520648,
                  "3dc3ff07ea75510c0fdcc07856c1465e7677aeaf8e491df20d110a1aa560e681", 2),
}
# The same solves' air_bits when the budget multiplier was bisected: the
# bisection stopped 3-8e-8 short of each active budget, so these are floors.
BISECTION_AIR = {
    ("wf", 0.2): 4.691742687242389,
    ("wf", 0.5): 5.073030749927425,
    ("wf", 0.8): 5.2000300313001535,
    ("rf", 0.2): 5.048466006080262,
    ("rf", 0.5): 5.1862088042815895,
    ("rf", 0.8): 5.217444031915401,
}
# air_quadrature of 64-QAM with probabilities (i mod 7), zeros included, at
# (comm noise variance, channel gain); the second spans three row blocks.
PINNED_QUADRATURE = {(0.1, 0.6 + 0.8j): 3.152883326969589, (0.02, 1.0 + 0.0j): 4.945604127373198}

SNR = 10.0**0.4
pinned_numpy = pytest.mark.skipif(not np.__version__.startswith("2.4."), reason="bits pinned under numpy 2.4")


@functools.cache
def _shaping_solve(filt, fraction):
    f = wiener(SNR) if filt == "wf" else RF
    dims = FrameDims(64, 32)
    lo, hi = c0_bounds(64, f, dims, 1.0, 1.0 / SNR)
    cfg = PcsConfig("qam", 64, f, dims, 1.0, 1.0 / SNR, AirConfig(0.02), lo + fraction * (hi - lo))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return mba_solve(cfg)


@pinned_numpy
@pytest.mark.parametrize("filt, fraction", sorted(PINNED_SOLVES))
def test_shaping_solves_pinned(filt, fraction):
    sol = _shaping_solve(filt, fraction)
    probs_sha, air_bits, rows_sha, iters = PINNED_SOLVES[filt, fraction]
    assert sol.converged
    assert sol.outer_iters == iters
    assert sol.air_bits == air_bits
    assert hashlib.sha256(sol.probs.tobytes()).hexdigest() == probs_sha
    assert hashlib.sha256(repr(sol.trace_rows).encode()).hexdigest() == rows_sha


@pytest.mark.parametrize("filt, fraction", sorted(BISECTION_AIR))
def test_shaping_solves_reach_bisection_air(filt, fraction):
    assert _shaping_solve(filt, fraction).air_bits >= BISECTION_AIR[filt, fraction] - 1e-12


@pinned_numpy
@pytest.mark.parametrize("noise_var, gain", sorted(PINNED_QUADRATURE, key=lambda k: k[0]))
def test_air_quadrature_pinned(noise_var, gain):
    c = make_shaped("qam", 64, np.arange(64) % 7 + 0.0)
    assert air_quadrature(c, AirConfig(noise_var, gain)) == PINNED_QUADRATURE[noise_var, gain]
