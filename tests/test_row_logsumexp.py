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
# the dual and the iteration and its AIR quadrature run on the alphabet's
# symmetry orbits. To re-record, run this file as a script
# (PYTHONPATH=src python tests/test_row_logsumexp.py) and paste the dict it prints.
# Per (filter, budget fraction): sha256 of the probs bytes, air_bits,
# sha256 of repr(trace_rows), outer_iters.
PINNED_SOLVES = {
    ("wf", 0.2): ("df5502af708a2c43e29a556f9a29073ee9028f7fd4c452a8ce12cdc9eb94f81d", 4.691743194847447,
                  "d3286930fafb69442942f3d5c4ceb9536b0a2edaec44b62d5290359b480788df", 3),
    ("wf", 0.5): ("c0261e569baf2ae69e067ec60722b1dfd3246635e06410a1e69b31a30cab7a24", 5.073030879091987,
                  "2c41d473be5aa514bc1d61e3a09646d4ee0926b4705ca4417acae4247e3a608d", 2),
    ("wf", 0.8): ("c7d4d7a6d438792df12d8a3ae6325ecc8d8985c2078f12945a7ae609ea0134f7", 5.2000301131604445,
                  "29c5a22d54afc585625547247e38835136426b9b956044f6480fe7a5d8558ed9", 2),
    ("rf", 0.2): ("7b66e86388b6c245aa21e463af9a4d41e835dc32f45064cb8324b99445f7bbd9", 5.048466049086006,
                  "787a2c12c5f304025a892864cdb78d6d1f9f709126423b5a3b83f0097435c5d4", 2),
    ("rf", 0.5): ("755d0e01b62d7ee31620206818d18a335352743865df1238331e0dfda1bbef47", 5.186208816964971,
                  "57d05452ab50afdf32bc9c2fcfa063fe8b4896059df34ab4e36140a1da859463", 3),
    ("rf", 0.8): ("25f4087921bf34515325634befd2fae2178ad187a59201dff366feb4b0ac3391", 5.21744403520648,
                  "21ade33289a2160b4a1ca88f032f3eea6484817a100afb41232406cc9204525b", 2),
}
# The same solves' air_bits when the iteration and its quadrature ran on every
# point of the alphabet; the orbit solve may differ from them only by rounding.
FULL_ALPHABET_AIR = {
    ("wf", 0.2): 4.69174319484745,
    ("wf", 0.5): 5.073030879091987,
    ("wf", 0.8): 5.200030113160443,
    ("rf", 0.2): 5.048466049086006,
    ("rf", 0.5): 5.186208816964971,
    ("rf", 0.8): 5.21744403520648,
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


def _pins(sol):
    return (hashlib.sha256(sol.probs.tobytes()).hexdigest(), sol.air_bits,
            hashlib.sha256(repr(sol.trace_rows).encode()).hexdigest(), sol.outer_iters)


@pinned_numpy
@pytest.mark.parametrize("filt, fraction", sorted(PINNED_SOLVES))
def test_shaping_solves_pinned(filt, fraction):
    sol = _shaping_solve(filt, fraction)
    assert sol.converged
    assert _pins(sol) == PINNED_SOLVES[filt, fraction]


@pytest.mark.parametrize("filt, fraction", sorted(BISECTION_AIR))
def test_shaping_solves_reach_bisection_air(filt, fraction):
    assert _shaping_solve(filt, fraction).air_bits >= BISECTION_AIR[filt, fraction] - 1e-12


@pytest.mark.parametrize("filt, fraction", sorted(FULL_ALPHABET_AIR))
def test_shaping_solves_reach_full_alphabet_air(filt, fraction):
    assert _shaping_solve(filt, fraction).air_bits >= FULL_ALPHABET_AIR[filt, fraction] - 1e-12


@pinned_numpy
@pytest.mark.parametrize("noise_var, gain", sorted(PINNED_QUADRATURE, key=lambda k: k[0]))
def test_air_quadrature_pinned(noise_var, gain):
    c = make_shaped("qam", 64, np.arange(64) % 7 + 0.0)
    assert air_quadrature(c, AirConfig(noise_var, gain)) == PINNED_QUADRATURE[noise_var, gain]


if __name__ == "__main__":
    print("PINNED_SOLVES = {")
    for key in sorted(FULL_ALPHABET_AIR, key=lambda k: (k[0] != "wf", k[1])):
        probs_sha, air_bits, rows_sha, iters = _pins(_shaping_solve(*key))
        print(f'    ("{key[0]}", {key[1]!r}): ("{probs_sha}", {air_bits!r},\n                  "{rows_sha}", {iters}),')
    print("}")
