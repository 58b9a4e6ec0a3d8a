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
from ofdm_isac.air import air_quadrature, row_logsumexp
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
# the dual, the iteration and its AIR quadrature run on the alphabet's
# symmetry orbits, and the penalty snr (chi - 1)^2 + |g|^2. To re-record, run
# this file as a script (PYTHONPATH=src python tests/test_row_logsumexp.py) and
# paste the dict it prints.
# Per (filter, budget fraction): sha256 of the probs bytes, air_bits,
# sha256 of repr(trace_rows), outer_iters.
PINNED_SOLVES = {
    ("wf", 0.2): ("d1e85a509fc382103aa391cf451c5121d328dc4e300a80dfb8df1513968263a8", 4.691743194847451,
                  "26a239e1e8fcd30b86f4a810bb8c95c10359bf33ece764087169a7a53f20aaed", 3),
    ("wf", 0.5): ("8bb785cc3c966721861e6b7c74400f7079416bef089b49e351163db92e91ac93", 5.073030879091986,
                  "0cbfae5367208d257d124ab1796db754733469f1bfaff25fae94878386f0915a", 2),
    ("wf", 0.8): ("8d3c2cd690ecb64e5ad64f213a8ef80fd956d0e7b152d548a9aab5bc80a4dfe2", 5.2000301131604445,
                  "0e57874b65f732962111c45ef5915bc4a255a950b13e6656b46ade91e168bc1e", 2),
    ("rf", 0.2): ("1fc74161547862a630a0b3cf65fb3424c9034ba9683f6c225837ea68853474b3", 5.048466049086006,
                  "b7b8128633be0db74fb03f96a4c389054a98f5febdff9d7171c6847cfafb9b32", 2),
    ("rf", 0.5): ("e4a161a104cb743368eb8da6204a4fe912e0325b214d220302b507475a2bef26", 5.186208816964971,
                  "ea4e937d47f72ff7bfbdf0bfc1b4a729123b40e275a1de70f5c1f82e56a9c598", 3),
    ("rf", 0.8): ("d0ccf9acad30bb3cfbd83ce8d2d0d9330e8ab7b7048395a326867e012a2e87c5", 5.217444035206479,
                  "905cf4d2832b6aca2b4c93a68fa26f6c50f5d8a7483b28ff4fda74294cd9d566", 2),
}
# The same solves' (air_bits, outer_iters) when the penalty was coded per filter
# kind, 1/|x|^2 for RF and 1/(|x|^2 + 1/snr) for WF: the same functions up to
# rounding, so the solves may differ only at rounding level.
PER_KIND_PENALTY_SOLVES = {
    ("wf", 0.2): (4.691743194847447, 3),
    ("wf", 0.5): (5.073030879091987, 2),
    ("wf", 0.8): (5.2000301131604445, 2),
    ("rf", 0.2): (5.048466049086006, 2),
    ("rf", 0.5): (5.186208816964971, 3),
    ("rf", 0.8): (5.21744403520648, 2),
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
# air_quadrature of 64-QAM with probabilities (i mod 7), zeros included, by comm
# noise variance; the 0.02 case spans three row blocks.
PINNED_QUADRATURE = {0.1: 3.1528833743940763, 0.02: 4.945604127373198}

SNR = 10.0**0.4
pinned_numpy = pytest.mark.skipif(not np.__version__.startswith("2.4."), reason="bits pinned under numpy 2.4")


@functools.cache
def _shaping_solve(filt, fraction):
    f = wiener(SNR) if filt == "wf" else RF
    dims = FrameDims(64, 32)
    lo, hi = c0_bounds(64, f, dims, 1.0, 1.0 / SNR)
    cfg = PcsConfig("qam", 64, f, dims, 1.0, 1.0 / SNR, 0.02, lo + fraction * (hi - lo))
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


@pinned_numpy
@pytest.mark.parametrize("filt, fraction", sorted(PER_KIND_PENALTY_SOLVES))
def test_shaping_solves_match_per_kind_penalty(filt, fraction):
    sol = _shaping_solve(filt, fraction)
    air_bits, iters = PER_KIND_PENALTY_SOLVES[filt, fraction]
    assert abs(sol.air_bits - air_bits) <= 1e-14
    assert sol.outer_iters == iters


@pytest.mark.parametrize("filt, fraction", sorted(BISECTION_AIR))
def test_shaping_solves_reach_bisection_air(filt, fraction):
    assert _shaping_solve(filt, fraction).air_bits >= BISECTION_AIR[filt, fraction] - 1e-12


@pytest.mark.parametrize("filt, fraction", sorted(FULL_ALPHABET_AIR))
def test_shaping_solves_reach_full_alphabet_air(filt, fraction):
    assert _shaping_solve(filt, fraction).air_bits >= FULL_ALPHABET_AIR[filt, fraction] - 1e-12


@pinned_numpy
@pytest.mark.parametrize("noise_var", sorted(PINNED_QUADRATURE))
def test_air_quadrature_pinned(noise_var):
    c = make_shaped("qam", 64, np.arange(64) % 7 + 0.0)
    assert air_quadrature(c, noise_var) == PINNED_QUADRATURE[noise_var]


if __name__ == "__main__":
    print("PINNED_SOLVES = {")
    for key in sorted(FULL_ALPHABET_AIR, key=lambda k: (k[0] != "wf", k[1])):
        probs_sha, air_bits, rows_sha, iters = _pins(_shaping_solve(*key))
        print(f'    ("{key[0]}", {key[1]!r}): ("{probs_sha}", {air_bits!r},\n                  "{rows_sha}", {iters}),')
    print("}")
