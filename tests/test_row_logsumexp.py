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


# Taken from the commit before the kernel replaced scipy's logsumexp on the
# solver path, under numpy 2.4 on x86-64: the benchmark's six shaping solves
# (64-QAM, 64x32, 4 dB, comm noise variance 0.02, default bank and tolerance).
# Per (filter, budget fraction): sha256 of the probs bytes, air_bits,
# sha256 of repr(trace_rows), outer_iters.
PINNED_SOLVES = {
    ("wf", 0.2): ("ccbe7a1118451d5f45242b2de8c9afa9481060dd8750180e10c92426f3526300", 4.688135269204704,
                  "fafbeec76ece1926fb765706fdf08c24fff41419ca479c17d3f4f9e45c74fc95", 3),
    ("wf", 0.5): ("6028b9bfca5dc2c0b99edf5f495221b318cbbd0c6c89e0298a8d6b88c95b1bc7", 5.0690839211798195,
                  "875857f354e20da516afb8098ed83d16361ee91abb62262895e5cbd002b5f6d9", 3),
    ("wf", 0.8): ("0b21503ec9fd9db361fd48930322645e144276b76c8fa1751cfa6a70c9fb18c3", 5.196671283990076,
                  "c5318e86f6f39082c66875d46cb0fe05e0bd936a2aba2a496c0c504d8e3e4e6c", 2),
    ("rf", 0.2): ("5e1ca8577394fdac1a40ac251c1f1e454a355ec655913f1fc4e7b175230977f4", 5.0447869467666075,
                  "670b0a9cc0df801668c92a3adc0ed88647b4dd2619be06f6e117f9a8f1b21ce4", 3),
    ("rf", 0.5): ("abe2cae041ae3d7a68cb2befb7adad3c035c438aed39ffb1f23a1506140330aa", 5.182042950758797,
                  "b94143bf0546e93915b74d4aeacc4755bef6696966ddec8e80089dc76010df9a", 3),
    ("rf", 0.8): ("daded68153bf77a68f59a59c40c413f63611bd939d9d2b61d5f8c2d5fa5f7291", 5.213336508256789,
                  "e8938371314425cb370bbf2da45c5a653d9b587193af17ffa52e8baf284b6441", 3),
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
