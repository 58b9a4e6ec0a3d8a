"""The shaping solver's working set: chunked likelihood tables with unchanged bits, bounded peaks."""

import tracemalloc

import numpy as np
import pytest

from ofdm_isac.air import LL_CHUNK_BYTES, AirConfig, air_quadrature, log_likelihood_table
from ofdm_isac.channel import FrameDims
from ofdm_isac.constellation import make_uniform
from ofdm_isac.filtering import wiener
from ofdm_isac.pcs import PcsConfig, c0_bounds, mba_solve

MIB = 1 << 20


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("n_centers", [16, 64])
@pytest.mark.parametrize("rows", ["one", "chunk-1", "chunk", "chunk+1", "bank"])
def test_table_equals_whole_array_expression(rows, n_centers):
    chunk = LL_CHUNK_BYTES // (16 * n_centers)
    n_rows = {"one": 1, "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1, "bank": 12_800}[rows]
    rng = np.random.default_rng(n_rows + n_centers)
    centers = (0.8 - 0.6j) * make_uniform("qam", n_centers).points
    y = rng.choice(centers, n_rows) + 0.3 * (rng.standard_normal(n_rows) + 1j * rng.standard_normal(n_rows))
    var = 0.02
    expected = np.abs(y[:, None] - centers) ** 2 / -var
    table = log_likelihood_table(y, centers, var)
    assert table.shape == expected.shape and table.dtype == expected.dtype
    assert table.tobytes() == expected.tobytes()


def test_wf_solve_peak_bounded():
    """The benchmark's WF 64-QAM solve: 29.4 MiB before chunking and early release, 14.1 after,
    10.1 on the 6,400-row Gauss-Hermite bank in place of 12,800 Monte Carlo rows (the quadrature's
    9.85 now sets the peak)."""
    snr = 10.0 ** 0.4
    dims = FrameDims(64, 32)
    filt = wiener(snr)
    lo, hi = c0_bounds(64, filt, dims, 1.0, 1.0 / snr)
    cfg = PcsConfig("qam", 64, filt, dims, 1.0, 1.0 / snr, AirConfig(0.02), lo + 0.5 * (hi - lo))
    sol, peak = _traced_peak(mba_solve, cfg)
    assert sol.converged
    assert peak < 11.5 * MIB, f"peak {peak / MIB:.2f} MiB"


def test_quadrature_peak_below_11_mib():
    """Uniform 64-QAM: 16.6 MiB with whole-block complex differences, 9.85 with chunks."""
    bits, peak = _traced_peak(air_quadrature, make_uniform("qam", 64), AirConfig(0.02))
    assert 5.0 < bits <= 6.0
    assert peak < 11 * MIB, f"peak {peak / MIB:.2f} MiB"
