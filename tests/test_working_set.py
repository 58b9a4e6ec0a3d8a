"""Working sets with unchanged bits and bounded peaks: the shaping solver's chunked likelihood
tables, and the frame kernel's draw streamed block by block."""

import tracemalloc

import numpy as np
import pytest

from ofdm_isac.air import LL_CHUNK_BYTES, air_estimate, air_quadrature, log_likelihood_table
from ofdm_isac.channel import FrameDims, Scene, Target
from ofdm_isac.constellation import make_shaped, make_uniform
from ofdm_isac.detection import CfarConfig, default_tradeoff_scene, detection_probability
from ofdm_isac.filtering import MF, RF, wiener
from ofdm_isac.metrics import empirical_dd_profile, identity_checks
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
    9.85 then set the peak), 3.35 on the 1,000-row orbit bank with the orbit quadrature."""
    snr = 10.0 ** 0.4
    dims = FrameDims(64, 32)
    filt = wiener(snr)
    lo, hi = c0_bounds(64, filt, dims, 1.0, 1.0 / snr)
    cfg = PcsConfig("qam", 64, filt, dims, 1.0, 1.0 / snr, 0.02, lo + 0.5 * (hi - lo))
    sol, peak = _traced_peak(mba_solve, cfg)
    assert sol.converged
    assert peak < 3.8 * MIB, f"peak {peak / MIB:.2f} MiB"


def test_quadrature_peak_bounded():
    """Uniform 64-QAM: 16.6 MiB with whole-block complex differences, 9.85 with chunks, 3.30 on the
    orbit representatives' 4,000 rows (one block) in place of 25,600."""
    bits, peak = _traced_peak(air_quadrature, make_uniform("qam", 64), 0.02)
    assert 5.0 < bits <= 6.0
    assert peak < 3.7 * MIB, f"peak {peak / MIB:.2f} MiB"


def test_estimate_peak_bounded():
    """Uniform 64-QAM, 200,000 samples in 20,000-sample chunks: 70.8 MiB with scipy's log-sum-exp over
    a whole-chunk |y - c|^2 expression, 21.4 through ``log_likelihood_table`` and ``row_logsumexp``."""
    bits, peak = _traced_peak(air_estimate, make_uniform("qam", 64), 0.1, 200_000, 0)
    assert 3.0 < bits <= 6.0
    assert peak < 24 * MIB, f"peak {peak / MIB:.2f} MiB"


SNR = 10.0**0.4
DIMS = FrameDims(64, 32)
SCENE = Scene((Target(1.0, 0.0, 0.0),), 1.0 / SNR)


def test_identity_batch_peak_bounded():
    """One 256-frame batch of the verify chain, MF/RF/WF on 64-QAM at 64x32: 19.6 MiB with the
    batch's uniforms and noise drawn at once, 13.1 with them drawn block by block, 6.5 with blocks
    of 8 frames (256 KiB) in place of 32 (1 MiB)."""
    filters = (MF, RF, wiener(SNR))
    _, peak = _traced_peak(identity_checks, make_uniform("qam", 64), filters, DIMS, SCENE, 256, 1)
    assert peak < 7.5 * MIB, f"peak {peak / MIB:.2f} MiB"


def test_dd_profile_peak_bounded():
    """The profiles chain, WF, one 256-frame batch: 23.6 MiB with the batch-sized draw and the 256
    per-frame maps joined before the sum, 12.6 with the draw streamed and the maps folded, 6.2 with
    blocks of 8 frames (256 KiB) in place of 32 (1 MiB)."""
    _, peak = _traced_peak(empirical_dd_profile, make_uniform("qam", 64), wiener(SNR), DIMS, SCENE, 256, 1)
    assert peak < 7.2 * MIB, f"peak {peak / MIB:.2f} MiB"


def _detection_peak(trials, threads):
    points = make_uniform("qam", 64).points
    books = [make_shaped("qam", 64, np.exp(-s * np.abs(points) ** 2)) for s in np.linspace(0.0, 0.7, 8)]
    scene = default_tradeoff_scene(1.0 / SNR)
    args = (DIMS, scene, books, wiener(SNR), CfarConfig(), trials, 1, threads)
    return _traced_peak(detection_probability, *args)[1]


def test_detection_peak_bounded():
    """Detection on 8 shaped codebooks, one 128-frame batch on 1 thread: 11.4 MiB with the
    batch-sized draw, 7.3 with it streamed, 3.8 with each block of 16 frames (512 KiB) finished
    before the next is drawn and CA-CFAR on the weak cell's window only, 1.43 with one noise value
    per frame and delay bin (the batch's real parts 64 KiB in place of 2 MiB) and no complex g gather."""
    peak = _detection_peak(128, 1)
    assert peak < 1.7 * MIB, f"peak {peak / MIB:.2f} MiB"


def test_detection_peak_bounded_two_threads():
    """The same on two batches at 2 threads: 14.5 MiB with two pool workers each holding its whole
    batch's columns, 7.3 with the caller and one helper each holding one block, 2.24-2.52 (20 runs of
    two 128-frame batches; the threads' blocks overlap more or less) with one noise value per frame
    and delay bin. Two 256-frame batches, so that both threads run one: 2.52-2.55 MiB; a single
    batch, on one thread, reads 1.41."""
    peak = _detection_peak(512, 2)
    assert peak < 2.9 * MIB, f"peak {peak / MIB:.2f} MiB"
