import numpy as np
import pytest

from ofdm_isac import metrics


@pytest.fixture
def kernel_frames():
    """Run the frame kernel on one (codebook, filter) arm at one thread.

    Returns the arrays it hands its reducer, ``(h, g, chi, hhat)``, each
    joined over all frames in frame order.
    """

    def run(c, f, dims, scene, trials, seed=0):
        blocks = []

        def keep(*arrays):
            blocks.append(arrays)
            return {}

        metrics._run_batches((c,), (f,), dims, scene, trials, seed, 1, metrics._frame_chain(dims, scene, keep))
        return tuple(np.concatenate(parts) for parts in zip(*blocks))

    return run
