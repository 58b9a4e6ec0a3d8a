"""OFDM ISAC signaling toolkit: sensing metrics under MF/RF/WF filtering and
probabilistic constellation shaping of the sensing-communication trade-off."""

from .air import air_estimate, air_quadrature
from .channel import FrameDims, Scene, Target, steering_vectors
from .constellation import (
    ChiStats,
    Family,
    ShapedConstellation,
    chi_stats,
    load_codebook,
    make_shaped,
    make_uniform,
    moment_abs_pow,
    save_codebook,
)
from .detection import CfarConfig, cfar_thresholds, detection_probability
from .filtering import MF, RF, FilterKind, FilterType, wiener
from .metrics import (
    IdentityReport,
    MetricsReport,
    closed_form_metrics,
    crossover_snr_in,
    empirical_metrics,
    expected_dd_power,
    identity_checks,
)
from .pcs import (
    PcsConfig,
    PcsSolution,
    SolverError,
    c0_bounds,
    mba_solve,
    penalty_f,
    tradeoff_sweep,
)

__version__ = "0.1.0"
