"""OFDM ISAC signaling toolkit: sensing metrics under MF/RF/WF filtering and
probabilistic constellation shaping of the sensing-communication trade-off."""

from .air import AirConfig, air_estimate, air_quadrature, frame_air_bits, noise_entropy
from .channel import (
    ComplexFrame,
    FrameDims,
    Scene,
    Target,
    build_csi,
    steering_vectors,
    synthesize_echo,
)
from .constellation import (
    ChiStats,
    Family,
    ShapedConstellation,
    chi_stats,
    load_codebook,
    make_shaped,
    make_uniform,
    moment_abs_pow,
    sample_symbols,
    save_codebook,
)
from .detection import CfarConfig, ca_cfar_1d, detection_probability
from .filtering import (
    MF,
    RF,
    FilterKind,
    FilterType,
    chi_matrix,
    dd_map,
    estimate_csi,
    filter_matrix,
    response_function,
    wiener,
)
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
    TradeoffPoint,
    c0_bounds,
    mba_solve,
    penalty_f,
    tradeoff_sweep,
)

__version__ = "0.1.0"
