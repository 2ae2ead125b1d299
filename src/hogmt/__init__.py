"""Dual-eigenfunction channel decomposition, precoding and link simulation.

The package splits a 4-D multi-user time-varying channel kernel into paired
2-D spatio-temporal eigenfunctions, precodes data so each mode arrives flat
faded, characterizes channels through eigen-domain second-order statistics,
and measures bit error rates against per-instant baselines.
"""

from .errors import (
    ConfigError,
    DegenerateChannelError,
    DimensionMismatchError,
    FormatError,
    HogmtError,
    NumericalError,
    ValidationError,
)
from .kernels import (
    EigenDecomposition,
    Kernel4D,
    apply_kernel,
    decompose_grid_pairs,
    duality_residual,
    flatten_kernel,
    hogmt_decompose,
    reconstruct,
)
from .channel import (
    ImpulseResponse4D,
    InterferenceSplit,
    ScenarioConfig,
    SpaceTimeSignal,
    generate_channel,
    interference_split,
    load_ctf,
    save_ctf,
    to_kernel,
)
from .precoding import (
    CoefficientSet,
    EnergyReport,
    energy_report,
    hogmt_precode,
    zf_precode_instant,
    zfdpc_precode,
)
from .stats import (
    AtomicKernel,
    CmdSeries,
    GaussianPrototype,
    SpreadingFunction,
    StationarityReport,
    StatsReport,
    TFTransfer,
    acf,
    atomic_kernel,
    cmd,
    decompose_atomic,
    spreading_function,
    stationarity_interval,
    stats_from_decomp,
    tf_transfer,
)
from .linksim import (
    BerPoint,
    BerReport,
    MIN_BITS_FLOOR,
    ModulationScheme,
    PrecoderSpec,
    SCHEMES,
    demodulate,
    get_scheme,
    modulate,
    parse_precoder,
    run_ber,
    theoretical_awgn_ber,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "HogmtError",
    "ValidationError",
    "DimensionMismatchError",
    "ConfigError",
    "FormatError",
    "NumericalError",
    "DegenerateChannelError",
    # kernels
    "Kernel4D",
    "EigenDecomposition",
    "flatten_kernel",
    "decompose_grid_pairs",
    "hogmt_decompose",
    "reconstruct",
    "apply_kernel",
    "duality_residual",
    # channel
    "ScenarioConfig",
    "ImpulseResponse4D",
    "SpaceTimeSignal",
    "InterferenceSplit",
    "generate_channel",
    "to_kernel",
    "interference_split",
    "save_ctf",
    "load_ctf",
    # precoding
    "CoefficientSet",
    "EnergyReport",
    "hogmt_precode",
    "energy_report",
    "zf_precode_instant",
    "zfdpc_precode",
    # stats
    "TFTransfer",
    "SpreadingFunction",
    "GaussianPrototype",
    "AtomicKernel",
    "StatsReport",
    "CmdSeries",
    "StationarityReport",
    "tf_transfer",
    "spreading_function",
    "atomic_kernel",
    "decompose_atomic",
    "stats_from_decomp",
    "acf",
    "cmd",
    "stationarity_interval",
    # linksim
    "MIN_BITS_FLOOR",
    "ModulationScheme",
    "SCHEMES",
    "get_scheme",
    "modulate",
    "demodulate",
    "theoretical_awgn_ber",
    "PrecoderSpec",
    "parse_precoder",
    "BerPoint",
    "BerReport",
    "run_ber",
]
