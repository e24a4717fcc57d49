"""hurstkit: long-range-dependent series generation, corruption/filtering,
packet-trace ingestion and Hurst parameter estimation."""

from .errors import (
    BadBinWidth,
    BadBlock,
    BadHurst,
    BandwidthOutOfRange,
    ConfigError,
    DegenerateSeries,
    EmptyTrace,
    ExplosiveAR,
    HurstkitError,
    InsufficientPoints,
    LagOutOfRange,
    MalformedLine,
    NonMonotoneTimestamp,
    NonPositiveData,
    NonPositivePoint,
    NonStationaryAR,
    SeriesTooShort,
    TooFewRecords,
)
from .series import AcfCurve, SummaryStats, TimeSeries, acf, aggregate, read_series, summary_stats, write_series
from .spectral import Periodogram, dft, periodogram
from .generators import (
    Ar1Spec,
    FarimaSpec,
    FgnSpec,
    fgn_spectral_density,
    fractional_ma_coefficients,
    gen_ar1,
    gen_farima,
    gen_fgn,
    gen_iid_gaussian,
)
from .transforms import (
    CorruptionKind,
    FilterKind,
    apply_filter,
    corrupt,
    filter_linear_detrend,
    filter_log,
    filter_poly_detrend,
)
from .wavelet import DwtPyramid, daubechies_filters, dwt
from .estimators import (
    METHOD_ORDER,
    EstimatorReport,
    LogLogFit,
    est_aggvar,
    est_local_whittle,
    est_periodogram,
    est_rs,
    est_wavelet,
    estimate,
    local_whittle_minimize,
    local_whittle_objective,
    loglog_fit,
)
from .traces import (
    PacketTrace,
    bin_bytes,
    interarrival_series,
    parse_packet_trace,
    serialize_packet_trace,
)
from .harness import (
    CellError,
    ExperimentSpec,
    FileSource,
    GeneratorSource,
    MatrixRow,
    ResultMatrix,
    TraceSource,
    build_experiment_spec,
    export_acf,
    format_matrix,
    parse_config,
    run_matrix,
)

__version__ = "0.1.0"
