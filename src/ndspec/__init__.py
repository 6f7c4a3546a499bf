"""Sequential multidimensional spectral estimation for block-Toeplitz
correlation structures, with a minimum-variance baseline, an analytic
cost model, and a correlation-matching metric."""

from .baselines import (
    AliasingWarning,
    CostReport,
    MatchReport,
    capon_spectrum,
    correlation_match,
    cost_report,
)
from .correlation import (
    CorrelationSignal,
    SpectralComposition,
    assemble,
    estimate_correlation,
    load_ndcorr,
    ndcorr_lines,
    save_ndcorr,
    synth_correlation,
)
from .errors import (
    DimensionMismatch,
    FileFormatError,
    IndexOutOfRange,
    InsufficientData,
    InvalidNesting,
    NdspecError,
    NotPositiveDefinite,
    SizeMismatch,
)
from .estimator import (
    LevinsonResult,
    ar_spectrum_1d,
    levinson_1d,
    sequential_spectrum,
)
from .grid import SpectralGridSpec, SpectrumEstimate
from .indexing import (
    DimSpec,
    Nesting,
    apply_walking,
    has_toeplitz_character,
    walking_map,
)
from .linalg import invert_pd

__version__ = "0.1.0"

__all__ = [
    "AliasingWarning",
    "CorrelationSignal",
    "CostReport",
    "DimSpec",
    "DimensionMismatch",
    "FileFormatError",
    "IndexOutOfRange",
    "InsufficientData",
    "InvalidNesting",
    "LevinsonResult",
    "MatchReport",
    "NdspecError",
    "Nesting",
    "NotPositiveDefinite",
    "SizeMismatch",
    "SpectralComposition",
    "SpectralGridSpec",
    "SpectrumEstimate",
    "apply_walking",
    "ar_spectrum_1d",
    "assemble",
    "capon_spectrum",
    "correlation_match",
    "cost_report",
    "estimate_correlation",
    "has_toeplitz_character",
    "invert_pd",
    "levinson_1d",
    "load_ndcorr",
    "ndcorr_lines",
    "save_ndcorr",
    "sequential_spectrum",
    "synth_correlation",
    "walking_map",
]
