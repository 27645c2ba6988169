"""Forecast-error evaluation for intermittent and lumpy demand.

Core pieces: cost-based scoring of forecasts against a notional warehouse
(:mod:`demandeval.spec`), the traditional accuracy metrics it is compared
with (:mod:`demandeval.metrics`), synthetic demand generation
(:mod:`demandeval.simulate`), and reliability/validity experiment runners
(:mod:`demandeval.experiments`). ``demandeval.cli`` exposes everything on the
command line.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateInput,
    DemandEvalError,
    EmptySeries,
    GroupTooSmall,
    InvalidConfig,
    InvalidDegreesOfFreedom,
    InvalidParams,
    LengthMismatch,
    MalformedRow,
    NegativeValue,
    NonContiguousTime,
    NonFiniteValue,
    TooFewGroups,
    WindowTooLarge,
)
from .series import DemandSeries, EvaluationPair, ForecastSeries
from .spec import (
    DEFAULT_PARAMS,
    AlphaSweepPoint,
    CostBreakdown,
    SpecParams,
    spec_alpha_sweep,
    spec_decompose,
    spec_fast,
    spec_literal,
)
from .metrics import (
    METRIC_NAMES,
    ExtendedValue,
    MetricReport,
    compute_all,
    compute_metric,
    mae,
    mape,
    mase,
    mdae,
    mdape,
    mse,
    rmse,
    rmspe,
    rmsse,
    smape,
)
from .simulate import (
    DemandGenConfig,
    ErrorInjectionConfig,
    generate_demand,
    naive_forecast,
    perturb_forecast,
    segment_extracts,
)
from .stats import CorrelationResult, LeveneResult, f_sf, levene, mean, pearson, variance
from .warehouse import stock_cost
from .experiments import (
    DEFAULT_METRICS,
    ExperimentReport,
    MetricOutcome,
    ReliabilityConfig,
    SegmentReliabilityConfig,
    ValidityConfig,
    derive_seed,
    run_cost_validity,
    run_reliability,
    run_segment_reliability,
    run_segment_reliability_config,
    run_validity,
)

__all__ = [
    "__version__",
    # errors
    "DemandEvalError",
    "EmptySeries",
    "NegativeValue",
    "NonFiniteValue",
    "LengthMismatch",
    "InvalidParams",
    "InvalidConfig",
    "WindowTooLarge",
    "DegenerateInput",
    "TooFewGroups",
    "GroupTooSmall",
    "InvalidDegreesOfFreedom",
    "MalformedRow",
    "NonContiguousTime",
    # series
    "DemandSeries",
    "ForecastSeries",
    "EvaluationPair",
    # cost metric
    "SpecParams",
    "DEFAULT_PARAMS",
    "CostBreakdown",
    "AlphaSweepPoint",
    "spec_literal",
    "spec_fast",
    "spec_decompose",
    "spec_alpha_sweep",
    # classic metrics
    "METRIC_NAMES",
    "ExtendedValue",
    "MetricReport",
    "compute_all",
    "compute_metric",
    "mae",
    "mdae",
    "mse",
    "rmse",
    "mape",
    "mdape",
    "rmspe",
    "smape",
    "mase",
    "rmsse",
    # simulation
    "DemandGenConfig",
    "ErrorInjectionConfig",
    "generate_demand",
    "perturb_forecast",
    "naive_forecast",
    "segment_extracts",
    # stats
    "CorrelationResult",
    "LeveneResult",
    "pearson",
    "levene",
    "f_sf",
    "mean",
    "variance",
    # cost oracle + experiments
    "stock_cost",
    "DEFAULT_METRICS",
    "ExperimentReport",
    "MetricOutcome",
    "ReliabilityConfig",
    "ValidityConfig",
    "SegmentReliabilityConfig",
    "derive_seed",
    "run_reliability",
    "run_validity",
    "run_segment_reliability",
    "run_segment_reliability_config",
    "run_cost_validity",
]
