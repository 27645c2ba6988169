"""Forecast-error evaluation for intermittent and lumpy demand.

Core pieces: cost-based scoring of forecasts against a notional warehouse
(:mod:`demandeval.spec`), the traditional accuracy metrics it is compared
with (:mod:`demandeval.metrics`), synthetic demand generation
(:mod:`demandeval.simulate`), and reliability/validity experiment runners
(:mod:`demandeval.experiments`). ``demandeval.cli`` exposes everything on the
command line.

The package namespace holds what a caller needs to score pairs and run the
studies. Error subclasses (:mod:`demandeval.errors`), series types
(:mod:`demandeval.series`), the per-metric functions
(:mod:`demandeval.metrics`) and the statistics (:mod:`demandeval.stats`)
stay in their submodules.
"""

__version__ = "0.1.0"

from .errors import DemandEvalError
from .series import EvaluationPair
from .spec import (
    DEFAULT_PARAMS,
    SpecParams,
    spec_alpha_sweep,
    spec_decompose,
    spec_fast,
    spec_literal,
)
from .metrics import METRIC_NAMES, compute_all
from .simulate import DemandGenConfig, ErrorInjectionConfig, generate_demand, perturb_forecast
from .warehouse import stock_cost
from .experiments import (
    ReliabilityConfig,
    SegmentReliabilityConfig,
    ValidityConfig,
    run_cost_validity,
    run_reliability,
    run_segment_reliability,
    run_segment_reliability_config,
    run_validity,
)

__all__ = [
    "__version__",
    "DemandEvalError",
    "EvaluationPair",
    # cost metric
    "SpecParams",
    "DEFAULT_PARAMS",
    "spec_literal",
    "spec_fast",
    "spec_decompose",
    "spec_alpha_sweep",
    # classic metrics
    "METRIC_NAMES",
    "compute_all",
    # simulation
    "DemandGenConfig",
    "ErrorInjectionConfig",
    "generate_demand",
    "perturb_forecast",
    # cost oracle + experiments
    "stock_cost",
    "ReliabilityConfig",
    "ValidityConfig",
    "SegmentReliabilityConfig",
    "run_reliability",
    "run_validity",
    "run_segment_reliability",
    "run_segment_reliability_config",
    "run_cost_validity",
]
