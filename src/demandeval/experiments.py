"""Config-driven reliability and validity studies on simulated demand.

Every runner is a pure function of (config, seed): per-task generator seeds
are derived with numpy ``SeedSequence`` spawn keys, tasks are evaluated in a
fixed order, and aggregation uses compensated summation, so rerunning a
config reproduces its report byte for byte.

Desk-scale defaults (hundreds of series rather than thousands) are chosen so
a full study finishes in seconds while keeping Monte-Carlo noise well inside
the tolerances the test suite asserts.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import DegenerateInput, InvalidConfig
from .metrics import METRIC_NAMES, compute_metric
from .series import DemandSeries, EvaluationPair
from .simulate import (
    DemandGenConfig,
    ErrorInjectionConfig,
    _check_finite,
    _check_sigma,
    generate_demand,
    naive_forecast,
    perturb_forecast,
    segment_extracts,
)
from .spec import DEFAULT_PARAMS, SpecParams, spec_fast
from .stats import LeveneResult, levene, mean, pearson, variance
from .warehouse import stock_cost

#: Metrics evaluated when a config does not name its own set.
DEFAULT_METRICS = ("mae", "rmse", "mase", "mape", "smape", "spec")

#: Metrics built on per-step percentage terms. In horizontal studies these
#: are reported as not calculable: displaced volume lands on zero-demand
#: steps, which makes the absolute-percentage family infinite and pins the
#: bounded symmetric variant at saturation, so a correlation against the
#: shift size would not measure anything.
PERCENTAGE_METRICS = frozenset({"mape", "mdape", "rmspe", "smape"})

_DIRECTIONS = ("vertical", "horizontal", "both")


def derive_seed(root: int, *key: int) -> int:
    """Deterministic substream seed: numpy SeedSequence with a spawn key.

    Parallel or out-of-order evaluation must use these derived seeds rather
    than sharing one sequential stream.
    """
    ss = np.random.SeedSequence(root, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _check_metrics(metrics: Sequence[str]) -> tuple[str, ...]:
    names = tuple(metrics)
    if not names:
        raise InvalidConfig("field 'metrics': at least one metric is required")
    unknown = [m for m in names if m not in METRIC_NAMES]
    if unknown:
        raise InvalidConfig(f"field 'metrics': unknown metric names {unknown!r}")
    if len(set(names)) != len(names):
        raise InvalidConfig("field 'metrics': duplicate metric names")
    return names


def _check_count(name: str, value: int, minimum: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise InvalidConfig(f"field '{name}': must be an integer >= {minimum}, got {value!r}")


def _check_levels(name: str, levels: Sequence[float], minimum_count: int) -> tuple[float, ...]:
    values = tuple(float(v) for v in levels)
    if len(values) < minimum_count:
        raise InvalidConfig(f"field '{name}': need at least {minimum_count} levels, got {len(values)}")
    if len(set(values)) != len(values):
        raise InvalidConfig(f"field '{name}': duplicate levels make the correlation degenerate")
    if any(not math.isfinite(v) for v in values):
        raise InvalidConfig(f"field '{name}': levels must be finite")
    return values


@dataclass(frozen=True)
class ReliabilityConfig:
    """Sweep of error-injection spread against the spread of metric scores."""

    demand: DemandGenConfig
    variance_levels: tuple[float, ...]
    series_count: int = 200
    forecasts_per_series: int = 50
    metrics: tuple[str, ...] = DEFAULT_METRICS
    error_directions: str = "both"
    error_mu: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_count("series_count", self.series_count, 2)
        _check_count("forecasts_per_series", self.forecasts_per_series, 2)
        levels = _check_levels("variance_levels", self.variance_levels, 2)
        if any(v < 0 for v in levels):
            raise InvalidConfig("field 'variance_levels': sigma values must be >= 0")
        object.__setattr__(self, "variance_levels", levels)
        object.__setattr__(self, "metrics", _check_metrics(self.metrics))
        if self.error_directions not in _DIRECTIONS:
            raise InvalidConfig(
                f"field 'error_directions': must be one of {_DIRECTIONS}, got {self.error_directions!r}"
            )
        _check_finite("field 'error_mu':", self.error_mu)

    @classmethod
    def from_dict(cls, data: dict) -> "ReliabilityConfig":
        fields = dict(data)
        demand = _demand_from_dict(_take(fields, "demand", required=True))
        cfg = cls(
            demand=demand,
            variance_levels=tuple(_take(fields, "variance_levels", required=True)),
            series_count=_take(fields, "series_count", default=200),
            forecasts_per_series=_take(fields, "forecasts_per_series", default=50),
            metrics=tuple(_take(fields, "metrics", default=list(DEFAULT_METRICS))),
            error_directions=_take(fields, "error_directions", default="both"),
            error_mu=_take(fields, "error_mu", default=0.0),
            seed=_take(fields, "seed", default=0),
        )
        _reject_unknown(fields)
        return cfg


@dataclass(frozen=True)
class ValidityConfig:
    """Sweep of a systematic error shift against mean metric scores."""

    demand: DemandGenConfig
    direction: str
    mu_levels: tuple[float, ...]
    sigma: float
    series_count: int = 200
    forecasts_per_series: int = 50
    metrics: tuple[str, ...] = DEFAULT_METRICS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.direction not in ("vertical", "horizontal"):
            raise InvalidConfig(
                f"field 'direction': must be 'vertical' or 'horizontal', got {self.direction!r}"
            )
        object.__setattr__(self, "mu_levels", _check_levels("mu_levels", self.mu_levels, 3))
        _check_sigma("field 'sigma':", self.sigma)
        _check_count("series_count", self.series_count, 2)
        _check_count("forecasts_per_series", self.forecasts_per_series, 2)
        object.__setattr__(self, "metrics", _check_metrics(self.metrics))

    @classmethod
    def from_dict(cls, data: dict) -> "ValidityConfig":
        fields = dict(data)
        demand = _demand_from_dict(_take(fields, "demand", required=True))
        cfg = cls(
            demand=demand,
            direction=_take(fields, "direction", required=True),
            mu_levels=tuple(_take(fields, "mu_levels", required=True)),
            sigma=_take(fields, "sigma", required=True),
            series_count=_take(fields, "series_count", default=200),
            forecasts_per_series=_take(fields, "forecasts_per_series", default=50),
            metrics=tuple(_take(fields, "metrics", default=list(DEFAULT_METRICS))),
            seed=_take(fields, "seed", default=0),
        )
        _reject_unknown(fields)
        return cfg


@dataclass(frozen=True)
class SegmentReliabilityConfig:
    """Structurally distinct series whose extracts are scored by group."""

    demand: DemandGenConfig
    magnitude_mus: tuple[float, ...]
    window: int
    segments_per_series: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        mus = tuple(float(v) for v in self.magnitude_mus)
        if len(mus) < 2:
            raise InvalidConfig("field 'magnitude_mus': need at least 2 series")
        object.__setattr__(self, "magnitude_mus", mus)
        _check_count("window", self.window, 2)
        _check_count("segments_per_series", self.segments_per_series, 2)
        if self.window > self.demand.n:
            raise InvalidConfig(
                f"field 'window': {self.window} exceeds the demand horizon {self.demand.n}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "SegmentReliabilityConfig":
        fields = dict(data)
        demand = _demand_from_dict(_take(fields, "demand", required=True))
        cfg = cls(
            demand=demand,
            magnitude_mus=tuple(_take(fields, "magnitude_mus", required=True)),
            window=_take(fields, "window", required=True),
            segments_per_series=_take(fields, "segments_per_series", default=20),
            seed=_take(fields, "seed", default=0),
        )
        _reject_unknown(fields)
        return cfg


def _take(fields: dict, name: str, required: bool = False, default=None):
    if name in fields:
        return fields.pop(name)
    if required:
        raise InvalidConfig(f"field '{name}': missing")
    return default


def _reject_unknown(fields: dict) -> None:
    if fields:
        raise InvalidConfig(f"unknown config fields: {sorted(fields)!r}")


def _demand_from_dict(data) -> DemandGenConfig:
    if not isinstance(data, dict):
        raise InvalidConfig(f"field 'demand': expected an object, got {type(data).__name__}")
    fields = dict(data)
    try:
        cfg = DemandGenConfig(
            n=_take(fields, "n", required=True),
            count_mu=_take(fields, "count_mu", required=True),
            count_sigma=_take(fields, "count_sigma", required=True),
            magnitude_mu=_take(fields, "magnitude_mu", required=True),
            magnitude_sigma=_take(fields, "magnitude_sigma", required=True),
            # experiment runners replace the seed per series; 0 is a placeholder
            seed=_take(fields, "seed", default=0),
            round_magnitudes=_take(fields, "round_magnitudes", default=False),
        )
    except InvalidConfig as exc:
        raise InvalidConfig(f"field 'demand': {exc}") from None
    _reject_unknown(fields)
    return cfg


@dataclass(frozen=True)
class MetricOutcome:
    """Correlation result for one metric within one experiment."""

    metric: str
    r: float | None = None
    n: int = 0
    not_calculable: str | None = None
    per_level_mean: tuple[float, ...] | None = None
    per_level_variance: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "r": self.r,
            "n": self.n,
            "not_calculable": self.not_calculable,
            "per_level_mean": list(self.per_level_mean) if self.per_level_mean is not None else None,
            "per_level_variance": (
                list(self.per_level_variance) if self.per_level_variance is not None else None
            ),
        }


@dataclass(frozen=True)
class ExperimentReport:
    """Results plus full provenance; serializes deterministically."""

    kind: str
    seed: int
    config: dict
    levels: tuple[float, ...]
    metrics: dict[str, MetricOutcome]
    levene: LeveneResult | None = None
    within_between_ratio: float | None = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        levene_block = None
        if self.levene is not None:
            levene_block = {
                "w": _json_float(self.levene.w),
                "df1": self.levene.df1,
                "df2": self.levene.df2,
                "p": self.levene.p,
            }
        return {
            "kind": self.kind,
            "seed": self.seed,
            "config": self.config,
            "levels": list(self.levels),
            "metrics": {name: outcome.to_dict() for name, outcome in self.metrics.items()},
            "levene": levene_block,
            "within_between_ratio": self.within_between_ratio,
            "extras": self.extras,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _json_float(x: float):
    if math.isinf(x):
        return "inf"
    if math.isnan(x):
        return "nan"
    return x


def _error_config(direction: str, mu: float, sigma: float, seed: int) -> ErrorInjectionConfig:
    vertical = direction in ("vertical", "both")
    horizontal = direction in ("horizontal", "both")
    return ErrorInjectionConfig(
        vertical_mu=mu if vertical else 0.0,
        vertical_sigma=sigma if vertical else 0.0,
        horizontal_mu=mu if horizontal else 0.0,
        horizontal_sigma=sigma if horizontal else 0.0,
        seed=seed,
    )


def _config_snapshot(config) -> dict:
    return asdict(config)


def run_reliability(
    config: ReliabilityConfig, params: SpecParams = DEFAULT_PARAMS
) -> ExperimentReport:
    """Correlate injected error variance with the variance of each metric.

    Per (series, level), the metric's variance is taken across that series'
    forecasts; per level those variances are averaged across series; the
    reported r correlates the injected variances (sigma squared) with the
    per-level averages.
    """
    levels = config.variance_levels
    injected_variances = [s * s for s in levels]
    per_metric_values: dict[str, list[list[float]]] = {
        m: [[] for _ in levels] for m in config.metrics
    }
    bad_values: dict[str, int] = {m: 0 for m in config.metrics}

    for s_idx in range(config.series_count):
        actual = generate_demand(replace(config.demand, seed=derive_seed(config.seed, 0, s_idx)))
        for l_idx, sigma in enumerate(levels):
            forecast_values: dict[str, list[float]] = {m: [] for m in config.metrics}
            for f_idx in range(config.forecasts_per_series):
                err = _error_config(
                    config.error_directions,
                    config.error_mu,
                    sigma,
                    derive_seed(config.seed, 1, s_idx, l_idx, f_idx),
                )
                pair = EvaluationPair(actual, perturb_forecast(actual, err))
                for m in config.metrics:
                    value = compute_metric(m, pair, params).as_float()
                    if math.isfinite(value):
                        forecast_values[m].append(value)
                    else:
                        bad_values[m] += 1
            for m in config.metrics:
                values = forecast_values[m]
                if len(values) == config.forecasts_per_series:
                    per_metric_values[m][l_idx].append(variance(values))

    outcomes: dict[str, MetricOutcome] = {}
    for m in config.metrics:
        if bad_values[m]:
            outcomes[m] = MetricOutcome(
                metric=m,
                not_calculable=f"{bad_values[m]} non-finite metric values",
            )
            continue
        per_level = tuple(mean(group) for group in per_metric_values[m])
        try:
            corr = pearson(injected_variances, list(per_level))
            outcomes[m] = MetricOutcome(metric=m, r=corr.r, n=corr.n, per_level_variance=per_level)
        except DegenerateInput:
            outcomes[m] = MetricOutcome(
                metric=m,
                not_calculable="degenerate correlation input",
                per_level_variance=per_level,
            )

    return ExperimentReport(
        kind="reliability",
        seed=config.seed,
        config=_config_snapshot(config),
        levels=levels,
        metrics=outcomes,
    )


def run_validity(config: ValidityConfig, params: SpecParams = DEFAULT_PARAMS) -> ExperimentReport:
    """Correlate a swept systematic error shift with mean metric scores.

    Each level draws its own demand series (seeds derived per level and
    series), each series its own perturbed forecasts; the reported r
    correlates the shift levels with the per-level mean metric value.
    Percentage-family metrics are excluded from horizontal sweeps (see
    :data:`PERCENTAGE_METRICS`), and any metric producing a non-finite value
    anywhere in the sweep is reported as not calculable rather than silently
    dropped from some cells.
    """
    levels = config.mu_levels
    per_level_values: dict[str, list[list[float]]] = {m: [[] for _ in levels] for m in config.metrics}
    bad_values: dict[str, int] = {m: 0 for m in config.metrics}

    for l_idx, mu in enumerate(levels):
        for s_idx in range(config.series_count):
            actual = generate_demand(
                replace(config.demand, seed=derive_seed(config.seed, 0, l_idx, s_idx))
            )
            for f_idx in range(config.forecasts_per_series):
                err = _error_config(
                    config.direction,
                    mu,
                    config.sigma,
                    derive_seed(config.seed, 1, l_idx, s_idx, f_idx),
                )
                pair = EvaluationPair(actual, perturb_forecast(actual, err))
                for m in config.metrics:
                    value = compute_metric(m, pair, params).as_float()
                    if math.isfinite(value):
                        per_level_values[m][l_idx].append(value)
                    else:
                        bad_values[m] += 1

    outcomes: dict[str, MetricOutcome] = {}
    for m in config.metrics:
        if config.direction == "horizontal" and m in PERCENTAGE_METRICS:
            outcomes[m] = MetricOutcome(
                metric=m,
                not_calculable="percentage-family metric under horizontal shift",
            )
            continue
        if bad_values[m]:
            outcomes[m] = MetricOutcome(
                metric=m,
                not_calculable=f"{bad_values[m]} non-finite metric values",
            )
            continue
        per_level_mean = tuple(mean(values) for values in per_level_values[m])
        per_level_var = tuple(variance(values) for values in per_level_values[m])
        try:
            corr = pearson(list(levels), list(per_level_mean))
            outcomes[m] = MetricOutcome(
                metric=m,
                r=corr.r,
                n=corr.n,
                per_level_mean=per_level_mean,
                per_level_variance=per_level_var,
            )
        except DegenerateInput:
            outcomes[m] = MetricOutcome(
                metric=m,
                not_calculable="degenerate correlation input",
                per_level_mean=per_level_mean,
                per_level_variance=per_level_var,
            )

    return ExperimentReport(
        kind="validity",
        seed=config.seed,
        config=_config_snapshot(config),
        levels=levels,
        metrics=outcomes,
    )


def run_segment_reliability(
    series_set: Sequence[DemandSeries],
    window: int,
    segments_per_series: int,
    seed: int,
    params: SpecParams = DEFAULT_PARAMS,
) -> ExperimentReport:
    """Compare score spread across extracts of each series vs across series.

    Each series contributes one group: the scores of a one-step naive
    forecast on random extracts of that series. Levene's test then asks
    whether the group spreads are compatible; the within/between ratio
    divides the mean within-group variance by the variance of all scores
    pooled.
    """
    if len(series_set) < 2:
        raise InvalidConfig("need at least 2 series")
    _check_count("segments_per_series", segments_per_series, 2)
    groups: list[list[float]] = []
    for idx, series in enumerate(series_set):
        extracts = segment_extracts(series, window, segments_per_series, derive_seed(seed, 2, idx))
        groups.append(
            [spec_fast(EvaluationPair(seg, naive_forecast(seg)), params) for seg in extracts]
        )

    levene_result = levene(groups)
    pooled = [v for g in groups for v in g]
    pooled_variance = variance(pooled)
    within_mean = mean([variance(g) for g in groups])
    ratio = within_mean / pooled_variance if pooled_variance > 0 else None

    return ExperimentReport(
        kind="segment-reliability",
        seed=seed,
        config={
            "series_count": len(series_set),
            "window": window,
            "segments_per_series": segments_per_series,
            "seed": seed,
        },
        levels=(),
        metrics={
            "spec": MetricOutcome(
                metric="spec",
                per_level_mean=tuple(mean(g) for g in groups),
                per_level_variance=tuple(variance(g) for g in groups),
            )
        },
        levene=levene_result,
        within_between_ratio=ratio,
        extras={"pooled_variance": pooled_variance, "within_variance_mean": within_mean},
    )


def run_segment_reliability_config(
    config: SegmentReliabilityConfig, params: SpecParams = DEFAULT_PARAMS
) -> ExperimentReport:
    """Generate structurally distinct series per config, then group-score them."""
    series_set = [
        generate_demand(
            replace(config.demand, magnitude_mu=mu, seed=derive_seed(config.seed, 0, idx))
        )
        for idx, mu in enumerate(config.magnitude_mus)
    ]
    report = run_segment_reliability(
        series_set, config.window, config.segments_per_series, config.seed, params
    )
    return replace(report, config=_config_snapshot(config))


def run_cost_validity(
    config: ReliabilityConfig,
    cost_params: SpecParams = DEFAULT_PARAMS,
    metric_params: SpecParams | None = None,
) -> ExperimentReport:
    """Correlate each metric with the warehouse cost oracle, pair by pair.

    ``cost_params`` prices the ground-truth cost; ``metric_params`` (defaults
    to the same weights) parameterizes the scored metric, so a deliberate
    mismatch between the two can be studied.
    """
    if metric_params is None:
        metric_params = cost_params
    metric_values: dict[str, list[float]] = {m: [] for m in config.metrics}
    bad_values: dict[str, int] = {m: 0 for m in config.metrics}
    costs: list[float] = []

    for s_idx in range(config.series_count):
        actual = generate_demand(replace(config.demand, seed=derive_seed(config.seed, 0, s_idx)))
        for l_idx, sigma in enumerate(config.variance_levels):
            for f_idx in range(config.forecasts_per_series):
                err = _error_config(
                    config.error_directions,
                    config.error_mu,
                    sigma,
                    derive_seed(config.seed, 1, s_idx, l_idx, f_idx),
                )
                pair = EvaluationPair(actual, perturb_forecast(actual, err))
                costs.append(stock_cost(pair, cost_params))
                for m in config.metrics:
                    value = compute_metric(m, pair, metric_params).as_float()
                    if math.isfinite(value):
                        metric_values[m].append(value)
                    else:
                        bad_values[m] += 1
                        metric_values[m].append(math.nan)

    outcomes: dict[str, MetricOutcome] = {}
    for m in config.metrics:
        if bad_values[m]:
            outcomes[m] = MetricOutcome(
                metric=m, not_calculable=f"{bad_values[m]} non-finite metric values"
            )
            continue
        try:
            corr = pearson(metric_values[m], costs)
            outcomes[m] = MetricOutcome(metric=m, r=corr.r, n=corr.n)
        except DegenerateInput:
            outcomes[m] = MetricOutcome(metric=m, not_calculable="degenerate correlation input")

    return ExperimentReport(
        kind="cost-validity",
        seed=config.seed,
        config={
            **_config_snapshot(config),
            "cost_alpha1": cost_params.alpha1,
            "cost_alpha2": cost_params.alpha2,
            "metric_alpha1": metric_params.alpha1,
            "metric_alpha2": metric_params.alpha2,
        },
        levels=config.variance_levels,
        metrics=outcomes,
        extras={"cost_mean": mean(costs), "cost_variance": variance(costs)},
    )
