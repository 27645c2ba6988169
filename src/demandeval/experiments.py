"""Config-driven reliability and validity studies on simulated demand.

The reliability, validity and cost-validity studies all score one stream of
(seed, perturbed forecast, score) pairs, produced by :func:`_pair_stream`;
each runner only says which cells to visit and how to reduce the scores.
Every runner is a pure function of (config, seed): per-task generator seeds
are those of numpy ``SeedSequence`` spawn keys (:func:`derive_seed`), tasks
are evaluated in a fixed order, and aggregation uses compensated summation,
so rerunning a config reproduces its report byte for byte. A series'
forecasts each draw from ``default_rng`` of their own key's seed, and
:func:`_streams` seeds all of them in one pass of :func:`_generate_state`,
the one port of ``SeedSequence``'s mixing.

Desk-scale defaults (hundreds of series rather than thousands) are chosen so
a full study finishes in seconds while keeping Monte-Carlo noise well inside
the tolerances the test suite asserts.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .csvio import dump_json, json_number
from .errors import DegenerateInput, InvalidConfig, StatsError, check_int, check_number, check_seed
from .metrics import _entries, _metric_names, compute_metric
from .series import DemandSeries, EvaluationPair, ForecastSeries
from .simulate import (
    MAX_COUNT,
    DemandGenConfig,
    ErrorInjectionConfig,
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


# numpy's SeedSequence constants (hashmix and mix).
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's ``hashmix`` of one word: the mixed word and the next constant."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ (value >> 16), const


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ (result >> 16)


def _generate_state(entropy: list, count: int) -> list:
    """SeedSequence's ``mix_entropy`` of ``entropy``, at least four words, then
    the first ``count`` uint32 words of its ``generate_state``, low word first.

    A word is an int or a uint64 array of uint32 values. The hash constants
    depend only on how many words were mixed before, never on their values,
    so the arrays broadcast and one pass carries every combination of them.
    """
    pool, const = [], _INIT_A
    for word in entropy[:4]:
        mixed, const = _hashmix(word, const)
        pool.append(mixed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], mixed)
    for word in entropy[4:]:
        for dst in range(4):
            mixed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], mixed)
    words, const = [], _INIT_B
    for dst in range(count):
        word, const = _hashmix(pool[dst % 4], const, _MULT_B)
        words.append(word)
    return words


def _words(value: int) -> list[int]:
    """The uint32 words of a non-negative int, low word first, as SeedSequence splits it."""
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def derive_seed(root: int, *key: int) -> int:
    """Deterministic substream seed: ``SeedSequence(root, spawn_key=key)``'s first uint64.

    ``root`` must be a non-negative int (numpy draws fresh entropy for None).
    Parallel or out-of-order evaluation must use these seeds, not one
    sequential stream.
    """
    return int(np.random.SeedSequence(root, spawn_key=key).generate_state(1, np.uint64)[0])


def _streams(root: int, prefix: tuple[int, ...], last: list[int], count: int) -> np.ndarray:
    """The ``PCG64`` seed words of ``default_rng(derive_seed(root, *prefix, l, f))``
    for each ``l`` in ``last`` (each below 2**32) and ``f`` in ``range(count)``:
    a (rows, 4) uint64 array, ``f`` varying fastest.

    One :func:`_generate_state` pass takes every row's derived seed, two
    words, and one more on those seeds what ``SeedSequence(seed)`` hands
    ``PCG64``: ``generate_state(4, uint64)``. Each row is contiguous, as
    ``PCG64`` reads it.
    """
    entropy = _words(root)
    entropy += [0] * (4 - len(entropy))  # under a spawn key the root's words fill the pool
    for part in prefix:
        entropy += _words(part)
    entropy += [np.array(last, dtype=np.uint64)[:, None], np.arange(count, dtype=np.uint64)]
    state = _generate_state([*_generate_state(entropy, 2), 0, 0], 8)
    return np.stack([state[i] | state[i + 1] << 32 for i in range(0, 8, 2)], axis=-1).reshape(-1, 4)


class _Words(np.random.bit_generator.ISeedSequence):
    """Precomputed seed words for ``PCG64``, returned as they are whatever is asked for."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _numbers(name: str, values: Iterable[float]) -> tuple[float, ...]:
    entries = _entries(name, values, "numbers")
    for v in entries:
        check_number(f"field '{name}':", v)
    return tuple(float(v) for v in entries)


def _levels(name: str, levels: Iterable[float], minimum_count: int) -> tuple[float, ...]:
    values = _numbers(name, levels)
    if len(values) < minimum_count:
        raise InvalidConfig(f"field '{name}': need at least {minimum_count} levels, got {len(values)}")
    if len(set(values)) != len(values):
        raise InvalidConfig(f"field '{name}': duplicate levels make the correlation degenerate")
    return values


def _load(cls, data: dict, prefix: str = ""):
    """Build the dataclass ``cls`` from a JSON object.

    Absent fields take the dataclass defaults and a ``demand`` object is
    loaded the same way. Errors raised while building carry ``prefix``;
    unknown fields are reported only once the rest is valid.
    """
    if not isinstance(data, dict):
        raise InvalidConfig(f"{prefix}expected an object, got {type(data).__name__}")
    given = dict(data)
    kwargs = {}
    try:
        for f in fields(cls):
            if f.name in given:
                value = given.pop(f.name)
                kwargs[f.name] = _demand_from_dict(value) if f.name == "demand" else value
            elif f.default is MISSING:
                raise InvalidConfig(f"field '{f.name}': missing")
        cfg = cls(**kwargs)
    except InvalidConfig as exc:
        if not prefix:
            raise
        raise InvalidConfig(f"{prefix}{exc}") from None
    if given:
        raise InvalidConfig(f"{prefix}unknown config fields: {sorted(given)!r}")
    return cfg


def _demand_from_dict(data) -> DemandGenConfig:
    if not isinstance(data, dict):
        raise InvalidConfig(f"field 'demand': expected an object, got {type(data).__name__}")
    if "seed" in data:
        raise InvalidConfig("field 'demand': 'seed' is not used; series seeds derive from 'seed'")
    # experiment runners replace the seed per series; 0 is a placeholder
    return _load(DemandGenConfig, {"seed": 0, **data}, prefix="field 'demand': ")


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
        check_int("field 'series_count':", self.series_count, 2, MAX_COUNT)
        check_int("field 'forecasts_per_series':", self.forecasts_per_series, 2, MAX_COUNT)
        levels = _levels("variance_levels", self.variance_levels, 2)
        if any(v < 0 for v in levels):
            raise InvalidConfig("field 'variance_levels': sigma values must be >= 0")
        object.__setattr__(self, "variance_levels", levels)
        object.__setattr__(self, "metrics", _metric_names(self.metrics))
        if self.error_directions not in _DIRECTIONS:
            raise InvalidConfig(
                f"field 'error_directions': must be one of {_DIRECTIONS}, got {self.error_directions!r}"
            )
        check_number("field 'error_mu':", self.error_mu)
        check_seed("field 'seed':", self.seed)

    from_dict = classmethod(_load)


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
        object.__setattr__(self, "mu_levels", _levels("mu_levels", self.mu_levels, 3))
        check_number("field 'sigma':", self.sigma, 0)
        check_int("field 'series_count':", self.series_count, 2, MAX_COUNT)
        check_int("field 'forecasts_per_series':", self.forecasts_per_series, 2, MAX_COUNT)
        object.__setattr__(self, "metrics", _metric_names(self.metrics))
        check_seed("field 'seed':", self.seed)

    from_dict = classmethod(_load)


@dataclass(frozen=True)
class SegmentReliabilityConfig:
    """Structurally distinct series whose extracts are scored by group. Series i
    takes ``magnitude_mus[i]`` as its magnitude mean: ``demand.magnitude_mu`` has no effect."""

    demand: DemandGenConfig
    magnitude_mus: tuple[float, ...]
    window: int
    segments_per_series: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        mus = _numbers("magnitude_mus", self.magnitude_mus)
        if len(mus) < 2:
            raise InvalidConfig("field 'magnitude_mus': need at least 2 series")
        object.__setattr__(self, "magnitude_mus", mus)
        check_int("field 'window':", self.window, 2)
        check_int("field 'segments_per_series':", self.segments_per_series, 2, MAX_COUNT)
        if self.window > self.demand.n:
            raise InvalidConfig(
                f"field 'window': {self.window} exceeds the demand horizon {self.demand.n}"
            )
        check_seed("field 'seed':", self.seed)

    from_dict = classmethod(_load)


@dataclass(frozen=True)
class MetricOutcome:
    """Correlation result for one metric within one experiment."""

    metric: str
    r: float | None = None
    n: int = 0
    not_calculable: str | None = None
    per_level_mean: tuple[float, ...] | None = None
    per_level_variance: tuple[float, ...] | None = None


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
        payload = asdict(self)
        if self.levene is not None:
            payload["levene"]["w"] = json_number(self.levene.w)
        return payload

    def to_json(self) -> str:
        return dump_json(self.to_dict())


def _error_config(direction: str, mu: float, sigma: float) -> ErrorInjectionConfig:
    """A block's error; its seed is unused, as each forecast draws from its own stream."""
    vertical = direction in ("vertical", "both")
    horizontal = direction in ("horizontal", "both")
    return ErrorInjectionConfig(
        vertical_mu=mu if vertical else 0.0,
        vertical_sigma=sigma if vertical else 0.0,
        horizontal_mu=mu if horizontal else 0.0,
        horizontal_sigma=sigma if horizontal else 0.0,
    )


#: Most forecast values one batch holds: a cell's rows are scored
#: ``max(1, _BATCH_VALUES // n)`` at a time, so a study's memory does not grow
#: with its forecasts times its horizon.
_BATCH_VALUES = 2**14


def _pair_stream(
    config: ReliabilityConfig | ValidityConfig,
    direction: str,
    cells,
    bad: dict[str, int],
    params: SpecParams = DEFAULT_PARAMS,
    cost_params: SpecParams | None = None,
):
    """Score every forecast of every cell, in batches of at most :data:`_BATCH_VALUES` values.

    ``cells`` yields ``(demand key, forecast key prefix, [(level index, mu,
    sigma, key element)])``: one demand series, drawn from the seed at the
    demand key, and a block of forecasts per level, forecast ``f`` drawn
    from ``default_rng(derive_seed(seed, *prefix, key element, f))``. A
    cell's streams are seeded in one :func:`_streams` pass. A batch, at least
    one row, builds a generator per row from the row's words and takes the
    rows of each of its blocks from one :func:`perturb_forecast` call; it is one
    :class:`EvaluationPair`, scored in one :func:`compute_metric` call per
    metric and, when ``cost_params`` is given, priced in one
    :func:`stock_cost` call; a row's score and cost do not depend on its
    batch. Each block is yielded as ``(level index, {metric: values in
    forecast order}, costs)`` for the metrics keyed in ``bad``, ``costs``
    holding each forecast's warehouse cost, or empty without ``cost_params``.
    Non-finite values stay in the block and are counted per metric into ``bad``.
    """
    k = config.forecasts_per_series
    for demand_key, prefix, blocks in cells:
        actual = generate_demand(replace(config.demand, seed=derive_seed(config.seed, *demand_key)))
        errors = [_error_config(direction, mu, sigma) for _, mu, sigma, _ in blocks]
        words = _streams(config.seed, prefix, [key for *_, key in blocks], k)
        size = max(1, _BATCH_VALUES // actual.n)
        values: dict[str, list[float]] = {m: [] for m in bad}
        costs: list[float] = []
        # Values past the float range count as non-finite, without numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, len(words), size):
                hi = min(lo + size, len(words))
                streams = (np.random.Generator(np.random.PCG64(_Words(row))) for row in words[lo:hi])
                edges = [lo, *range(lo // k * k + k, hi, k), hi]  # where the batch's blocks meet
                pieces = [perturb_forecast(actual, errors[a // k], islice(streams, b - a))
                          for a, b in zip(edges, edges[1:])]
                batch = EvaluationPair(actual, pieces[0] if len(pieces) == 1 else
                                       ForecastSeries._owning(np.concatenate([p.values for p in pieces])))
                costs += [] if cost_params is None else stock_cost(batch, cost_params).tolist()
                for m in bad:
                    scores = compute_metric(m, batch, params).value
                    values[m] += scores.tolist()
                    bad[m] += int(np.count_nonzero(~np.isfinite(scores)))
        for i, (l_idx, *_) in enumerate(blocks):
            block = slice(i * k, i * k + k)
            yield l_idx, {m: v[block] for m, v in values.items()}, costs[block]


def _outcome(metric: str, bad: int, xs, ys, **per_level) -> MetricOutcome:
    """Correlate ``xs`` with ``ys`` unless a value was non-finite or an input is constant."""
    if bad:
        return MetricOutcome(metric=metric, not_calculable=f"{bad} non-finite metric values")
    try:
        r = pearson(xs, ys)
    except DegenerateInput:
        return MetricOutcome(metric=metric, not_calculable="degenerate correlation input", **per_level)
    return MetricOutcome(metric=metric, r=r, n=len(xs), **per_level)


def _series_cells(config: ReliabilityConfig):
    """Series-outer cells: demand key (0, s), forecast keys (1, s, l, f)."""
    for s_idx in range(config.series_count):
        yield (0, s_idx), (1, s_idx), [
            (l_idx, config.error_mu, sigma, l_idx) for l_idx, sigma in enumerate(config.variance_levels)
        ]


def run_reliability(config: ReliabilityConfig) -> ExperimentReport:
    """Correlate injected error variance with the variance of each metric.

    Per (series, level), the metric's variance is taken across that series'
    forecasts; per level those variances are averaged across series; the
    reported r correlates the injected variances (sigma squared) with the
    per-level averages.
    """
    levels = config.variance_levels
    bad = dict.fromkeys(config.metrics, 0)
    block_variances = {m: [[] for _ in levels] for m in config.metrics}
    for l_idx, values, _ in _pair_stream(config, config.error_directions, _series_cells(config), bad):
        for m, block in values.items():
            block_variances[m][l_idx].append(variance(block))

    injected_variances = [s * s for s in levels]
    outcomes = {}
    for m in config.metrics:
        per_level = tuple(mean(group) for group in block_variances[m])
        outcomes[m] = _outcome(m, bad[m], injected_variances, per_level, per_level_variance=per_level)
    return ExperimentReport(
        kind="reliability", seed=config.seed, config=asdict(config), levels=levels, metrics=outcomes
    )


def run_validity(config: ValidityConfig) -> ExperimentReport:
    """Correlate a swept systematic error shift with mean metric scores.

    Each level draws its own demand series (seeds derived per level and
    series), each series its own perturbed forecasts; the reported r
    correlates the shift levels with the per-level mean metric value.
    Percentage-family metrics are not scored in horizontal sweeps (see
    :data:`PERCENTAGE_METRICS`), and any metric producing a non-finite value
    anywhere in the sweep is reported as not calculable rather than silently
    dropped from some cells.
    """
    levels = config.mu_levels
    horizontal = config.direction == "horizontal"
    bad = {m: 0 for m in config.metrics if not (horizontal and m in PERCENTAGE_METRICS)}
    cells = (  # none when no metric is scored, so no series is drawn
        ((0, l_idx, s_idx), (1, l_idx), [(l_idx, mu, config.sigma, s_idx)])
        for l_idx, mu in enumerate(levels)
        for s_idx in range(config.series_count if bad else 0)
    )
    level_values = {m: [[] for _ in levels] for m in bad}
    for l_idx, values, _ in _pair_stream(config, config.direction, cells, bad):
        for m, block in values.items():
            level_values[m][l_idx].extend(block)

    outcomes = {}
    for m in config.metrics:
        if m not in bad:
            outcomes[m] = MetricOutcome(
                metric=m, not_calculable="percentage-family metric under horizontal shift"
            )
            continue
        per_level_mean = tuple(mean(values) for values in level_values[m])
        outcomes[m] = _outcome(
            m, bad[m], levels, per_level_mean,
            per_level_mean=per_level_mean,
            per_level_variance=tuple(variance(values) for values in level_values[m]),
        )
    return ExperimentReport(
        kind="validity", seed=config.seed, config=asdict(config), levels=levels, metrics=outcomes
    )


def run_segment_reliability(
    series_set: Sequence[DemandSeries],
    window: int,
    segments_per_series: int,
    seed: int,
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
    check_int("field 'segments_per_series':", segments_per_series, 2, MAX_COUNT)
    check_seed("field 'seed':", seed)
    groups: list[list[float]] = []
    for idx, series in enumerate(series_set):
        extracts = segment_extracts(series, window, segments_per_series, derive_seed(seed, 2, idx))
        groups.append(
            [spec_fast(EvaluationPair(seg, naive_forecast(seg))) for seg in extracts]
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


def run_segment_reliability_config(config: SegmentReliabilityConfig) -> ExperimentReport:
    """Generate structurally distinct series per config, then group-score them."""
    series_set = [
        generate_demand(
            replace(config.demand, magnitude_mu=mu, seed=derive_seed(config.seed, 0, idx))
        )
        for idx, mu in enumerate(config.magnitude_mus)
    ]
    report = run_segment_reliability(series_set, config.window, config.segments_per_series, config.seed)
    return replace(report, config=asdict(config))


def run_cost_validity(
    config: ReliabilityConfig,
    cost_params: SpecParams = DEFAULT_PARAMS,
    metric_params: SpecParams | None = None,
) -> ExperimentReport:
    """Correlate each metric with the warehouse cost oracle, pair by pair.

    ``cost_params`` prices the ground-truth cost; ``metric_params`` (defaults
    to the same weights) parameterizes the scored metric, so a deliberate
    mismatch between the two can be studied. A cost past the float range raises StatsError.
    """
    if metric_params is None:
        metric_params = cost_params
    bad = dict.fromkeys(config.metrics, 0)
    metric_values: dict[str, list[float]] = {m: [] for m in config.metrics}
    costs: list[float] = []
    for _, values, block_costs in _pair_stream(
        config, config.error_directions, _series_cells(config), bad, metric_params, cost_params
    ):
        costs.extend(block_costs)
        for m, block in values.items():
            metric_values[m].extend(block)
    if not all(map(math.isfinite, costs)):
        raise StatsError("warehouse cost overflows the float range")

    return ExperimentReport(
        kind="cost-validity",
        seed=config.seed,
        config={
            **asdict(config),
            "cost_alpha1": cost_params.alpha1,
            "cost_alpha2": cost_params.alpha2,
            "metric_alpha1": metric_params.alpha1,
            "metric_alpha2": metric_params.alpha2,
        },
        levels=config.variance_levels,
        metrics={m: _outcome(m, bad[m], metric_values[m], costs) for m in config.metrics},
        extras={"cost_mean": mean(costs), "cost_variance": variance(costs)},
    )


def _params_from_dict(data: dict, prefix: str) -> SpecParams | None:
    """Pop ``<prefix>alpha1``/``<prefix>alpha2``; None when neither is given."""
    given = {name: data.pop(prefix + name) for name in ("alpha1", "alpha2") if prefix + name in data}
    return SpecParams(**given) if given else None


def _cost_validity_from_dict(data: dict) -> tuple[ReliabilityConfig, SpecParams, SpecParams | None]:
    """A reliability config plus optional ``cost_alpha*`` and ``metric_alpha*`` weights."""
    fields_left = dict(data)
    cost_params = _params_from_dict(fields_left, "cost_") or DEFAULT_PARAMS
    metric_params = _params_from_dict(fields_left, "metric_")
    return ReliabilityConfig.from_dict(fields_left), cost_params, metric_params
