"""Traditional forecast accuracy measures with pinned conventions.

Percentage-family metrics can legitimately be infinite or undefined on
intermittent series, so every metric returns an :class:`ExtendedValue`
instead of raising. The exact conventions (term skipping, scaling windows)
are documented on each function because published definitions vary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .series import EvaluationPair
from .spec import DEFAULT_PARAMS, SpecParams, _scaled, spec_fast


@dataclass(frozen=True)
class ExtendedValue:
    """A metric outcome: a finite real, ``math.inf``, or ``math.nan`` for undefined."""

    value: float

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)


@dataclass(frozen=True)
class MetricReport:
    """Named metric values for one evaluation pair."""

    entries: dict[str, ExtendedValue]
    params: SpecParams


def _errors(pair: EvaluationPair) -> np.ndarray:
    return pair.forecast.values - pair.actual.values


def _mean(x: np.ndarray) -> float:
    """``x.mean()`` without its Python wrapper: the same pairwise sum, then one division."""
    return float(np.add.reduce(x)) / x.size


def mae(pair: EvaluationPair) -> ExtendedValue:
    """Mean absolute error."""
    return ExtendedValue(_mean(np.abs(_errors(pair))))


def mdae(pair: EvaluationPair) -> ExtendedValue:
    """Median absolute error."""
    return ExtendedValue(float(np.median(np.abs(_errors(pair)))))


def mse(pair: EvaluationPair) -> ExtendedValue:
    """Mean squared error."""
    e = _errors(pair)
    return ExtendedValue(_mean(e * e))


def rmse(pair: EvaluationPair) -> ExtendedValue:
    """Root mean squared error."""
    e = _errors(pair)
    return ExtendedValue(math.sqrt(_mean(e * e)))


def _percentage(pair: EvaluationPair, reduce) -> ExtendedValue:
    """``reduce`` of the terms |e_t| / y_t, or the degenerate outcome.

    Steps with y_t = 0 and e_t = 0 are skipped; any step with y_t = 0 and
    e_t != 0 makes the whole percentage-family result positive infinity, and
    a result with no step left is undefined.
    """
    y = pair.actual.values
    e = np.abs(_errors(pair))
    zero_y = y == 0
    if (zero_y & (e != 0)).any():
        return ExtendedValue(math.inf)
    keep = ~zero_y
    if not keep.any():
        return ExtendedValue(math.nan)
    return ExtendedValue(float(reduce(e[keep] / y[keep])))


def mape(pair: EvaluationPair) -> ExtendedValue:
    """Mean absolute percentage error (ratio, not multiplied by 100)."""
    return _percentage(pair, _mean)


def mdape(pair: EvaluationPair) -> ExtendedValue:
    """Median absolute percentage error, same term conventions as mape."""
    return _percentage(pair, np.median)


def rmspe(pair: EvaluationPair) -> ExtendedValue:
    """Root mean squared percentage error, same term conventions as mape."""
    return _percentage(pair, lambda t: math.sqrt(_mean(t * t)))


def smape(pair: EvaluationPair) -> ExtendedValue:
    """Symmetric mean absolute percentage error on a [0, 1] scale.

    Convention: mean of |e_t| / (|y_t| + |f_t|) over the steps where the
    denominator is positive; undefined when no step has any volume.
    """
    y = pair.actual.values
    f = pair.forecast.values
    denom = y + f  # both are non-negative
    keep = denom > 0
    if not keep.any():
        return ExtendedValue(math.nan)
    terms = np.abs(f[keep] - y[keep]) / denom[keep]
    return ExtendedValue(_mean(terms))


def mase(pair: EvaluationPair) -> ExtendedValue:
    """Mean absolute scaled error.

    Scaled by the in-sample one-step naive forecast over the same window:
    mae / (sum_{t=2..n} |y_t - y_{t-1}| / (n-1)). Undefined when the actual
    series is constant (zero scale). A scale past the float range gives NaN,
    not a false 0, and :func:`compute_metric` then rescores the pair.
    """
    y = pair.actual.values
    scale = _mean(np.abs(np.diff(y))) if y.size > 1 else 0.0
    if not 0.0 < scale < math.inf:
        return ExtendedValue(math.nan)
    return ExtendedValue(_mean(np.abs(_errors(pair))) / scale)


def rmsse(pair: EvaluationPair) -> ExtendedValue:
    """Root mean squared scaled error, the squared-error analogue of mase, NaN where mase is."""
    y = pair.actual.values
    d = np.diff(y)
    scale_sq = _mean(d * d) if y.size > 1 else 0.0
    if not 0.0 < scale_sq < math.inf:
        return ExtendedValue(math.nan)
    e = _errors(pair)
    return ExtendedValue(math.sqrt(_mean(e * e) / scale_sq))


_METRIC_FUNCS = {
    "mae": mae,
    "mdae": mdae,
    "mse": mse,
    "rmse": rmse,
    "mape": mape,
    "mdape": mdape,
    "rmspe": rmspe,
    "smape": smape,
    "mase": mase,
    "rmsse": rmsse,
}

#: Report order for the full metric set.
METRIC_NAMES = (*_METRIC_FUNCS, "spec")

#: Degree in the quantities of each metric whose sums can overflow where its value does not.
_DEGREES = {"mae": 1, "mdae": 1, "mse": 2, "rmse": 1, "mase": 0, "rmsse": 0}


def compute_metric(name: str, pair: EvaluationPair, params: SpecParams = DEFAULT_PARAMS) -> ExtendedValue:
    """Evaluate a single metric by report name; a non-finite value is rescored
    on the pair scaled by a power of two (see :func:`demandeval.spec._scaled`)."""
    if name == "spec":
        return ExtendedValue(spec_fast(pair, params))
    try:
        func = _METRIC_FUNCS[name]
    except KeyError:
        raise InvalidParams(f"unknown metric {name!r}; known: {', '.join(METRIC_NAMES)}") from None
    result = func(pair)
    if math.isfinite(result.value) or name not in _DEGREES:
        return result
    scaled, k = _scaled(pair)
    with np.errstate(over="ignore"):  # a value past the float range is inf
        return ExtendedValue(float(np.ldexp(func(scaled).value, _DEGREES[name] * k)))


def compute_all(
    pair: EvaluationPair,
    params: SpecParams = DEFAULT_PARAMS,
    metrics: tuple[str, ...] | list[str] | None = None,
) -> MetricReport:
    """Evaluate the requested metrics (default: all) for one pair."""
    names = METRIC_NAMES if metrics is None else tuple(metrics)
    if not names:
        raise InvalidParams("no metrics selected")
    # Values past the float range become inf or nan, which the report renders.
    with np.errstate(over="ignore", invalid="ignore"):
        entries = {name: compute_metric(name, pair, params) for name in names}
    return MetricReport(entries=entries, params=params)
