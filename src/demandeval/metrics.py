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
from .spec import DEFAULT_PARAMS, SpecParams, spec_fast


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


def _naive_abs_scale(pair: EvaluationPair) -> float | None:
    y = pair.actual.values
    if y.size < 2:
        return None
    return _mean(np.abs(np.diff(y)))


def mase(pair: EvaluationPair) -> ExtendedValue:
    """Mean absolute scaled error.

    Scaled by the in-sample one-step naive forecast over the same window:
    mae / (sum_{t=2..n} |y_t - y_{t-1}| / (n-1)). Undefined when the actual
    series is constant (zero scale).
    """
    scale = _naive_abs_scale(pair)
    if not scale:
        return ExtendedValue(math.nan)
    return ExtendedValue(_mean(np.abs(_errors(pair))) / scale)


def rmsse(pair: EvaluationPair) -> ExtendedValue:
    """Root mean squared scaled error, the squared-error analogue of mase."""
    y = pair.actual.values
    if y.size < 2:
        return ExtendedValue(math.nan)
    d = np.diff(y)
    scale_sq = _mean(d * d)
    if scale_sq == 0.0:
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


def compute_metric(name: str, pair: EvaluationPair, params: SpecParams = DEFAULT_PARAMS) -> ExtendedValue:
    """Evaluate a single metric by report name."""
    if name == "spec":
        return ExtendedValue(spec_fast(pair, params))
    try:
        func = _METRIC_FUNCS[name]
    except KeyError:
        raise InvalidParams(f"unknown metric {name!r}; known: {', '.join(METRIC_NAMES)}") from None
    return func(pair)


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
