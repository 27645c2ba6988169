"""Traditional forecast accuracy measures with pinned conventions.

Percentage-family metrics can legitimately be infinite or undefined on
intermittent series, so every metric returns a float instead of raising: a
finite value, ``math.inf``, or ``math.nan`` for undefined. The exact
conventions (term skipping, scaling windows) are documented on each function
because published definitions vary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .series import EvaluationPair
from .spec import DEFAULT_PARAMS, SpecParams, rescued, spec_fast


@dataclass(frozen=True)
class ExtendedValue:
    """A metric outcome: a finite real, ``math.inf``, or ``math.nan`` for undefined."""

    value: float

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)


def _errors(pair: EvaluationPair) -> np.ndarray:
    return pair.forecast.values - pair.actual.values


def _mean(x: np.ndarray) -> float:
    """``x.mean()`` without its Python wrapper: the same pairwise sum, then one division."""
    return float(np.add.reduce(x)) / x.size


def _mean_square(x: np.ndarray) -> float:
    return _mean(x * x)


def _root_mean_square(x: np.ndarray) -> float:
    return math.sqrt(_mean_square(x))


def mae(pair: EvaluationPair) -> float:
    """Mean absolute error."""
    return rescued(_mean, np.abs(_errors(pair)))


def mdae(pair: EvaluationPair) -> float:
    """Median absolute error."""
    return rescued(np.median, np.abs(_errors(pair)))


def mse(pair: EvaluationPair) -> float:
    """Mean squared error."""
    return rescued(_mean_square, _errors(pair), degrees=(2,))


def rmse(pair: EvaluationPair) -> float:
    """Root mean squared error."""
    return rescued(_root_mean_square, _errors(pair))


def _percentage(pair: EvaluationPair, reduce) -> float:
    """``reduce`` of the terms |e_t| / y_t, or the degenerate outcome.

    Steps with y_t = 0 and e_t = 0 are skipped; any step with y_t = 0 and
    e_t != 0 makes the whole percentage-family result positive infinity, and
    a result with no step left is undefined. Where the reduction passes the
    float range, it is taken again on every term scaled below 1 by one power
    of two, which also covers a term that itself passed the range.
    """
    y = pair.actual.values
    e = np.abs(_errors(pair))
    zero_y = y == 0
    if (zero_y & (e != 0)).any():
        return math.inf
    keep = ~zero_y
    if not keep.any():
        return math.nan
    e, y = e[keep], y[keep]
    value = reduce(e / y)
    if value < math.inf:
        return float(value)
    # A term is its mantissa ratio times 2**(its exponent difference), so it
    # is below 1 scaled by 2**-j, j one more than the largest difference.
    (me, ee), (my, ey) = np.frexp(e), np.frexp(y)
    j = int((ee - ey).max()) + 1
    with np.errstate(over="ignore"):  # a value past the float range is inf
        return float(np.ldexp(reduce(np.ldexp(me / my, ee - ey - j)), j))


def mape(pair: EvaluationPair) -> float:
    """Mean absolute percentage error (ratio, not multiplied by 100)."""
    return _percentage(pair, _mean)


def mdape(pair: EvaluationPair) -> float:
    """Median absolute percentage error, same term conventions as mape."""
    return _percentage(pair, np.median)


def rmspe(pair: EvaluationPair) -> float:
    """Root mean squared percentage error, same term conventions as mape."""
    return _percentage(pair, _root_mean_square)


def smape(pair: EvaluationPair) -> float:
    """Symmetric mean absolute percentage error on a [0, 1] scale.

    Convention: mean of |e_t| / (|y_t| + |f_t|) over the steps where the
    denominator is positive; undefined when no step has any volume. A step
    whose denominator passes the float range is taken on its halved values,
    which leaves its term exact, so it is neither a false 0 nor dropped.
    """
    y = pair.actual.values
    f = pair.forecast.values
    denom = y + f  # both are non-negative
    top = np.maximum.reduce(denom)
    if top == 0:
        return math.nan
    if top == math.inf:
        big = denom == math.inf
        y, f = np.where(big, y / 2, y), np.where(big, f / 2, f)
        denom = y + f
    keep = denom > 0
    return _mean(np.abs(f[keep] - y[keep]) / denom[keep])


def _naive_scaled(reduce, e: np.ndarray, steps: np.ndarray, finish=float) -> float:
    """``finish(reduce(e) / reduce(steps))``, NaN for a constant actual series; a
    scale past the float range reads NaN, not a false 0, so both are rescued."""

    def ratio(e: np.ndarray, steps: np.ndarray) -> float:
        scale = reduce(steps) if steps.size else 0.0
        return finish(reduce(e) / scale) if 0.0 < scale < math.inf else math.nan

    return rescued(ratio, e, steps, degrees=(1, -1))


def mase(pair: EvaluationPair) -> float:
    """Mean absolute scaled error.

    Scaled by the in-sample one-step naive forecast over the same window:
    mae / (sum_{t=2..n} |y_t - y_{t-1}| / (n-1)). Undefined (NaN) only when
    the actual series is constant.
    """
    return _naive_scaled(_mean, np.abs(_errors(pair)), np.abs(np.diff(pair.actual.values)))


def rmsse(pair: EvaluationPair) -> float:
    """Root mean squared scaled error: sqrt(mse / mean squared naive step), NaN where mase is."""
    return _naive_scaled(_mean_square, _errors(pair), np.diff(pair.actual.values), math.sqrt)


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
    """Evaluate a single metric by report name.

    The only place a value is wrapped in an :class:`ExtendedValue`, because the
    benchmark tracer reads ``.is_finite`` from this function's result.
    """
    if name != "spec" and name not in _METRIC_FUNCS:
        raise InvalidConfig(f"unknown metric {name!r}; known: {', '.join(METRIC_NAMES)}")
    return ExtendedValue(spec_fast(pair, params) if name == "spec" else _METRIC_FUNCS[name](pair))


def compute_all(
    pair: EvaluationPair,
    params: SpecParams = DEFAULT_PARAMS,
    metrics: tuple[str, ...] | list[str] | None = None,
) -> dict[str, float]:
    """Evaluate the requested metrics (default: all; no repeats) for one pair, in request order."""
    names = METRIC_NAMES if metrics is None else tuple(metrics)
    if not names:
        raise InvalidConfig("no metrics selected")
    if len(set(names)) != len(names):
        raise InvalidConfig("duplicate metric names")
    # Values past the float range become inf or nan, which the report renders.
    with np.errstate(over="ignore", invalid="ignore"):
        return {name: compute_metric(name, pair, params).value for name in names}
