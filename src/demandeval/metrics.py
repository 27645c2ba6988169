"""Traditional forecast accuracy measures with pinned conventions.

Percentage-family metrics can legitimately be infinite or undefined on
intermittent series, so every metric returns a float instead of raising: a
finite value, ``math.inf``, or ``math.nan`` for undefined. On a pair whose
forecast is a (k, n) block, every metric returns a float64 array of k such
values, each the 1-d call's value on its row bit for bit. The exact
conventions (term skipping, scaling windows) are documented on each function
because published definitions vary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidConfig
from .series import EvaluationPair
from .spec import DEFAULT_PARAMS, SpecParams, by_row, rescued, spec_fast


@dataclass(frozen=True)
class ExtendedValue:
    """A metric outcome: a finite real, ``math.inf``, or ``math.nan`` for
    undefined; for a (k, n) forecast block, an array of k of them."""

    value: float | np.ndarray

    @property
    def is_finite(self) -> bool:
        """Whether the value, or every entry of an array value, is finite."""
        return bool(np.isfinite(self.value).all())


def _mean(x: np.ndarray):
    """``x.mean()`` without its Python wrapper: the same pairwise sum, then one
    division. Of a (k, n) block, the mean of each row, with the bits of its 1-d call."""
    if x.ndim == 1:
        return float(np.add.reduce(x)) / x.size
    return np.add.reduce(x, axis=1) / x.shape[1]


def _mean_square(x: np.ndarray):
    return _mean(x * x)


def _root_mean_square(x: np.ndarray):
    return np.sqrt(_mean_square(x))


def _median(x: np.ndarray):
    return np.median(x, axis=-1)


def _reduced(pair: EvaluationPair, terms, reduce, degrees: tuple[int, ...] = (1,)):
    """:func:`rescued` ``reduce`` of ``terms(y, f)``; on a (k, n) forecast block,
    ``reduce`` runs along every row at once (:func:`by_row`)."""
    return by_row(pair, lambda y, f: rescued(reduce, *terms(y, f), degrees=degrees),
                  lambda y, block: reduce(*terms(y, block)))


def _errors(y: np.ndarray, f: np.ndarray) -> tuple[np.ndarray]:
    return (f - y,)


def _absolute_errors(y: np.ndarray, f: np.ndarray) -> tuple[np.ndarray]:
    return (np.abs(f - y),)


def mae(pair: EvaluationPair) -> float | np.ndarray:
    """Mean absolute error."""
    return _reduced(pair, _absolute_errors, _mean)


def mdae(pair: EvaluationPair) -> float | np.ndarray:
    """Median absolute error."""
    return _reduced(pair, _absolute_errors, _median)


def mse(pair: EvaluationPair) -> float | np.ndarray:
    """Mean squared error."""
    return _reduced(pair, _errors, _mean_square, (2,))


def rmse(pair: EvaluationPair) -> float | np.ndarray:
    """Root mean squared error."""
    return _reduced(pair, _errors, _root_mean_square)


def _percentage(y: np.ndarray, f: np.ndarray, reduce) -> float:
    """``reduce`` of the terms |e_t| / y_t, or the degenerate outcome.

    Steps with y_t = 0 and e_t = 0 are skipped; any step with y_t = 0 and
    e_t != 0 makes the whole percentage-family result positive infinity, and
    a result with no step left is undefined. Where the reduction passes the
    float range, it is taken again on every term scaled below 1 by one power
    of two, which also covers a term that itself passed the range.
    """
    e = np.abs(f - y)
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


def mape(pair: EvaluationPair) -> float | np.ndarray:
    """Mean absolute percentage error (ratio, not multiplied by 100)."""
    return by_row(pair, lambda y, f: _percentage(y, f, _mean))


def mdape(pair: EvaluationPair) -> float | np.ndarray:
    """Median absolute percentage error, same term conventions as mape."""
    return by_row(pair, lambda y, f: _percentage(y, f, _median))


def rmspe(pair: EvaluationPair) -> float | np.ndarray:
    """Root mean squared percentage error, same term conventions as mape."""
    return by_row(pair, lambda y, f: _percentage(y, f, _root_mean_square))


def _smape(y: np.ndarray, f: np.ndarray) -> float:
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


def _smape_rows(y: np.ndarray, block: np.ndarray) -> np.ndarray:
    """smape of each row, NaN where :func:`_smape` must take the row: no volume,
    or a denominator past the float range. The terms are taken for the whole
    block, and the rows of each count c of kept terms are summed as one
    C-contiguous (rows, c) array, which sums each row as its 1-d call does; a
    ``where=`` mean would sum in another order."""
    denom = y + block
    keep = denom > 0
    groups: dict[int, list[int]] = {}  # the rows of each count of kept terms
    for row, c in enumerate(keep.sum(axis=1).tolist()):
        groups.setdefault(c, []).append(row)
    order = [row for _, rows in sorted(groups.items()) for row in rows]
    past = np.isinf(denom).any(axis=1)
    with np.errstate(invalid="ignore"):  # 0 / 0 at the steps keep drops
        terms = np.divide(np.abs(block - y), denom, out=denom)
    kept = terms[order][keep[order]]  # each row's kept terms, the rows in count order
    values = np.full(len(order), math.nan)  # a row without volume stays NaN
    start = 0
    for c, rows in sorted(groups.items()):
        if c:
            values[rows] = np.add.reduce(kept[start:start + len(rows) * c].reshape(-1, c), axis=1) / c
        start += len(rows) * c
    values[past] = math.nan
    return values


def smape(pair: EvaluationPair) -> float | np.ndarray:
    """Symmetric mean absolute percentage error on a [0, 1] scale.

    Convention: mean of |e_t| / (|y_t| + |f_t|) over the steps where the
    denominator is positive; undefined when no step has any volume. A step
    whose denominator passes the float range is taken on its halved values,
    which leaves its term exact, so it is neither a false 0 nor dropped.
    """
    return by_row(pair, _smape, _smape_rows)


def _naive_scale(reduce, steps: np.ndarray) -> float:
    """``reduce(steps)``, or NaN for a constant actual series; a scale past the
    float range reads NaN too, not a false 0, so a ratio over it is rescued."""
    scale = reduce(steps) if steps.size else 0.0
    return scale if 0.0 < scale < math.inf else math.nan


def _naive_steps(y: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The absolute errors, and the absolute steps of the one-step naive forecast."""
    return np.abs(f - y), np.abs(y[1:] - y[:-1])


def _mase(e: np.ndarray, steps: np.ndarray):
    return _mean(e) / _naive_scale(_mean, steps)


def _rmsse(e: np.ndarray, steps: np.ndarray):
    return np.sqrt(_mean_square(e) / _naive_scale(_mean_square, steps))


def mase(pair: EvaluationPair) -> float | np.ndarray:
    """Mean absolute scaled error.

    Scaled by the in-sample one-step naive forecast over the same window:
    mae / (sum_{t=2..n} |y_t - y_{t-1}| / (n-1)). Undefined (NaN) only when
    the actual series is constant.
    """
    return _reduced(pair, _naive_steps, _mase, (1, -1))


def rmsse(pair: EvaluationPair) -> float | np.ndarray:
    """Root mean squared scaled error: sqrt(mse / mean squared naive step), NaN where mase is."""
    return _reduced(pair, _naive_steps, _rmsse, (1, -1))


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


def _entries(name: str, values, kind: str) -> tuple:
    try:
        if not isinstance(values, (str, dict)):  # tuple() would split a str, key a dict
            return tuple(values)
    except TypeError:
        pass
    raise InvalidConfig(f"field '{name}': expected a list of {kind}, got {values!r}")


def _metric_names(metrics: Sequence[str]) -> tuple[str, ...]:
    names = _entries("metrics", metrics, "metric names")
    if not names:
        raise InvalidConfig("field 'metrics': at least one metric is required; no metrics selected")
    unknown = [m for m in names if m not in METRIC_NAMES]
    if unknown:
        known = ", ".join(METRIC_NAMES)
        raise InvalidConfig(f"field 'metrics': unknown metric names {unknown!r}; known: {known}")
    if len(set(names)) != len(names):
        raise InvalidConfig("field 'metrics': duplicate metric names")
    return names


def compute_metric(name: str, pair: EvaluationPair, params: SpecParams = DEFAULT_PARAMS) -> ExtendedValue:
    """Evaluate a single metric by report name, on one pair or a (k, n) forecast
    block (an array of one value per row).

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
    names = METRIC_NAMES if metrics is None else _metric_names(metrics)
    # Values past the float range become inf or nan, which the report renders.
    with np.errstate(over="ignore", invalid="ignore"):
        return {name: compute_metric(name, pair, params).value for name in names}
