"""Traditional forecast accuracy measures with pinned conventions.

Percentage-family metrics can legitimately be infinite or undefined on
intermittent series, so every metric returns a float instead of raising: a
finite value, ``math.inf``, or ``math.nan`` for undefined. On a pair whose
forecast is a (k, n) block, every metric returns a float64 array of k such
values, each the lone call's value on its row bit for bit: a metric has one
block body, and a lone forecast is its block of one row (``spec.by_row``).
The exact conventions (term skipping, scaling windows) are documented on
each function because published definitions vary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidConfig
from .series import EvaluationPair
from .spec import DEFAULT_PARAMS, SpecParams, _rescaled, by_row, spec_fast


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
    """``reduce`` of ``terms(y, block)`` along every row at once (:func:`by_row`);
    a row it leaves non-finite is reduced again :func:`_rescaled` on its own terms."""
    return by_row(pair, lambda y, block: reduce(*terms(y, block)),
                  lambda y, row: _rescaled(reduce, terms(y, row), degrees))


def _errors(y: np.ndarray, f: np.ndarray) -> tuple[np.ndarray]:
    return (f - y,)


def _absolute_errors(y: np.ndarray, f: np.ndarray) -> tuple[np.ndarray]:
    e = f - y
    return (np.abs(e, out=e),)  # in place: it holds one array


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


def _percentage(y: np.ndarray, block: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` of each row's terms |e_t| / y_t, or its degenerate outcome.

    Steps with y_t = 0 and e_t = 0 are skipped; a row with volume at any step
    with y_t = 0 is positive infinity, and a row with no step left is
    undefined. Every other row keeps the steps where y_t != 0, so their terms
    form one C-order array, reduced along its rows as each row's lone call
    would be. Where a row's reduction passes the float range, it is taken
    again on its terms scaled below 1 by one power of two, which also covers
    a term that itself passed the range.
    """
    keep = y != 0
    values = np.full(len(block), math.inf)
    rows = np.flatnonzero(~((block != 0) & ~keep).any(axis=1))
    if not keep.any():
        values[rows] = math.nan
        return values

    def errors(rows: np.ndarray) -> np.ndarray:
        # compress, not block[:, keep]: that is F-order, and sums in another order
        e = np.compress(keep, block if rows.size == len(block) else block[rows], axis=1)
        return np.abs(np.subtract(e, y[keep], out=e), out=e)

    if rows.size:
        terms = errors(rows)
        values[rows] = reduce(np.divide(terms, y[keep], out=terms))
    over = rows[~np.isfinite(values[rows])]
    if over.size:
        # A term is its mantissa ratio times 2**(its exponent difference), so a
        # row's terms are below 1 scaled by 2**-j, j one more than its largest difference.
        (me, ee), (my, ey) = np.frexp(errors(over)), np.frexp(y[keep])
        d = ee - ey
        j = d.max(axis=1) + 1
        with np.errstate(over="ignore"):  # a value past the float range is inf
            values[over] = np.ldexp(reduce(np.ldexp(me / my, d - j[:, None])), j)
    return values


def mape(pair: EvaluationPair) -> float | np.ndarray:
    """Mean absolute percentage error (ratio, not multiplied by 100)."""
    return by_row(pair, lambda y, block: _percentage(y, block, _mean))


def mdape(pair: EvaluationPair) -> float | np.ndarray:
    """Median absolute percentage error, same term conventions as mape."""
    return by_row(pair, lambda y, block: _percentage(y, block, _median))


def rmspe(pair: EvaluationPair) -> float | np.ndarray:
    """Root mean squared percentage error, same term conventions as mape."""
    return by_row(pair, lambda y, block: _percentage(y, block, _root_mean_square))


def _smape_rows(y: np.ndarray, block: np.ndarray) -> np.ndarray:
    """smape of each row, NaN for a row without volume. The terms are taken for
    the whole block, and the rows of each count c of kept terms are summed as
    one C-contiguous (rows, c) array, which sums each row as a lone row's 1-d
    sum does; a ``where=`` mean would sum in another order."""
    terms = y + block  # the denominators: both are non-negative
    if np.isinf(terms).any():
        big = np.isinf(terms)
        y, block = np.where(big, y / 2, y), np.where(big, block / 2, block)
        np.add(y, block, out=terms)
    keep = terms > 0
    groups: dict[int, list[int]] = {}  # the rows of each count of kept terms
    for row, c in enumerate(keep.sum(axis=1).tolist()):
        groups.setdefault(c, []).append(row)
    order = [row for _, rows in sorted(groups.items()) for row in rows]
    with np.errstate(invalid="ignore"):  # 0 / 0 at the steps keep drops
        np.divide(*_absolute_errors(y, block), terms, out=terms)
    terms, keep = terms[order], keep[order]  # the rows in count order
    kept = terms[keep]
    values = np.full(len(order), math.nan)  # a row without volume stays NaN
    start = 0
    for c, rows in sorted(groups.items()):
        if c:
            values[rows] = np.add.reduce(kept[start:start + len(rows) * c].reshape(-1, c), axis=1) / c
        start += len(rows) * c
    return values


def smape(pair: EvaluationPair) -> float | np.ndarray:
    """Symmetric mean absolute percentage error on a [0, 1] scale.

    Convention: mean of |e_t| / (|y_t| + |f_t|) over the steps where the
    denominator is positive; undefined when no step has any volume. A step
    whose denominator passes the float range is taken on its halved values,
    which leaves its term exact, so it is neither a false 0 nor dropped.
    """
    return by_row(pair, _smape_rows)


def _naive_scale(reduce, steps: np.ndarray) -> float:
    """``reduce(steps)``, or NaN for a constant actual series; a scale past the
    float range reads NaN too, not a false 0, so a ratio over it is rescued."""
    scale = reduce(steps) if steps.size else 0.0
    return scale if 0.0 < scale < math.inf else math.nan


def _naive_steps(y: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The absolute errors, and the absolute steps of the one-step naive forecast."""
    return (*_absolute_errors(y, f), *_absolute_errors(y[1:], y[:-1]))


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
