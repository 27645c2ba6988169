"""Every metric scores a (k, n) forecast block row by row, bit for bit.

A block is an ``EvaluationPair`` whose forecast holds k forecasts of the
same n steps, one per row. ``compute_metric``, the ten classic metrics,
``spec_fast`` and the warehouse oracle ``stock_cost`` return one float64 per
row, and each must be exactly the value the lone call gives on that row, NaN
equal to NaN, including the rows whose block form overflows and is rescued.

Every score has one block body, and a lone call is its block of one row, so
each classic metric's rows are also checked against a twin that scores one
forecast as a 1-d array: :func:`_percentage` and :func:`_smape` are the 1-d
bodies that the percentage family and sMAPE had before they took a block,
and the twin of each other metric is ``rescued`` on its terms of the 1-d row.
"""

import math

import numpy as np
import pytest

from demandeval import EvaluationPair, SpecParams, experiments, spec, spec_fast, stock_cost
from demandeval import metrics, warehouse
from demandeval.metrics import _METRIC_FUNCS, ExtendedValue, _mean, compute_metric, smape
from demandeval.spec import rescued
from demandeval.series import DemandSeries, ForecastSeries
from test_streamed_walks import WEIGHTS, _list_warehouse_totals, _long_pairs, _open_pairs, _pairs, _same

#: The kernel twin test's weightings, plus one whose charges overflow at any volume.
SPEC_WEIGHTS = (*WEIGHTS, SpecParams(1e306, 3e305))


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


def _reduced_twin(terms, reduce, degrees=(1,)):
    return lambda y, f: rescued(reduce, *terms(y, f), degrees=degrees)


#: Each classic metric's score of one forecast, as a 1-d array.
TWINS = {
    "mae": _reduced_twin(metrics._absolute_errors, metrics._mean),
    "mdae": _reduced_twin(metrics._absolute_errors, metrics._median),
    "mse": _reduced_twin(metrics._errors, metrics._mean_square, (2,)),
    "rmse": _reduced_twin(metrics._errors, metrics._root_mean_square),
    "mape": lambda y, f: _percentage(y, f, metrics._mean),
    "mdape": lambda y, f: _percentage(y, f, metrics._median),
    "rmspe": lambda y, f: _percentage(y, f, metrics._root_mean_square),
    "smape": _smape,
    "mase": _reduced_twin(metrics._naive_steps, metrics._mase, (1, -1)),
    "rmsse": _reduced_twin(metrics._naive_steps, metrics._rmsse, (1, -1)),
}


def _block(actual, rows) -> EvaluationPair:
    return EvaluationPair(DemandSeries(actual), ForecastSeries(np.array(rows, dtype=float)))


def _blocks_from(pairs, actuals_per_length: int, rows_per_block: int) -> list[EvaluationPair]:
    """For each length, the forecasts of the first pairs of that length as one
    block, against the actual of each of the first few pairs of that length."""
    by_length: dict[int, list[EvaluationPair]] = {}
    for pair in pairs:
        by_length.setdefault(pair.n, []).append(pair)
    blocks = []
    for group in by_length.values():
        rows = [pair.forecast.values for pair in group[:rows_per_block]]
        for pair in group[:actuals_per_length]:
            blocks.append(_block(pair.actual.values, rows))
    return blocks


def _study_blocks() -> list[EvaluationPair]:
    """The batches the study stream scores: 3 series, each of 5 levels x 50 forecasts."""
    config = experiments.ReliabilityConfig(
        demand=experiments._demand_from_dict(
            {"n": 96, "count_mu": 7.0, "count_sigma": 1.0, "magnitude_mu": 10.0, "magnitude_sigma": 2.0}),
        variance_levels=(0.5, 1.0, 1.5, 2.0, 2.5), series_count=3, forecasts_per_series=50,
        metrics=("spec",), seed=1,
    )
    blocks = []

    def record(name, pair, params):
        blocks.append(pair)
        return compute_metric(name, pair, params)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "compute_metric", record)
        experiments.run_reliability(config)
    # each series' 250 rows, in batches of at most _BATCH_VALUES values
    size = experiments._BATCH_VALUES // 96
    assert [b.forecast.values.shape for b in blocks] == [(size, 96), (250 - size, 96)] * 3
    return blocks


def _edge_blocks() -> list[EvaluationPair]:
    """All-zero rows, a constant actual, and rows that take the overflow rescues."""
    rng = np.random.default_rng(2525)
    n = 40
    lumpy = rng.uniform(0.1, 50, (6, n)) * (rng.random((6, n)) < 0.3)
    huge = 10.0 ** rng.uniform(300, 308, (6, n)) * (rng.random((6, n)) < 0.5)
    actual = rng.uniform(0.1, 50, n) * (rng.random(n) < 0.3)
    zeros = np.zeros((2, n))
    return [
        _block(actual, np.vstack([zeros, lumpy, huge])),
        _block(np.zeros(n), np.vstack([zeros, lumpy, huge])),  # constant: mase and rmsse NaN
        _block(np.full(n, 4.0), np.vstack([lumpy, zeros])),
        _block(10.0 ** rng.uniform(300, 308, n), np.vstack([huge, lumpy, zeros])),
        _block(np.full(n, 1.7e308), np.vstack([np.full((2, n), 1.7e308), huge])),
        _block([1e308, 1e308, 0.0], [[0.0, 0.0, 1e308], [1e308, 1e308, 0.0], [0.0, 0.0, 0.0]]),
        _block([1.5e308], [[5e307], [0.0], [1.5e308]]),
        _block([1e-200, 1.0, 1.0], [[1e-40, 1.0, 1.0], [1e300, 1.0, 0.0], [1e-200, 1.0, 1.0]]),
        # percentage terms whose sum passes the float range, rescued at two
        # different powers of two, next to finite rows and a row with volume where y = 0
        _block([1e-10, 1e-10, 0.0], [[1e298, 1e298, 0.0], [1.7e298, 1e297, 0.0], [1e-10, 2e-10, 0.0],
                                     [0.0, 0.0, 0.0], [1.0, 1.0, 5.0]]),
    ]


def _assert_rows_match(blocks, names=tuple(_METRIC_FUNCS), weights=SPEC_WEIGHTS,
                       evaluators=(spec_fast, stock_cost)):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for block in blocks:
            rows = [EvaluationPair(block.actual, ForecastSeries(f)) for f in block.forecast.values]
            for name in names:
                got = _METRIC_FUNCS[name](block)
                assert got.dtype == np.float64 and got.shape == (len(rows),)
                for row, g in zip(rows, got):
                    assert _same(g, _METRIC_FUNCS[name](row)), (name, row)
                    assert _same(g, TWINS[name](row.actual.values, row.forecast.values)), (name, row)
            for params in weights:
                for evaluate in evaluators:
                    got = evaluate(block, params)
                    assert got.dtype == np.float64 and got.shape == (len(rows),)
                    for row, g in zip(rows, got):
                        assert _same(g, evaluate(row, params)), (evaluate.__name__, params, row)


def test_blocks_of_the_kernel_twin_pairs():
    _assert_rows_match(_blocks_from(_pairs(), 2, 10))


def test_blocks_past_one_chunk():
    # stock_cost charges in Python every step that a lot or a backorder is
    # open, about 8 s per weighting on these random rows of up to 4,999 steps;
    # test_stock_cost_blocks_past_one_chunk checks its chunk boundaries
    _assert_rows_match(_blocks_from(_long_pairs(), 1, 10), evaluators=(spec_fast,))


def test_stock_cost_blocks_past_one_chunk(monkeypatch):
    # the hand-made rows for the walk's chunk hold a lot or a backorder open
    # across chunk boundaries or until step n, next to rows with no volume and
    # with volume only at step 1 or only at step n, against each actual
    blocks = []
    by_length: dict[int, list[EvaluationPair]] = {}
    for pair in _open_pairs(warehouse._CHUNK):
        by_length.setdefault(pair.n, []).append(pair)
    for n, group in by_length.items():
        edges = np.zeros((3, n))
        edges[1, 0] = edges[2, -1] = 7.5
        actuals = [pair.actual.values for pair in group]
        rows = np.vstack([*actuals, *(pair.forecast.values for pair in group), edges])
        blocks += [_block(actual, rows) for actual in (*actuals, *edges)]

    def lone_costs(block, params):
        return [stock_cost(EvaluationPair(block.actual, ForecastSeries(f)), params) for f in block.forecast.values]

    with np.errstate(over="ignore"):
        for params in SPEC_WEIGHTS:
            got = [(stock_cost(block, params), lone_costs(block, params)) for block in blocks]
            with monkeypatch.context() as patch:  # the walk of every step, and its rescue
                patch.setattr(warehouse, "_warehouse_totals", _list_warehouse_totals)
                want = [lone_costs(block, params) for block in blocks]
            for block, (block_costs, lone), list_costs in zip(blocks, got, want):
                assert _same(block_costs, lone), (params, block)
                assert _same(block_costs, list_costs), (params, block)


def test_study_stream_blocks():
    _assert_rows_match(_study_blocks())


def test_edge_blocks():
    blocks = _edge_blocks()
    _assert_rows_match(blocks)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(_METRIC_FUNCS["mase"](blocks[1])).all()
        assert np.isnan(_METRIC_FUNCS["rmsse"](blocks[2])).all()
        # the rescues are reached: rows whose block form passes the float range
        # (sums, percentage sums, smape denominators, SPEC and warehouse charges
        # at large weights) but whose score does not
        reached = {"mae": 0, "mape": 0, "smape": 0, "spec": 0, "stock_cost": 0}
        for block in blocks:
            y, rows = block.actual.values, block.forecast.values
            kept = y != 0
            plain = {
                "mae": np.add.reduce(np.abs(rows - y), axis=1) / y.size,
                "mape": np.add.reduce(np.abs(rows - y)[:, kept] / y[kept], axis=1) / kept.sum(),
                "smape": np.where(np.isinf(y + rows).any(axis=1), np.inf, 0.0),
                "spec": spec._block_totals(y, rows, 1e306, 3e305) / y.size,
                "stock_cost": warehouse._warehouse_totals(y, rows, 1e306, 3e305) / y.size,
            }
            scores = {"mae": _METRIC_FUNCS["mae"](block), "mape": _METRIC_FUNCS["mape"](block),
                      "smape": _METRIC_FUNCS["smape"](block),
                      "spec": spec_fast(block, SPEC_WEIGHTS[-1]),
                      "stock_cost": stock_cost(block, SPEC_WEIGHTS[-1])}
            for name, values in plain.items():
                reached[name] += int((~np.isfinite(values) & np.isfinite(scores[name])).sum())
    assert all(reached.values()), reached


def test_compute_metric_wraps_the_block():
    block = _edge_blocks()[0]
    with np.errstate(over="ignore", invalid="ignore"):
        value = compute_metric("spec", block)
    assert isinstance(value, ExtendedValue) and value.value.shape == (14,)
    assert not value.is_finite  # the huge rows' costs pass the float range
    assert compute_metric("mae", _block([1.0, 2.0], [[1.0, 2.0], [2.0, 1.0]])).is_finite


@pytest.mark.parametrize("support", [0, 1, 7, 127])
def test_smape_rows_of_every_kept_count(support):
    # two rows keep each count of terms, on either side of numpy's pairwise-sum
    # blocks, the rows out of count order; the actual has volume at its first
    # ``support`` steps, which every row keeps, so only support 0 has rows
    # without volume, and the other terms of a row are 1
    counts = [c for c in (0, 1, 7, 8, 9, 16, 127, 128, 129, 300) if c >= support] * 2
    rng = np.random.default_rng(support)
    n = 300
    actual = np.zeros(n)
    actual[:support] = rng.uniform(0.1, 50, support)
    rows = np.zeros((len(counts), n))
    for row, c in zip(rows, counts):
        row[:support] = rng.uniform(0, 50, support)
        row[rng.choice(np.arange(support, n), c - support, replace=False)] = rng.uniform(0.1, 50, c - support)
    rows = rows[rng.permutation(len(counts))]
    want = [_smape(actual, row) for row in rows]
    assert _same(metrics._smape_rows(actual, rows), want)
    assert _same(smape(_block(actual, rows)), want)
