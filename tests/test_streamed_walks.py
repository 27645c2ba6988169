"""The SPEC kernel and the warehouse oracle stream their series: they keep
the bits of their list forms and hold no Python float per step.

``_list_fifo_charges`` and ``_list_warehouse_total`` are the bodies that the
kernel's one-forecast walk and ``warehouse.stock_cost`` had when they held
every step as a Python float: the kernel kept its charges in lists and netted
at every step, and the oracle walked every step of ``.tolist()`` copies of
both series; ``_list_stock_cost`` is the oracle's cost from that body.
``_list_block_totals`` and ``_list_warehouse_totals`` run them row by row in
place of ``spec._block_totals`` and ``warehouse._warehouse_totals``. The
streamed forms must give the same score, per-step split, sweep and cost bit
for bit, NaN equal to NaN, on every kind of pair, including pairs whose
charges pass the float range and take the rescaled pass.

The kernel nets only at volume steps, and fills the charges in between
chunk by chunk, ``spec._CHUNK`` steps at a time. The twin test covers series
of one chunk and of several: ``_pairs`` and the ``_long_pairs`` of up to
``spec._CHUNK`` steps are one chunk long, the other ``_long_pairs`` several.
The oracle also takes ``warehouse._CHUNK`` steps at a time, and visits only
the volume steps and the steps with a lot or a backorder open;
``test_block_scores`` checks its chunk boundaries with :func:`_open_pairs`.
"""

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest

from demandeval import (
    DemandGenConfig,
    ErrorInjectionConfig,
    EvaluationPair,
    SpecParams,
    generate_demand,
    perturb_forecast,
    spec_alpha_sweep,
    spec_decompose,
    spec_fast,
    stock_cost,
)
from demandeval import spec, warehouse
from demandeval.metrics import compute_metric
from demandeval.series import DemandSeries, ForecastSeries

WEIGHTS = (SpecParams(0.75, 0.25), SpecParams(1.0, 0.0), SpecParams(0.0, 1.0))


def _list_fifo_charges(y, f, alpha1, alpha2):
    n = y.size
    opp = [0.0] * n
    stock = [0.0] * n

    owed = deque()  # [origin, qty] demand not yet covered
    held = deque()  # [origin, qty] deliveries not yet consumed
    owed_q = owed_qt = 0.0
    held_q = held_qt = 0.0

    total = 0.0
    t = 0
    for yt, ft in zip(memoryview(y), memoryview(f)):
        t += 1
        if yt > 0.0:
            owed.append([t, yt])
            owed_q += yt
            owed_qt += yt * t
        if ft > 0.0:
            held.append([t, ft])
            held_q += ft
            held_qt += ft * t
        while owed and held:
            d = owed[0]
            s = held[0]
            c = d[1] if d[1] <= s[1] else s[1]
            d[1] -= c
            s[1] -= c
            owed_q -= c
            owed_qt -= c * d[0]
            held_q -= c
            held_qt -= c * s[0]
            if d[1] <= 0.0:
                owed.popleft()
            if s[1] <= 0.0:
                held.popleft()
        if not owed:
            owed_q = owed_qt = 0.0
        if not held:
            held_q = held_qt = 0.0
        if owed_q > 0.0:
            charge = alpha1 * ((t + 1) * owed_q - owed_qt)
            opp[t - 1] = charge
            total += charge
        if held_q > 0.0:
            charge = alpha2 * ((t + 1) * held_q - held_qt)
            stock[t - 1] = charge
            total += charge
    # the per-step split converted the lists with np.array
    return np.array(opp), np.array(stock), total


def _list_block_totals(y, block, a1, a2, charges=None):
    """``_list_fifo_charges`` of each row: the totals, and the split in ``charges``."""
    totals = []
    for i, row in enumerate(block):
        opp, stock, total = _list_fifo_charges(y, row, a1, a2)
        if charges is not None:
            charges[:, i] = opp, stock
        totals.append(total)
    return np.array(totals, dtype=float)


def _list_stock_cost(pair, params):
    return _list_warehouse_total(pair.actual.values, pair.forecast.values, params.alpha1, params.alpha2) / pair.n


def _list_warehouse_total(y, f, a1, a2):
    y = y.tolist()
    f = f.tolist()
    n = len(y)

    lots = deque()  # [arrival_step, qty] on the shelf
    backorders = deque()  # [order_step, qty] owed

    total = 0.0
    for step in range(1, n + 1):
        arriving = f[step - 1]
        while arriving > 0.0 and backorders:
            oldest = backorders[0]
            filled = oldest[1] if oldest[1] <= arriving else arriving
            oldest[1] -= filled
            arriving -= filled
            if oldest[1] <= 0.0:
                backorders.popleft()
        if arriving > 0.0:
            lots.append([step, arriving])

        leaving = y[step - 1]
        while leaving > 0.0 and lots:
            oldest = lots[0]
            taken = oldest[1] if oldest[1] <= leaving else leaving
            oldest[1] -= taken
            leaving -= taken
            if oldest[1] <= 0.0:
                lots.popleft()
        if leaving > 0.0:
            backorders.append([step, leaving])

        for arrival_step, qty in lots:
            total += a2 * qty * (step - arrival_step + 1)
        for order_step, qty in backorders:
            total += a1 * qty * (step - order_step + 1)
    return total


def _list_warehouse_totals(y, block, a1, a2):
    return np.array([_list_warehouse_total(y, row, a1, a2) for row in block], dtype=float)


def _random_pair(rng, n, kind):
    """One random pair of n steps, of one of four kinds."""
    if kind == 0:  # sparse lumpy
        density = rng.uniform(0.05, 0.4)
        actual = rng.uniform(0.1, 50, n) * (rng.random(n) < density)
        forecast = rng.uniform(0.1, 50, n) * (rng.random(n) < density)
    elif kind == 1:  # dense whole units
        actual = rng.integers(0, 13, n).astype(float)
        forecast = rng.integers(0, 13, n).astype(float)
    elif kind == 2:  # 1e-300 .. 1e308, often past the float range once summed
        actual = 10.0 ** rng.uniform(-300, 308, n) * (rng.random(n) < 0.5)
        forecast = 10.0 ** rng.uniform(-300, 308, n) * (rng.random(n) < 0.5)
    else:  # one side empty, or one step
        actual = rng.uniform(0, 20, n) * (rng.random() < 0.5)
        forecast = rng.uniform(0, 20, n) * (rng.random() < 0.5)
    return EvaluationPair.from_values(actual, forecast)


def _pairs():
    """2,000 random pairs of four kinds, plus all-zero and one-step pairs."""
    rng = np.random.default_rng(1414)
    pairs = [_random_pair(rng, int(rng.integers(1, 121)), i % 4) for i in range(2_000)]
    for actual, forecast in (([0.0], [0.0]), ([0.0] * 50, [0.0] * 50), ([3.0], [5.0]),
                             ([5.0], [3.0]), ([1e308], [0.0]), ([0.0], [1e308])):
        pairs.append(EvaluationPair.from_values(actual, forecast))
    return pairs


def _kernel_results(pair):
    breakdown = spec_decompose(pair)
    return [
        *(spec_fast(pair, params) for params in WEIGHTS),
        breakdown.per_t_opportunity,
        breakdown.per_t_stock,
        breakdown.opp_unit_periods,
        breakdown.stock_unit_periods,
        breakdown.spec_value,
        [point.spec_value for point in spec_alpha_sweep(pair, 11)],
    ]


def _same(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def _long_pairs():
    """Pairs at and past the kernel's chunk length: each kind of
    :func:`_random_pair` at lengths from one chunk less a step to about
    5,000, and the :func:`_open_pairs` of the kernel's chunk."""
    chunk = spec._CHUNK
    rng = np.random.default_rng(1415)
    pairs = [_random_pair(rng, n, kind) for n in (chunk + 1, 2 * chunk, 2 * chunk + 1, 3_001, 4_999)
             for kind in range(4)]
    pairs += [_random_pair(rng, n, kind) for n in (chunk - 1, chunk) for kind in range(4)]
    return pairs + _open_pairs(chunk)


def _open_pairs(chunk):
    """Hand-made pairs for a walk of ``chunk`` steps at a time: single batches
    that stay open across chunk boundaries, and one that stays open over the
    whole of the longest one-chunk series."""
    sides = np.zeros((2, chunk))
    sides[0, 0] = 7.5  # owed from step 1 to the last step, the run the fill charges last
    pairs = [EvaluationPair.from_values(*sides)]
    for early, late in ((chunk - 1, 2 * chunk + 9), (chunk - 1, chunk), (0, 3 * chunk - 1)):
        for late_side in (0, 1):
            sides = np.zeros((2, 3 * chunk))
            sides[1 - late_side, early] = 7.5
            sides[late_side, late] = 7.5 if early else 3.0  # a remainder stays open to the end
            pairs.append(EvaluationPair.from_values(*sides))
    return pairs


@pytest.fixture(scope="module")
def pairs():
    return _pairs()


@pytest.fixture(scope="module")
def long_pairs():
    return _long_pairs()


def test_kernel_matches_its_list_twin(pairs, long_pairs, monkeypatch):
    got = [_kernel_results(pair) for pair in pairs + long_pairs]
    # the score reads the twin's totals, and the split and sweep its charges
    monkeypatch.setattr(spec, "_block_totals", _list_block_totals)
    want = [_kernel_results(pair) for pair in pairs + long_pairs]
    for pair, got_results, want_results in zip(pairs + long_pairs, got, want):
        for g, w in zip(got_results, want_results):
            assert _same(g, w), (pair, g, w)
    # the rescaled pass was taken on one-chunk and on multi-chunk series
    for fill_in_python in (True, False):
        assert any(not math.isfinite(_list_fifo_charges(pair.actual.values, pair.forecast.values,
                                                        1.0, 1.0)[2])
                   for pair in pairs + long_pairs if (pair.n <= spec._CHUNK) == fill_in_python)


def test_stock_cost_matches_its_list_twin(pairs):
    rescaled = 0
    for pair in pairs:
        for params in WEIGHTS:
            want = _list_stock_cost(pair, params)
            if not math.isfinite(want):  # the overflow rule: again, scaled by 2**-k
                rescaled += 1
                y, f = pair.actual.values, pair.forecast.values
                k = int(np.frexp(max(y.max(), f.max()))[1])
                scaled = EvaluationPair.from_values(np.ldexp(y, -k), np.ldexp(f, -k))
                with np.errstate(over="ignore"):
                    want = float(np.ldexp(_list_stock_cost(scaled, params), k))
            assert _same(stock_cost(pair, params), want), (pair, params)
    assert rescaled > 0


@pytest.mark.parametrize("walk, bound", [(spec_fast, 0.4), (stock_cost, 0.5)],
                         ids=["spec_fast", "stock_cost"])
def test_peak_memory_per_step(walk, bound):
    # a lumpy pair at the study configs' spike density; the bound is in
    # float64s per step: one chunk's temporaries of the kernel, and next to nothing
    n = 40_000
    density = 7.0 / 96.0
    actual = generate_demand(DemandGenConfig(
        n=n, count_mu=density * n, count_sigma=math.sqrt(density * n),
        magnitude_mu=10.0, magnitude_sigma=2.0, seed=1414,
    ))
    forecast = perturb_forecast(actual, ErrorInjectionConfig(
        vertical_sigma=2.0, horizontal_sigma=2.0, seed=1415,
    ))
    pair = EvaluationPair(actual, forecast)
    tracemalloc.start()
    try:
        walk(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * n


@pytest.mark.parametrize("walk, k, n, bound, chunk", [
    (spec_fast, 50, 20_000, 24, spec._CHUNK),
    (stock_cost, 10, 5_000, 6, warehouse._CHUNK),  # small: tracemalloc slows the walk's Python objects
], ids=["spec_fast", "stock_cost"])
def test_block_peak_memory_per_chunk(walk, k, n, bound, chunk):
    # a block of lumpy forecasts of one series, as above; the bound is in
    # float64s per chunk of the block's rows, so it does not grow with n:
    # the kernel's chunk temporaries, and the oracle's volume steps of one
    # chunk besides its open lots and backorders
    density = 7.0 / 96.0
    actual = generate_demand(DemandGenConfig(
        n=n, count_mu=density * n, count_sigma=math.sqrt(density * n),
        magnitude_mu=10.0, magnitude_sigma=2.0, seed=1414,
    ))
    rows = np.stack([perturb_forecast(actual, ErrorInjectionConfig(
        vertical_sigma=2.0, horizontal_sigma=2.0, seed=1415 + i,
    )).values for i in range(k)])
    block = EvaluationPair(actual, ForecastSeries(rows))
    tracemalloc.start()
    try:
        walk(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * k * chunk


#: Pairs that take each branch of the kernel's single open queue, by name: a
#: step with demand and a delivery while the owed side, the held side or
#: neither is open; both heads closing at once, across steps, on one step and
#: with a float residue left in Q; a step whose volume closes several heads
#: and opens the other side; and an open queue whose aggregate Q is <= 0 from
#: float residue, which later volume joins.
QUEUE_CASES = {
    "both-while-owed": ([5.0, 3.0, 0.0, 0.0], [0.0, 4.0, 4.0, 0.0]),
    "both-while-held": ([0.0, 3.0, 4.0, 0.0], [5.0, 4.0, 0.0, 0.0]),
    "both-while-none-more-demand": ([4.0, 0.0, 0.0], [3.0, 0.0, 1.0]),
    "both-while-none-more-delivery": ([3.0, 0.0, 1.0], [4.0, 0.0, 0.0]),
    "both-while-none-equal": ([3.0, 0.0], [3.0, 0.0]),
    "tie-across-steps": ([2.0, 0.0, 3.0, 0.0], [0.0, 5.0, 0.0, 0.0]),
    "tie-on-one-step-owed": ([2.0, 3.0, 0.0], [0.0, 5.0, 0.0]),
    "tie-on-one-step-held": ([0.0, 1.0, 4.0, 0.0], [2.0, 3.0, 0.0, 0.0]),
    "tie-with-residue": ([0.1, 0.2, 0.0, 0.0], [0.0, 0.1, 0.2, 0.0]),  # Q is 5.6e-17 at the tie
    "closes-several-then-opens": ([0.0, 0.0, 10.0, 0.0], [2.0, 3.0, 1.0, 0.0]),
    "residue-owed": ([0.7, 0.2, 0.1, 0.0, 2.0, 0.0], [0.0, 0.3, 0.7, 0.0, 0.0, 1.0]),
    "residue-held": ([0.0, 0.3, 0.7, 0.0, 0.0, 1.0], [0.7, 0.2, 0.1, 0.0, 2.0, 0.0]),
}


@pytest.mark.parametrize("actual, forecast", QUEUE_CASES.values(), ids=QUEUE_CASES)
def test_single_queue_matches_the_list_twin(actual, forecast, monkeypatch):
    pair = EvaluationPair.from_values(actual, forecast)

    def results():
        splits = [spec_decompose(pair, params) for params in WEIGHTS]
        return [*_kernel_results(pair),
                *(array for split in splits for array in (split.per_t_opportunity, split.per_t_stock))]

    got = results()
    monkeypatch.setattr(spec, "_block_totals", _list_block_totals)
    want = results()
    for g, w in zip(got, want):
        assert _same(g, w), (g, w)


@pytest.mark.parametrize("owed", [True, False], ids=["owed", "held"])
def test_residue_cases_leave_an_open_queue_uncharged(owed):
    # after three steps the walk holds a unit's residue on the named side, its Q <= 0
    actual, forecast = QUEUE_CASES["residue-owed" if owed else "residue-held"]
    states = [(deque(), True, 0.0, 0.0)]
    table = []
    spec._net(states, table, [1, 2, 3], actual[:3], forecast[:3], [3])
    queue, side, q, _ = states[0]
    assert queue and side == owed and q <= 0.0
    assert table[-2:] == [0.0, 0.0]


def test_block_rows_open_across_a_chunk_boundary():
    # rows whose queue stays open over the boundary, owed or held, next to rows
    # whose queue closes before it or never opens, and lumpy random rows
    chunk = spec._CHUNK
    n = chunk + 8
    actual = np.zeros(n)
    actual[[5, chunk - 2]] = 1.0, 4.0
    rows = np.zeros((6, n))
    rows[0, chunk + 3] = 5.0  # owed from step chunk - 1 into the next chunk
    rows[1, [4, chunk - 3]] = 1.0, 4.0  # closed before the boundary
    rows[2, 4] = 6.0  # held from step 5; one unit stays held to the end
    rows[3] = actual  # nothing open
    rng = np.random.default_rng(1416)
    rows[4:] = rng.uniform(0.1, 50, (2, n)) * (rng.random((2, n)) < 0.1)
    block = EvaluationPair(DemandSeries(actual), ForecastSeries(rows))
    for params in WEIGHTS:
        a1, a2 = params.alpha1, params.alpha2
        want = [_list_fifo_charges(actual, row, a1, a2)[2] / n for row in rows]
        assert _same(spec_fast(block, params), want), params


def test_batch_peak_memory_per_value():
    # one series' 250 forecasts at the reliability study's shape (5 levels of
    # 50, n = 96), scored as one batch; the bound is in float64s per value
    actual = generate_demand(DemandGenConfig(
        n=96, count_mu=7.0, count_sigma=1.0, magnitude_mu=10.0, magnitude_sigma=2.0, seed=1414,
    ))
    levels = np.repeat([0.5, 1.0, 1.5, 2.0, 2.5], 50).tolist()
    rows = np.stack([perturb_forecast(actual, ErrorInjectionConfig(
        vertical_sigma=sigma, horizontal_sigma=sigma, seed=1415 + i,
    )).values for i, sigma in enumerate(levels)])
    k, n = rows.shape
    block = EvaluationPair(actual, ForecastSeries(rows))
    tracemalloc.start()
    try:
        compute_metric("spec", block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 8 * k * n
