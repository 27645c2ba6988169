"""The SPEC kernel and the warehouse oracle stream their series: they keep
the bits of their list forms and hold no Python float per step.

``_list_fifo_charges`` and ``_list_stock_cost`` are the bodies that
``spec._fifo_charges`` and ``warehouse.stock_cost`` had when they held every
step as a Python float: the kernel kept its charges in lists and netted at
every step, and the oracle walked ``.tolist()`` copies of both series. The
streamed forms must give the same score, per-step split, sweep and cost bit
for bit, NaN equal to NaN, on every kind of pair, including pairs whose
charges pass the float range and take the rescaled pass.
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
from demandeval import spec

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


def _list_stock_cost(pair, params):
    y = pair.actual.values.tolist()
    f = pair.forecast.values.tolist()
    n = len(y)
    a1, a2 = params.alpha1, params.alpha2

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
    return total / n


def _pairs():
    """2,000 random pairs of four kinds, plus all-zero and one-step pairs."""
    rng = np.random.default_rng(1414)
    pairs = []
    for i in range(2_000):
        n = int(rng.integers(1, 121))
        kind = i % 4
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
        pairs.append(EvaluationPair.from_values(actual, forecast))
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


@pytest.fixture(scope="module")
def pairs():
    return _pairs()


def test_kernel_matches_its_list_twin(pairs, monkeypatch):
    got = [_kernel_results(pair) for pair in pairs]
    monkeypatch.setattr(spec, "_fifo_charges", _list_fifo_charges)
    want = [_kernel_results(pair) for pair in pairs]
    for pair, got_results, want_results in zip(pairs, got, want):
        for g, w in zip(got_results, want_results):
            assert _same(g, w), (pair, g, w)
    # the rescaled pass was taken
    assert any(not math.isfinite(_list_fifo_charges(pair.actual.values, pair.forecast.values,
                                                    1.0, 1.0)[2]) for pair in pairs)


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


@pytest.mark.parametrize("walk, bound", [(spec_fast, 2.5), (stock_cost, 0.5)],
                         ids=["spec_fast", "stock_cost"])
def test_peak_memory_per_step(walk, bound):
    # a lumpy pair at the study configs' spike density; the bound is in
    # float64s per step: the kernel's two charge arrays, and next to nothing
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
