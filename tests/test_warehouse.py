"""The discrete-event cost oracle must price exactly what the score charges."""

import contextlib
import math

import numpy as np
import pytest

from demandeval import (
    DemandGenConfig,
    ErrorInjectionConfig,
    EvaluationPair,
    SpecParams,
    generate_demand,
    perturb_forecast,
    spec_decompose,
    spec_fast,
    spec_literal,
    stock_cost,
)
from demandeval import spec, warehouse
from demandeval.metrics import _METRIC_FUNCS
from conftest import random_pair


class TestStockCost:
    def test_worked_examples(self, model_a_pair, model_b_pair):
        assert stock_cost(model_a_pair) == pytest.approx(2.0 / 14.0, abs=1e-12)
        assert stock_cost(model_b_pair) == pytest.approx(37.0 / 14.0, abs=1e-12)

    def test_perfect_delivery_costs_nothing(self):
        pair = EvaluationPair.from_values([3, 0, 7], [3, 0, 7])
        assert stock_cost(pair) == 0.0

    def test_same_step_delivery_and_demand_offset(self):
        pair = EvaluationPair.from_values([3], [5])
        assert stock_cost(pair) == pytest.approx(0.25 * 2.0)
        pair = EvaluationPair.from_values([5], [3])
        assert stock_cost(pair) == pytest.approx(0.75 * 2.0)

    def test_backorder_filled_before_shelving(self):
        # 4 units owed from t=2 are served by the t=4 delivery before any of
        # it is shelved, so t=4 carries only the cost of the new shortfall
        pair = EvaluationPair.from_values([0, 4, 0, 6], [0, 0, 0, 6])
        # t=2: 4 owed (age 1); t=3: 4 owed (age 2); t=4: 4 owed units filled,
        # new demand 6 against 2 remaining -> 4 owed (age 1)
        expected = 0.75 * (4 * 1 + 4 * 2 + 4 * 1) / 4.0
        assert stock_cost(pair) == pytest.approx(expected, abs=1e-12)

    def test_agrees_with_reference_evaluator_on_random_pairs(self):
        rng = np.random.default_rng(100)
        for _ in range(400):
            pair = random_pair(rng, max_n=40)
            params = SpecParams(rng.uniform(0, 2), rng.uniform(0.01, 2))
            assert stock_cost(pair, params) == pytest.approx(
                spec_literal(pair, params), abs=1e-9
            )

    def test_exact_integer_agreement_at_large_n(self):
        # whole-unit spikes moved in time and dyadic weights keep every
        # charge and running total an exact float, so the kernel and the
        # oracle must agree to the last bit, not just to a tolerance
        n = 100_000
        actual = generate_demand(DemandGenConfig(
            n=n, count_mu=30_000.0, count_sigma=0.0, magnitude_mu=10.0,
            magnitude_sigma=5.0, seed=2020, round_magnitudes=True,
        ))
        forecast = perturb_forecast(actual, ErrorInjectionConfig(horizontal_sigma=3.0, seed=2021))
        pair = EvaluationPair(actual, forecast)
        for a1, a2 in ((1.0, 0.0), (0.0, 1.0), (0.75, 0.25)):
            params = SpecParams(a1, a2)
            assert spec_fast(pair, params) == stock_cost(pair, params)
        breakdown = spec_decompose(pair)
        assert breakdown.opp_unit_periods > 0 and breakdown.stock_unit_periods > 0
        assert breakdown.opp_unit_periods.is_integer()
        assert breakdown.stock_unit_periods.is_integer()
        # both sides round the same exact integer total divided by n
        assert breakdown.opp_unit_periods / n == spec_fast(pair, SpecParams(1.0, 0.0))
        assert breakdown.stock_unit_periods / n == spec_fast(pair, SpecParams(0.0, 1.0))

    @pytest.mark.parametrize("weights, want", [
        ((0.75, 0.25), 1.5e308),
        ((1.0, 0.0), float("inf")),
        ((0.0, 1.0), 0.0),
    ])
    def test_cost_past_the_float_range_only_when_exact_value_is(self, weights, want):
        # 6e308 unit-periods are owed, past the float range, but 0.75 of
        # them over 3 steps is 1.5e308 exactly
        pair = EvaluationPair.from_values([1e308, 1e308, 0], [0, 0, 1e308])
        params = SpecParams(*weights)
        assert stock_cost(pair, params) == want
        assert spec_fast(pair, params) == want

    @pytest.mark.parametrize("forecast, weights, want", [
        ([0, 0, 1e308], (0.75, 0.25), 2),
        ([0, 0, 1e308], (1e306, 3e305), 4),
        ([[0, 0, 1e308], [0, 0, 0]], (0.75, 0.25), 5),
        ([[0, 0, 1e308], [0, 0, 0]], (1e306, 3e305), 7),
    ], ids=["lone", "lone-huge-weights", "block", "block-huge-weights"])
    @pytest.mark.parametrize("evaluate, module, name", [
        (stock_cost, warehouse, "_warehouse_totals"),
        (spec_fast, spec, "_block_totals"),
    ], ids=["stock_cost", "spec_fast"])
    def test_an_overflowing_pair_is_walked_once_unscaled(self, forecast, weights, want, evaluate, module,
                                                         name, monkeypatch):
        # the forecasts are walked once as a block, unscaled at the given
        # weights; each row past the float range is walked again alone, on
        # the pair scaled, and, where that still overflows (every row at
        # 1e306, the second row at any weights: its exact cost is past the
        # range), on the weights scaled, unscaled and then scaled again
        pair = EvaluationPair.from_values([1e308, 1e308, 0], np.array(forecast, dtype=float))
        walk = getattr(module, name)
        walks = []
        monkeypatch.setattr(module, name, lambda *args: walks.append(args) or walk(*args))
        with np.errstate(over="ignore", invalid="ignore"):
            evaluate(pair, SpecParams(*weights))
        assert len(walks) == want

    @pytest.mark.parametrize("name, evaluate", [("stock_cost", stock_cost), ("spec_fast", spec_fast),
                                                *_METRIC_FUNCS.items()], ids=["stock_cost", "spec_fast", *_METRIC_FUNCS])
    def test_a_lone_forecast_gives_a_float_and_a_block_its_bits(self, name, evaluate, model_b_pair):
        # a finite pair, and rows of one actual: costless; 2.5e307, whose
        # kernel aggregates pass the float range on the way; and 1.5e308,
        # which both walks reach only by the rescue; the last two have volume
        # where the actual has none, so the percentage family is inf on them;
        # and rows of a constant actual, on which mase and rmsse are NaN
        assert type(evaluate(model_b_pair)) is float
        cases = [([1e308, 1e308, 0], [[1e308, 1e308, 0], [1e308, 0, 1e308], [0, 0, 1e308]]),
                 ([2, 2, 2], [[2, 2, 2], [0, 5, 1]])]
        pins = {("stock_cost", 0): [0.0, 2.5e307, 1.5e308], ("spec_fast", 0): [0.0, 2.5e307, 1.5e308],
                ("mape", 0): [0.0, math.inf, math.inf], ("mase", 1): [math.nan, math.nan]}
        # only the classic metrics may warn: sMAPE's y + f passes the float
        # range, and MASE divides by a zero scale; the two walks run with
        # warnings as errors
        quiet = np.errstate(over="ignore", invalid="ignore") if name in _METRIC_FUNCS else contextlib.nullcontext()
        with quiet:
            for case, (actual, rows) in enumerate(cases):
                rows = np.array(rows, dtype=float)
                lone = [evaluate(EvaluationPair.from_values(actual, row)) for row in rows]
                assert [type(value) for value in lone] == [float] * len(rows)
                if (name, case) in pins:
                    np.testing.assert_array_equal(lone, pins[name, case])
                block = evaluate(EvaluationPair.from_values(actual, rows))
                assert type(block) is np.ndarray and block.dtype == np.float64
                assert block.tobytes() == np.array(lone).tobytes()
