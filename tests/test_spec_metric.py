"""Golden values and behaviour of the cost-based score evaluators."""

import re
import tracemalloc

import numpy as np
import pytest

from demandeval import (
    DEFAULT_PARAMS,
    EvaluationPair,
    SpecParams,
    spec_alpha_sweep,
    spec_decompose,
    spec_fast,
    spec_literal,
)
from demandeval import spec
from demandeval.errors import InvalidConfig
from demandeval.spec import MAX_GRID_SIZE
from conftest import ACTUAL, random_pair


class TestParams:
    def test_defaults_are_three_to_one(self):
        assert DEFAULT_PARAMS.alpha1 == 0.75
        assert DEFAULT_PARAMS.alpha2 == 0.25

    @pytest.mark.parametrize(
        "a1,a2,message",
        [
            (-0.1, 0.5, "alpha1 must be >= 0, got -0.1"),
            (0.5, -1, "alpha2 must be >= 0, got -1"),
            (float("nan"), 1, "alpha1 must be a finite number, got nan"),
            (True, 0.5, "alpha1 must be a finite number, got True"),
            (0.5, False, "alpha2 must be a finite number, got False"),
        ],
    )
    def test_invalid_weights(self, a1, a2, message):
        with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
            SpecParams(a1, a2)

    def test_both_zero_rejected(self):
        with pytest.raises(InvalidConfig, match="alpha1 and alpha2 cannot both be zero"):
            SpecParams(0.0, 0.0)

    def test_any_positive_weights_accepted(self):
        assert SpecParams(3.0, 1.0).alpha1 == 3.0


class TestWorkedExample:
    """The two competing forecasts for the 14-step demand history."""

    def test_model_a_value(self, model_a_pair):
        assert spec_literal(model_a_pair) == pytest.approx(0.143, abs=1e-3)
        assert spec_literal(model_a_pair) == pytest.approx(2.0 / 14.0, abs=1e-12)

    def test_model_b_value_full_horizon(self, model_b_pair):
        # the 4 missing units stay open through t=14, so the charge keeps
        # accruing to the end of the horizon: 37/14, not the 28/14 one would
        # get by stopping one step early
        assert spec_literal(model_b_pair) == pytest.approx(37.0 / 14.0, abs=1e-9)

    def test_model_b_truncation_would_give_two(self, model_b_pair):
        breakdown = spec_decompose(model_b_pair)
        through_13 = sum(
            breakdown.opportunity_at(t) + breakdown.stock_at(t) for t in range(1, 14)
        )
        assert through_13 / 14.0 == pytest.approx(2.0, abs=1e-9)

    def test_model_a_ranks_better_than_model_b(self, model_a_pair, model_b_pair):
        assert spec_fast(model_a_pair) < spec_fast(model_b_pair)

    def test_perfect_forecast_scores_zero(self):
        pair = EvaluationPair.from_values(ACTUAL, ACTUAL)
        for params in (DEFAULT_PARAMS, SpecParams(1, 0), SpecParams(0.1, 0.9)):
            assert spec_literal(pair, params) == 0.0
            assert spec_fast(pair, params) == 0.0


class TestDecompose:
    def test_model_a_single_stock_charge(self, model_a_pair):
        b = spec_decompose(model_a_pair)
        assert b.stock_at(8) == pytest.approx(2.0, abs=1e-12)
        assert b.opp_unit_periods == pytest.approx(0.0, abs=1e-12)
        assert b.stock_unit_periods == pytest.approx(8.0, abs=1e-12)
        for t in range(1, 15):
            assert b.opportunity_at(t) == 0.0
            if t != 8:
                assert b.stock_at(t) == 0.0

    def test_model_b_per_step_charges(self, model_b_pair):
        b = spec_decompose(model_b_pair)
        assert b.stock_at(8) == pytest.approx(1.0, abs=1e-12)
        expected_opportunity = {9: 3.0, 10: 6.0, 11: 9.0, 12: 3.0, 13: 6.0, 14: 9.0}
        for t, value in expected_opportunity.items():
            assert b.opportunity_at(t) == pytest.approx(value, abs=1e-12), f"t={t}"
        assert b.spec_value == pytest.approx(37.0 / 14.0, abs=1e-9)

    def test_weighted_sums_match_value(self, model_b_pair):
        b = spec_decompose(model_b_pair, SpecParams(0.4, 0.6))
        total = (b.per_t_opportunity.sum() + b.per_t_stock.sum()) / 14.0
        assert total == pytest.approx(b.spec_value, abs=1e-9)
        assert b.spec_value == pytest.approx(
            (0.4 * b.opp_unit_periods + 0.6 * b.stock_unit_periods) / 14.0, abs=1e-9
        )

    def test_branch_exclusivity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pair = random_pair(rng, max_n=25)
            b = spec_decompose(pair)
            both = (b.per_t_opportunity > 0) & (b.per_t_stock > 0)
            assert not both.any()

    def test_finite_pair_walks_the_kernel_once(self, model_b_pair, monkeypatch):
        calls = []
        block_totals = spec._block_totals

        def counted(*args):
            calls.append(args)
            return block_totals(*args)

        monkeypatch.setattr(spec, "_block_totals", counted)
        spec_decompose(model_b_pair, SpecParams(0.4, 0.6))
        assert len(calls) == 1

    @pytest.mark.parametrize("t", [0, -1, 4, True])
    def test_step_accessors_reject_a_step_outside_1_to_n(self, t):
        b = spec_decompose(EvaluationPair.from_values([0, 0, 3], [3, 0, 0]))
        for at in (b.opportunity_at, b.stock_at):
            with pytest.raises(InvalidConfig, match="^t must be an integer"):
                at(t)

    def test_step_accessors_read_the_first_and_last_steps(self):
        # three units held from step 1, two of them still at step 3; then owed
        held = spec_decompose(EvaluationPair.from_values([0, 0, 1], [3, 0, 0]))
        owed = spec_decompose(EvaluationPair.from_values([3, 0, 0], [0, 0, 1]))
        assert [held.stock_at(1), held.stock_at(3)] == [0.25 * 3, 0.25 * 2 * 3]
        assert [owed.opportunity_at(1), owed.opportunity_at(3)] == [0.75 * 3, 0.75 * 2 * 3]


class TestFastEvaluator:
    def test_matches_literal_on_fixtures(self, model_a_pair, model_b_pair):
        for pair in (model_a_pair, model_b_pair):
            assert spec_fast(pair) == pytest.approx(spec_literal(pair), abs=1e-12)

    def test_matches_literal_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            pair = random_pair(rng, max_n=40)
            params = SpecParams(rng.uniform(0, 2), rng.uniform(0.01, 2))
            assert spec_fast(pair, params) == pytest.approx(
                spec_literal(pair, params), abs=1e-9
            )

    def test_all_zero(self):
        pair = EvaluationPair.from_values([0.0] * 14, [0.0] * 14)
        assert spec_fast(pair) == 0.0


class TestDirectionalSensitivity:
    """One step early costs a stored unit-period, one step late an owed one."""

    def test_one_step_early_is_pure_stock(self):
        actual = [0, 0, 0, 0, 5, 0, 0, 0]
        early = [0, 0, 0, 5, 0, 0, 0, 0]
        pair = EvaluationPair.from_values(actual, early)
        b = spec_decompose(pair)
        assert b.opp_unit_periods == 0.0
        assert b.stock_unit_periods == pytest.approx(5.0)
        assert spec_fast(pair) == pytest.approx(0.25 * 5.0 / 8.0)

    def test_one_step_late_is_pure_opportunity(self):
        actual = [0, 0, 0, 0, 5, 0, 0, 0]
        late = [0, 0, 0, 0, 0, 5, 0, 0]
        pair = EvaluationPair.from_values(actual, late)
        b = spec_decompose(pair)
        assert b.stock_unit_periods == 0.0
        assert b.opp_unit_periods == pytest.approx(5.0)
        assert spec_fast(pair) == pytest.approx(0.75 * 5.0 / 8.0)


class TestAlphaSweep:
    def test_model_a_endpoints(self, model_a_pair):
        points = spec_alpha_sweep(model_a_pair, 5)
        assert points[0].alpha1 == 0.0
        assert points[0].spec_value == pytest.approx(8.0 / 14.0, abs=1e-9)
        assert points[-1].alpha1 == 1.0
        assert points[-1].spec_value == pytest.approx(0.0, abs=1e-12)

    def test_weights_sum_to_one_exactly(self, model_a_pair):
        for p in spec_alpha_sweep(model_a_pair, 11):
            assert p.alpha1 + p.alpha2 == 1.0

    def test_crossing_point_of_the_two_models(self, model_a_pair, model_b_pair):
        # analytically: 8*alpha2 = 48*alpha1 + 4*alpha2 -> alpha1 = 1/13
        grid = 1001
        sweep_a = spec_alpha_sweep(model_a_pair, grid)
        sweep_b = spec_alpha_sweep(model_b_pair, grid)
        diffs = [(a.alpha1, a.spec_value - b.spec_value) for a, b in zip(sweep_a, sweep_b)]
        crossings = [
            0.5 * (x1 + x2)
            for (x1, d1), (x2, d2) in zip(diffs, diffs[1:])
            if d1 == 0 or (d1 < 0) != (d2 < 0)
        ]
        assert len(crossings) == 1
        assert crossings[0] == pytest.approx(1.0 / 13.0, abs=2e-3)
        # model A is cheaper for every larger opportunity weight
        assert all(a.spec_value < b.spec_value
                   for a, b in zip(sweep_a, sweep_b) if a.alpha1 > 1.0 / 13.0 + 1e-3)

    def test_perfect_forecast_zero_everywhere(self):
        pair = EvaluationPair.from_values(ACTUAL, ACTUAL)
        assert all(p.spec_value == 0.0 for p in spec_alpha_sweep(pair, 7))

    def test_grid_size_validation(self, model_a_pair):
        with pytest.raises(InvalidConfig, match="grid_size must be an integer >= 2, got 1"):
            spec_alpha_sweep(model_a_pair, 1)

    @pytest.mark.parametrize("grid_size", [2**40, 2**70, MAX_GRID_SIZE + 1])
    def test_grid_size_bound(self, model_a_pair, grid_size):
        assert MAX_GRID_SIZE == 1_000_001
        tracemalloc.start()
        try:
            with pytest.raises(InvalidConfig,
                               match=f"^grid_size must be an integer <= 1000001, got {grid_size}$"):
                spec_alpha_sweep(model_a_pair, grid_size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000  # rejected before a point or a charge is allocated

    def test_matches_direct_evaluation(self, model_b_pair):
        for p in spec_alpha_sweep(model_b_pair, 5):
            if p.alpha1 == 0.0 or p.alpha2 == 0.0:
                continue
            direct = spec_literal(model_b_pair, SpecParams(p.alpha1, p.alpha2))
            assert p.spec_value == pytest.approx(direct, abs=1e-9)
