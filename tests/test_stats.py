"""Correlation, Levene's test, and F-distribution tails.

Where the routines reimplement textbook statistics, scipy serves as the
independent reference implementation.
"""

import json
import math

import numpy as np
import pytest
import scipy.stats

from demandeval.errors import DegenerateInput, InvalidConfig, StatsError
from demandeval.experiments import ExperimentReport
from demandeval.stats import f_sf, levene, mean, pearson, variance


class TestDescriptives:
    def test_mean(self):
        assert mean([-1.0, 1.0]) == 0.0

    def test_variance_constant(self):
        assert variance([2, 2, 2]) == 0.0

    def test_variance_sample_denominator(self):
        assert variance([1, 2, 3, 4]) == pytest.approx(5.0 / 3.0)

    def test_too_few_observations(self):
        with pytest.raises(StatsError, match="empty"):
            mean([])
        with pytest.raises(StatsError, match="at least two"):
            variance([1.0])

    @pytest.mark.parametrize(
        "statistic", [lambda: variance([1e300, -1e300, 3e300]), lambda: mean([1e308, 1e308]),
                      lambda: pearson([1e300, -1e300], [1.0, 2.0]),
                      lambda: pearson([3.0, 2.0, 1.0], [1.0, 2.0, math.inf]),
                      lambda: pearson([1.0, 2.0], [1.0, math.nan]),
                      lambda: levene([[math.inf, -math.inf], [1.0, 2.0]])],
        ids=["variance", "mean", "pearson", "pearson-inf", "pearson-nan", "levene"],
    )
    def test_float_range_overflow(self, statistic):
        with pytest.raises(StatsError, match="overflows the float range"):
            statistic()


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-9)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-9)

    def test_hand_computed(self):
        r = pearson([1, 2, 3, 4], [1, 3, 2, 4])
        assert type(r) is float and r == pytest.approx(0.8, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=40)
        ys = rng.normal(size=40)
        base = pearson(list(xs), list(ys))
        assert pearson(list(3 * xs + 7), list(0.5 * ys - 2)) == pytest.approx(base, abs=1e-12)
        assert pearson(list(-3 * xs), list(ys)) == pytest.approx(-base, abs=1e-12)

    def test_errors(self):
        with pytest.raises(StatsError, match="sequences have lengths 2 and 3"):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(DegenerateInput):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(DegenerateInput):
            pearson([1], [2])

    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            xs = list(rng.normal(size=30))
            ys = list(rng.normal(size=30))
            r = pearson(xs, ys)
            assert type(r) is float and r == pytest.approx(
                scipy.stats.pearsonr(xs, ys).statistic, abs=1e-12
            )

    def test_product_of_sums_overflows(self):
        xs = [1e150, 2e150, 3e150, 4e150]
        ys = [1e150, 2.1e150, 2.9e150, 4e150]
        expected = np.corrcoef(np.array(xs) / 1e150, np.array(ys) / 1e150)[0, 1]
        assert pearson(xs, ys) == pytest.approx(expected, abs=1e-12)



class TestLevene:
    def test_identical_spread_groups(self):
        result = levene([[1, 2, 3, 4, 5], [11, 12, 13, 14, 15]])
        assert result.w == pytest.approx(0.0, abs=1e-12)
        assert result.p == pytest.approx(1.0, abs=1e-12)
        assert result.df1 == 1
        assert result.df2 == 8

    @pytest.mark.parametrize(
        "groups,w,p,json_w",
        [([[0, 2], [1, 3]], 0.0, 1.0, 0.0), ([[0, 2], [0, 4]], math.inf, 0.0, "inf")],
        ids=["equal-spreads", "unequal-spreads"],
    )
    def test_no_spread_within_groups(self, groups, w, p, json_w):
        result = levene(groups)
        assert (result.w, result.p) == (w, p)
        report = ExperimentReport(
            kind="segment-reliability", seed=0, config={}, levels=(), metrics={}, levene=result
        )
        assert json.loads(report.to_json())["levene"]["w"] == json_w

    def test_clearly_unequal_spreads(self):
        result = levene([[0, 0, 0, 0, 10, 10, 10, 10], [4, 5, 5, 6, 4, 5, 5, 6]])
        assert result.w > 10
        assert result.p < 0.01

    def test_matches_scipy_mean_center(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            groups = [list(rng.normal(0, s, size=rng.integers(5, 25))) for s in (1, 2, 3)]
            ours = levene(groups)
            ref_w, ref_p = scipy.stats.levene(*groups, center="mean")
            assert ours.w == pytest.approx(ref_w, rel=1e-9)
            assert ours.p == pytest.approx(ref_p, rel=1e-6)

    def test_location_shift_invariance(self):
        rng = np.random.default_rng(11)
        groups = [list(rng.normal(0, s, size=15)) for s in (1, 2, 4)]
        base = levene(groups)
        shifted = [groups[0], [x + 100 for x in groups[1]], groups[2]]
        assert levene(shifted).w == pytest.approx(base.w, rel=1e-9)

    def test_null_calibration(self):
        rng = np.random.default_rng(12)
        hits = sum(
            levene([list(rng.normal(size=20)) for _ in range(3)]).p < 0.05
            for _ in range(400)
        )
        assert 0.02 <= hits / 400 <= 0.09

    def test_errors(self):
        with pytest.raises(StatsError, match="need at least 2 groups, got 1"):
            levene([[1, 2, 3]])
        with pytest.raises(StatsError, match="every group needs at least 2 observations"):
            levene([[1, 2], [3]])


class TestFTail:
    def test_at_zero(self):
        assert f_sf(0.0, 3, 7) == 1.0

    def test_critical_value_from_tables(self):
        assert f_sf(3.326, 5, 10) == pytest.approx(0.05, abs=1e-3)

    def test_symmetric_median(self):
        for d in (2, 5, 20):
            assert f_sf(1.0, d, d) == pytest.approx(0.5, abs=1e-6)

    def test_monotone_decreasing(self):
        values = [f_sf(x, 4, 9) for x in (0.0, 0.5, 1.0, 2.0, 5.0, 50.0)]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 1e-4

    def test_matches_scipy_on_grid(self):
        for d1 in (1, 2, 5, 10, 40):
            for d2 in (1, 3, 8, 30, 120):
                for x in (0.05, 0.5, 1.0, 2.5, 10.0):
                    ours = f_sf(x, d1, d2)
                    ref = scipy.stats.f.sf(x, d1, d2)
                    assert ours == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_infinite_statistic(self):
        assert f_sf(math.inf, 2, 2) == 0.0

    # d2 / (d2 + d1 * x) rounds to 1 for a tiny x, and is 0 once d1 * x overflows
    @pytest.mark.parametrize("x,d1,d2,want", [(1e-300, 1, 1, 1.0), (1e308, 4, 2, 0.0)],
                             ids=["rounds-to-one", "overflows-to-zero"])
    def test_beta_argument_at_its_bounds(self, x, d1, d2, want):
        assert f_sf(x, d1, d2) == want == scipy.stats.f.sf(x, d1, d2)

    @pytest.mark.parametrize("x,named", [(math.nan, "NaN"), (-0.5, ">= 0")])
    def test_invalid_statistic(self, x, named):
        with pytest.raises(StatsError, match=named):
            f_sf(x, 2, 2)

    def test_invalid_dof(self):
        with pytest.raises(InvalidConfig, match="d1 must be an integer >= 1, got 0"):
            f_sf(1.0, 0, 5)
        with pytest.raises(InvalidConfig, match="d2 must be an integer >= 1, got -2"):
            f_sf(1.0, 5, -2)
