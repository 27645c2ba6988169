"""Conventions and golden values for the traditional accuracy measures."""

import math
import warnings

import numpy as np
import pytest

from demandeval import DemandEvalError, EvaluationPair, compute_all
from demandeval.errors import InvalidConfig
from demandeval.metrics import (
    METRIC_NAMES,
    _mean,
    mae,
    mape,
    mase,
    mdae,
    mdape,
    mse,
    rmse,
    rmspe,
    rmsse,
    smape,
)
from conftest import ACTUAL


ALL_METRICS = (mae, mdae, mse, rmse, mape, mdape, rmspe, smape, mase, rmsse)


class TestWorkedExampleColumn:
    """The two-model comparison table the toolkit must reproduce."""

    def test_model_a(self, model_a_pair):
        assert mae(model_a_pair) == pytest.approx(1.143, abs=1e-3)
        assert rmse(model_a_pair) == pytest.approx(3.024, abs=1e-3)
        assert mape(model_a_pair) == math.inf
        assert smape(model_a_pair) == pytest.approx(0.667, abs=1e-3)

    def test_model_b(self, model_b_pair):
        assert mae(model_b_pair) == pytest.approx(0.857, abs=1e-3)
        assert rmse(model_b_pair) == pytest.approx(2.390, abs=1e-3)
        assert mape(model_b_pair) == math.inf
        assert smape(model_b_pair) == pytest.approx(0.667, abs=1e-3)

    def test_mase_standard_convention(self, model_a_pair, model_b_pair):
        # one-step in-sample naive scaling: (16/14) / (28/13)
        assert mase(model_a_pair) == pytest.approx(0.531, abs=1e-3)
        ratio = mase(model_a_pair) / mase(model_b_pair)
        assert ratio == pytest.approx(4.0 / 3.0, abs=1e-2)

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.__name__)
    def test_every_metric_is_a_plain_float(self, metric, model_a_pair, model_b_pair):
        assert type(metric(model_a_pair)) is float
        assert type(metric(model_b_pair)) is float

    def test_overestimation_scenario_rmse(self):
        # same demand, but the early 8-unit delivery replaced by a 19-unit
        # forecast right on the demand step: the squared error is nearly the
        # same as model A's even though the mistake is far more costly
        forecast = [0, 0, 0, 0, 0, 0, 0, 0, 19, 0, 0, 6, 0, 0]
        pair = EvaluationPair.from_values(ACTUAL, forecast)
        assert rmse(pair) == pytest.approx(2.94, abs=1e-2)


class TestBasicDefinitions:
    def test_perfect_forecast(self):
        pair = EvaluationPair.from_values([1, 2], [1, 2])
        for metric in (mae, mdae, mse, rmse, mape, mdape, rmspe, smape):
            outcome = metric(pair)
            assert math.isfinite(outcome) and outcome == 0.0

    def test_mae_mdae(self):
        pair = EvaluationPair.from_values([0, 0, 4], [2, 0, 0])
        assert mae(pair) == pytest.approx(2.0)
        assert mdae(pair) == pytest.approx(2.0)

    def test_rmse_squares_to_mse(self, model_a_pair):
        assert rmse(model_a_pair) ** 2 == pytest.approx(
            mse(model_a_pair), abs=1e-9
        )


class TestPercentageConventions:
    def test_plain_percentage(self):
        pair = EvaluationPair.from_values([2, 4], [3, 2])
        assert mape(pair) == pytest.approx(0.5)
        assert mdape(pair) == pytest.approx(0.5)
        assert rmspe(pair) == pytest.approx(0.5)

    def test_zero_actual_zero_error_skipped(self):
        pair = EvaluationPair.from_values([0, 2], [0, 3])
        assert mape(pair) == pytest.approx(0.5)

    def test_zero_actual_nonzero_error_is_infinite(self):
        pair = EvaluationPair.from_values([0, 2], [1, 2])
        for metric in (mape, mdape, rmspe):
            assert metric(pair) == math.inf

    def test_all_terms_skipped_is_undefined(self):
        pair = EvaluationPair.from_values([0, 0], [0, 0])
        outcome = mape(pair)
        assert math.isnan(outcome)

    def test_smape_support_and_range(self):
        pair = EvaluationPair.from_values([0, 0], [0, 0])
        assert math.isnan(smape(pair))
        pair = EvaluationPair.from_values([0, 2], [4, 2])
        # terms: 4/(0+4)=1 and 0 -> mean over the two supported steps
        assert smape(pair) == pytest.approx(0.5)


class TestScaledErrors:
    def test_constant_actuals_undefined(self):
        pair = EvaluationPair.from_values([3, 3, 3], [1, 2, 3])
        assert math.isnan(mase(pair))
        assert math.isnan(rmsse(pair))

    def test_single_step_undefined(self):
        pair = EvaluationPair.from_values([3], [1])
        assert math.isnan(mase(pair))
        assert math.isnan(rmsse(pair))

    def test_rmsse_value(self):
        pair = EvaluationPair.from_values([0, 4, 0], [2, 0, 0])
        # scale^2 = (16 + 16)/2 = 16; mse = (4+16)/3
        expected = math.sqrt((20.0 / 3.0) / 16.0)
        assert rmsse(pair) == pytest.approx(expected, abs=1e-12)


class TestContrastProperties:
    """Scale and symmetry behaviour that separates the metric families."""

    def test_absolute_errors_scale_percentage_errors_do_not(self):
        pair = EvaluationPair.from_values([2, 4], [3, 2])
        scaled = EvaluationPair.from_values([20, 40], [30, 20])
        assert mae(scaled) == pytest.approx(10 * mae(pair))
        assert mape(scaled) == pytest.approx(mape(pair))
        assert smape(scaled) == pytest.approx(smape(pair))

    def test_mae_symmetric_mape_not(self):
        ab = EvaluationPair.from_values([2], [4])
        ba = EvaluationPair.from_values([4], [2])
        assert mae(ab) == mae(ba)
        assert mape(ab) == pytest.approx(1.0)
        assert mape(ba) == pytest.approx(0.5)

    def test_all_finite_outputs_non_negative(self, model_a_pair, model_b_pair):
        for pair in (model_a_pair, model_b_pair):
            report = compute_all(pair)
            for outcome in report.values():
                assert type(outcome) is float
                if math.isfinite(outcome):
                    assert outcome >= 0.0


class TestComputeAll:
    def test_full_metric_set(self, model_a_pair):
        report = compute_all(model_a_pair)
        assert isinstance(report, dict)
        assert tuple(report) == METRIC_NAMES
        assert math.isfinite(report["spec"])
        assert report["spec"] == pytest.approx(2.0 / 14.0, abs=1e-9)
        assert report["mape"] == math.inf

    def test_subset(self, model_a_pair):
        report = compute_all(model_a_pair, metrics=("mae", "spec"))
        assert tuple(report) == ("mae", "spec")

    def test_all_zero_pair(self):
        pair = EvaluationPair.from_values([0, 0, 0], [0, 0, 0])
        report = compute_all(pair)
        assert all(type(value) is float for value in report.values())
        for name in ("mae", "mse", "rmse", "spec"):
            assert report[name] == 0.0
        for name in ("mape", "smape"):
            assert math.isnan(report[name])

    def test_unknown_metric(self, model_a_pair):
        with pytest.raises(DemandEvalError):
            compute_all(model_a_pair, metrics=("mae", "nope"))

    @pytest.mark.parametrize("metrics", [("mae", "mae"), ("spec", "mae", "spec")])
    def test_duplicate_metric(self, model_a_pair, metrics):
        with pytest.raises(InvalidConfig, match="duplicate metric names"):
            compute_all(model_a_pair, metrics=metrics)

    def test_overflow_is_non_finite_without_warnings(self):
        """Only a value whose exact result exceeds the float range is inf."""
        pair = EvaluationPair.from_values([1e200, 0], [0, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compute_all(pair)
        assert report["mse"] == math.inf  # exactly 1e400
        assert not math.isfinite(report["mse"])
        # the same scores on the pair scaled by 2**-665, scaled back
        scaled = EvaluationPair.from_values(np.ldexp([1e200, 0], -665), np.ldexp([0, 1e200], -665))
        assert report["rmse"] == np.ldexp(rmse(scaled), 665)
        assert report["rmse"] == pytest.approx(1e200, rel=1e-15)
        assert report["rmsse"] == rmsse(scaled) == 1.0

    def test_sums_past_the_float_range_keep_finite_means(self):
        # actual 1e305 on odd steps and forecast 1e305 on even steps: every sum overflows
        up = np.arange(2000) % 2 == 0
        pair = EvaluationPair.from_values(np.where(up, 1e305, 0.0), np.where(up, 0.0, 1e305))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = compute_all(pair)
        with np.errstate(over="ignore", invalid="ignore"):
            direct = {func.__name__: func(pair) for func in ALL_METRICS}
        for got in (entries, direct):
            assert got["mae"] == 9.999999999999995e304
            assert got["mdae"] == got["rmse"] == 1e305
            assert got["mase"] == 0.9999999999999996
            assert got["rmsse"] == 1.0
            assert got["mse"] == math.inf

    def test_overflowing_naive_scale_is_not_a_false_zero(self):
        # every naive step is 1e305, so the scale sums overflow; the error sums do not
        up = np.arange(2000) % 2 == 0
        actual = np.where(up, 1e305, 0.0)
        forecast = actual.copy()
        forecast[1] = 1e153  # the one error, on a zero step
        pair = EvaluationPair.from_values(actual, forecast)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = compute_all(pair, metrics=("mase", "rmsse"))
        assert entries["mase"] == pytest.approx(1e153 / 2000 / 1e305, rel=1e-12, abs=0)
        assert entries["rmsse"] == pytest.approx(math.sqrt(1e306 / 2000 / 1e305 / 1e305), rel=1e-12, abs=0)
        with np.errstate(over="ignore"):
            assert (mase(pair), rmsse(pair)) == (entries["mase"], entries["rmsse"])

    def test_overflowing_smape_denominator_is_not_a_false_zero(self):
        # y + f passes the float range, so the term 1e308 / 2e308 would read 0
        tiny = 5e-324  # the smallest subnormal, which halving would round away
        cases = [
            ([1.5e308], [5e307], 0.5),
            ([1.5e308, 1], [5e307, 3], 0.5),  # terms 0.5 and 2 / 4
            ([1.5e308, 1e-300], [5e307, 0], 0.75),  # terms 0.5 and 1
            ([1.7e308, 3 * tiny], [1.7e308, tiny], 0.25),  # terms 0 and 2 / 4
        ]
        for actual, forecast, want in cases:
            pair = EvaluationPair.from_values(actual, forecast)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert compute_all(pair, metrics=("smape",)) == {"smape": want}
            with np.errstate(over="ignore"):
                assert smape(pair) == want

    @pytest.mark.parametrize(
        "actual, forecast, want",
        [
            ([1e-200], [1e-40], (1e-40 / 1e-200,) * 3),
            ([1e-10, 1e-10], [1e298, 1e298], (1e298 / 1e-10,) * 3),
            # one term of 1e310 among 999 zeros; rmspe is exactly 3.16e308, past the float range
            ([1, 1e-10] + [1] * 998, [1, 1e300] + [1] * 998, (1e307, 0.0, math.inf)),
        ],
        ids=["squares", "sum", "term"],
    )
    def test_percentage_terms_overflowing_in_the_reduction(self, actual, forecast, want):
        """A term, its square or their sum passes the float range; the score only where its value does."""
        pair = EvaluationPair.from_values(actual, forecast)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compute_all(pair, metrics=("mape", "mdape", "rmspe"))
        assert tuple(report.values()) == want
        with np.errstate(over="ignore"):
            assert (mape(pair), mdape(pair), rmspe(pair)) == want

    def test_empty_selection(self, model_a_pair):
        with pytest.raises(InvalidConfig, match="no metrics"):
            compute_all(model_a_pair, metrics=())


def test_mean_is_ndarray_mean_bit_for_bit():
    rng = np.random.default_rng(31)
    scales = [1.0, 1e-3, 1e10, 1e300, 1.7e308]
    for _ in range(20_000):
        size = int(rng.choice([1, 2, 3, 7, 8, 9, 95, 96, 127, 128, 129, 1000]))
        # values and sums past the float range are inf or nan, the same either way
        with np.errstate(over="ignore", invalid="ignore"):
            x = rng.standard_normal(size) * rng.choice(scales)
            if rng.random() < 0.2:
                x[rng.random(size) < 0.5] = 0.0
            got, want = _mean(x), x.mean()
        assert type(got) is float
        assert np.float64(got).tobytes() == want.tobytes(), x
