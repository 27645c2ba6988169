"""Conventions and golden values for the traditional accuracy measures."""

import math
import warnings

import numpy as np
import pytest

from demandeval import DemandEvalError, EvaluationPair, compute_all
from demandeval.errors import InvalidParams
from demandeval.metrics import (
    METRIC_NAMES,
    MetricReport,
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


class TestWorkedExampleColumn:
    """The two-model comparison table the toolkit must reproduce."""

    def test_model_a(self, model_a_pair):
        assert mae(model_a_pair).value == pytest.approx(1.143, abs=1e-3)
        assert rmse(model_a_pair).value == pytest.approx(3.024, abs=1e-3)
        assert mape(model_a_pair).value == math.inf
        assert smape(model_a_pair).value == pytest.approx(0.667, abs=1e-3)

    def test_model_b(self, model_b_pair):
        assert mae(model_b_pair).value == pytest.approx(0.857, abs=1e-3)
        assert rmse(model_b_pair).value == pytest.approx(2.390, abs=1e-3)
        assert mape(model_b_pair).value == math.inf
        assert smape(model_b_pair).value == pytest.approx(0.667, abs=1e-3)

    def test_mase_standard_convention(self, model_a_pair, model_b_pair):
        # one-step in-sample naive scaling: (16/14) / (28/13)
        assert mase(model_a_pair).value == pytest.approx(0.531, abs=1e-3)
        ratio = mase(model_a_pair).value / mase(model_b_pair).value
        assert ratio == pytest.approx(4.0 / 3.0, abs=1e-2)

    def test_overestimation_scenario_rmse(self):
        # same demand, but the early 8-unit delivery replaced by a 19-unit
        # forecast right on the demand step: the squared error is nearly the
        # same as model A's even though the mistake is far more costly
        forecast = [0, 0, 0, 0, 0, 0, 0, 0, 19, 0, 0, 6, 0, 0]
        pair = EvaluationPair.from_values(ACTUAL, forecast)
        assert rmse(pair).value == pytest.approx(2.94, abs=1e-2)


class TestBasicDefinitions:
    def test_perfect_forecast(self):
        pair = EvaluationPair.from_values([1, 2], [1, 2])
        for metric in (mae, mdae, mse, rmse, mape, mdape, rmspe, smape):
            outcome = metric(pair)
            assert outcome.is_finite and outcome.value == 0.0

    def test_mae_mdae(self):
        pair = EvaluationPair.from_values([0, 0, 4], [2, 0, 0])
        assert mae(pair).value == pytest.approx(2.0)
        assert mdae(pair).value == pytest.approx(2.0)

    def test_rmse_squares_to_mse(self, model_a_pair):
        assert rmse(model_a_pair).value ** 2 == pytest.approx(
            mse(model_a_pair).value, abs=1e-9
        )


class TestPercentageConventions:
    def test_plain_percentage(self):
        pair = EvaluationPair.from_values([2, 4], [3, 2])
        assert mape(pair).value == pytest.approx(0.5)
        assert mdape(pair).value == pytest.approx(0.5)
        assert rmspe(pair).value == pytest.approx(0.5)

    def test_zero_actual_zero_error_skipped(self):
        pair = EvaluationPair.from_values([0, 2], [0, 3])
        assert mape(pair).value == pytest.approx(0.5)

    def test_zero_actual_nonzero_error_is_infinite(self):
        pair = EvaluationPair.from_values([0, 2], [1, 2])
        for metric in (mape, mdape, rmspe):
            assert metric(pair).value == math.inf

    def test_all_terms_skipped_is_undefined(self):
        pair = EvaluationPair.from_values([0, 0], [0, 0])
        outcome = mape(pair)
        assert math.isnan(outcome.value)

    def test_smape_support_and_range(self):
        pair = EvaluationPair.from_values([0, 0], [0, 0])
        assert math.isnan(smape(pair).value)
        pair = EvaluationPair.from_values([0, 2], [4, 2])
        # terms: 4/(0+4)=1 and 0 -> mean over the two supported steps
        assert smape(pair).value == pytest.approx(0.5)


class TestScaledErrors:
    def test_constant_actuals_undefined(self):
        pair = EvaluationPair.from_values([3, 3, 3], [1, 2, 3])
        assert math.isnan(mase(pair).value)
        assert math.isnan(rmsse(pair).value)

    def test_single_step_undefined(self):
        pair = EvaluationPair.from_values([3], [1])
        assert math.isnan(mase(pair).value)
        assert math.isnan(rmsse(pair).value)

    def test_rmsse_value(self):
        pair = EvaluationPair.from_values([0, 4, 0], [2, 0, 0])
        # scale^2 = (16 + 16)/2 = 16; mse = (4+16)/3
        expected = math.sqrt((20.0 / 3.0) / 16.0)
        assert rmsse(pair).value == pytest.approx(expected, abs=1e-12)


class TestContrastProperties:
    """Scale and symmetry behaviour that separates the metric families."""

    def test_absolute_errors_scale_percentage_errors_do_not(self):
        pair = EvaluationPair.from_values([2, 4], [3, 2])
        scaled = EvaluationPair.from_values([20, 40], [30, 20])
        assert mae(scaled).value == pytest.approx(10 * mae(pair).value)
        assert mape(scaled).value == pytest.approx(mape(pair).value)
        assert smape(scaled).value == pytest.approx(smape(pair).value)

    def test_mae_symmetric_mape_not(self):
        ab = EvaluationPair.from_values([2], [4])
        ba = EvaluationPair.from_values([4], [2])
        assert mae(ab).value == mae(ba).value
        assert mape(ab).value == pytest.approx(1.0)
        assert mape(ba).value == pytest.approx(0.5)

    def test_all_finite_outputs_non_negative(self, model_a_pair, model_b_pair):
        for pair in (model_a_pair, model_b_pair):
            report = compute_all(pair)
            for outcome in report.entries.values():
                if outcome.is_finite:
                    assert outcome.value >= 0.0


class TestComputeAll:
    def test_full_metric_set(self, model_a_pair):
        report = compute_all(model_a_pair)
        assert isinstance(report, MetricReport)
        assert tuple(report.entries) == METRIC_NAMES
        assert report.entries["spec"].is_finite
        assert report.entries["spec"].value == pytest.approx(2.0 / 14.0, abs=1e-9)
        assert report.entries["mape"].value == math.inf

    def test_subset(self, model_a_pair):
        report = compute_all(model_a_pair, metrics=("mae", "spec"))
        assert tuple(report.entries) == ("mae", "spec")

    def test_all_zero_pair(self):
        pair = EvaluationPair.from_values([0, 0, 0], [0, 0, 0])
        report = compute_all(pair)
        for name in ("mae", "mse", "rmse", "spec"):
            assert report.entries[name].value == 0.0
        for name in ("mape", "smape"):
            assert math.isnan(report.entries[name].value)

    def test_unknown_metric(self, model_a_pair):
        with pytest.raises(DemandEvalError):
            compute_all(model_a_pair, metrics=("mae", "nope"))

    def test_overflow_is_non_finite_without_warnings(self):
        pair = EvaluationPair.from_values([1e200, 0], [0, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compute_all(pair)
        assert report.entries["mse"].value == report.entries["rmse"].value == math.inf
        assert math.isnan(report.entries["rmsse"].value)
        assert not report.entries["rmsse"].is_finite

    def test_empty_selection(self, model_a_pair):
        with pytest.raises(InvalidParams, match="no metrics"):
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
