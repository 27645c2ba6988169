"""Series containers and validation."""

import io
import math

import numpy as np
import pytest

from demandeval import EvaluationPair, spec_alpha_sweep, spec_decompose, spec_literal
from demandeval.csvio import write_pair_csv
from demandeval.errors import SeriesError
from demandeval.metrics import ExtendedValue
from demandeval.series import DemandSeries, ForecastSeries


class TestValidateSeries:
    def test_well_formed(self):
        series = DemandSeries([0, 8, 0])
        assert series.n == 3
        assert list(series.values) == [0.0, 8.0, 0.0]

    def test_empty_rejected(self):
        with pytest.raises(SeriesError, match="series must contain at least one time step"):
            DemandSeries([])

    def test_two_dimensional_rejected(self):
        with pytest.raises(SeriesError, match="1-d"):
            DemandSeries([[1, 2], [3, 4]])

    def test_negative_rejected(self):
        with pytest.raises(SeriesError, match="series contains negative quantities"):
            DemandSeries([1, -2])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(SeriesError, match="series contains NaN or infinite entries"):
            DemandSeries([1.0, bad])

    def test_values_are_read_only(self):
        series = DemandSeries([1, 2, 3])
        with pytest.raises(ValueError):
            series.values[0] = 9.0

    def test_forecast_block(self):
        block = ForecastSeries([[1, 2, 3], [0, 0, 5]])
        assert block.values.shape == (2, 3) and block.n == 3

    def test_three_dimensional_forecast_rejected(self):
        with pytest.raises(SeriesError, match="1-d or 2-d"):
            ForecastSeries(np.ones((2, 2, 3)))

    def test_forecast_same_rules(self):
        with pytest.raises(SeriesError, match="series contains negative quantities"):
            ForecastSeries([-0.5])
        assert ForecastSeries([0.5]).n == 1

    def test_a_callers_array_is_copied(self):
        raw = np.array([[1.0, 2.0], [0.0, 3.0]])
        block = ForecastSeries(raw)
        assert not np.shares_memory(block.values, raw) and raw.flags.writeable
        raw[0, 0] = 9.0
        assert block.values[0, 0] == 1.0

    def test_an_owned_array_is_validated_and_kept(self):
        raw = np.array([[1.0, 2.0], [0.0, 3.0]])
        block = ForecastSeries._owning(raw)
        assert block.values is raw and not raw.flags.writeable
        assert block == ForecastSeries([[1, 2], [0, 3]]) and type(block) is ForecastSeries
        for bad, match in (([-1.0], "negative"), ([math.nan, 1.0], "NaN"), ([[[1.0]]], "1-d or 2-d")):
            with pytest.raises(SeriesError, match=match):
                ForecastSeries._owning(np.array(bad))

    def test_equality_needs_same_series_type(self):
        assert DemandSeries([1, 2]) == DemandSeries([1.0, 2.0])
        assert ForecastSeries([1, 2]) == ForecastSeries([1.0, 2.0])
        assert DemandSeries([1, 2]) != ForecastSeries([1, 2])
        assert ForecastSeries([1, 2]) != DemandSeries([1, 2])


class TestEvaluationPair:
    def test_length_mismatch(self):
        with pytest.raises(SeriesError, match="actual has 2 steps but forecast has 3"):
            EvaluationPair.from_values([1, 2], [1, 2, 3])

    def test_n(self):
        pair = EvaluationPair.from_values([1, 2], [2, 1])
        assert pair.n == len(pair.actual) == len(pair.forecast) == 2

    def test_block_horizon_mismatch(self):
        with pytest.raises(SeriesError, match="actual has 2 steps but forecast has 3"):
            EvaluationPair.from_values([1, 2], [[1, 2, 3], [3, 2, 1]])

    @pytest.mark.parametrize("evaluate", [spec_literal, spec_decompose,
                                          lambda pair: spec_alpha_sweep(pair, 3),
                                          pytest.param(lambda pair: write_pair_csv(pair, io.StringIO()),
                                                       id="write_pair_csv")])
    def test_one_forecast_evaluators_reject_a_block(self, evaluate):
        with pytest.raises(SeriesError, match="expected one forecast"):
            evaluate(EvaluationPair.from_values([1, 2], [[1, 2], [2, 1]]))


def test_extended_value_of_an_array_is_finite_only_when_every_entry_is():
    assert ExtendedValue(np.array([1.0, 2.0])).is_finite
    assert not ExtendedValue(np.array([1.0, math.nan])).is_finite
    assert not ExtendedValue(math.inf).is_finite
