"""Series containers and validation."""

import pytest

from demandeval import EvaluationPair
from demandeval.errors import SeriesError
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

    def test_forecast_same_rules(self):
        with pytest.raises(SeriesError, match="series contains negative quantities"):
            ForecastSeries([-0.5])
        assert ForecastSeries([0.5]).n == 1

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
        assert pair.n == 2
