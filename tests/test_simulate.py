"""Demand generation, error injection, naive forecasting, and extracts."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from demandeval import (
    DemandGenConfig,
    ErrorInjectionConfig,
    EvaluationPair,
    generate_demand,
    perturb_forecast,
    spec_fast,
)
from demandeval import simulate
from demandeval.errors import InvalidConfig, SeriesError
from demandeval.series import DemandSeries
from demandeval.simulate import naive_forecast, segment_extracts
from conftest import ACTUAL, MODEL_A_FORECAST


def _config(**overrides) -> DemandGenConfig:
    base = dict(n=100, count_mu=10.0, count_sigma=2.0,
                magnitude_mu=10.0, magnitude_sigma=3.0, seed=0)
    base.update(overrides)
    return DemandGenConfig(**base)


class TestGenerateDemand:
    def test_zero_count_gives_all_zero(self):
        series = generate_demand(_config(count_mu=0.0, count_sigma=0.0))
        assert not series.values.any()

    def test_degenerate_distributions_fill_every_step(self):
        series = generate_demand(
            _config(n=20, count_mu=20.0, count_sigma=0.0, magnitude_mu=5.0, magnitude_sigma=0.0)
        )
        assert (series.values == 5.0).all()

    def test_deterministic_given_seed(self):
        a = generate_demand(_config(seed=123))
        b = generate_demand(_config(seed=123))
        c = generate_demand(_config(seed=124))
        assert a == b
        assert a != c

    def test_count_clamped_to_horizon(self):
        series = generate_demand(_config(n=5, count_mu=50.0, count_sigma=0.0))
        assert (series.values > 0).sum() == 5

    def test_magnitude_floor(self):
        series = generate_demand(
            _config(count_mu=50.0, magnitude_mu=-10.0, magnitude_sigma=0.5)
        )
        nonzero = series.values[series.values > 0]
        assert (nonzero >= 1.0).all()

    def test_integer_rounding_switch(self):
        series = generate_demand(_config(count_mu=30.0, round_magnitudes=True, seed=5))
        nonzero = series.values[series.values > 0]
        assert (nonzero == np.rint(nonzero)).all()
        assert (nonzero >= 1.0).all()

    def test_mean_nonzero_count_matches_contract(self):
        # Monte-Carlo check of the generator against its own distribution
        counts = [
            int((generate_demand(_config(seed=seed)).values > 0).sum())
            for seed in range(10_000)
        ]
        assert np.mean(counts) == pytest.approx(10.0, rel=0.05)

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            _config(n=0)
        with pytest.raises(InvalidConfig):
            _config(count_sigma=-1.0)
        with pytest.raises(InvalidConfig):
            _config(seed=-1)
        for bad in (dict(n=True), dict(count_mu=True), dict(round_magnitudes="no"),
                    dict(round_magnitudes=1)):
            with pytest.raises(InvalidConfig):
                _config(**bad)
        with pytest.raises(InvalidConfig):
            ErrorInjectionConfig(vertical_sigma=True)
        with pytest.raises(InvalidConfig, match=r"^horizontal_sigma must be >= 0, got -0\.5$"):
            ErrorInjectionConfig(horizontal_sigma=-0.5)


class TestPerturbForecast:
    def test_no_error_reproduces_actual(self):
        actual = DemandSeries(ACTUAL)
        forecast = perturb_forecast(actual, ErrorInjectionConfig(seed=1))
        assert list(forecast.values) == list(actual.values)

    def test_deterministic_left_shift(self):
        # every spike one step early: the 8-unit spike lands where the
        # worked-example model A puts it; the t=12 spike moves to t=11
        actual = DemandSeries(ACTUAL)
        forecast = perturb_forecast(
            actual, ErrorInjectionConfig(horizontal_mu=-1.0, seed=1)
        )
        expected = np.zeros(14)
        expected[7] = 8.0
        expected[10] = 6.0
        assert list(forecast.values) == list(expected)
        assert forecast.values[7] == MODEL_A_FORECAST[7]

    def test_vertical_shift(self):
        actual = DemandSeries([0, 8, 0])
        forecast = perturb_forecast(actual, ErrorInjectionConfig(vertical_mu=-4.0, seed=0))
        assert list(forecast.values) == [0, 4, 0]

    def test_magnitudes_floored_at_zero(self):
        actual = DemandSeries([0, 3, 0])
        forecast = perturb_forecast(actual, ErrorInjectionConfig(vertical_mu=-9.0, seed=0))
        assert list(forecast.values) == [0, 0, 0]

    def test_boundary_clamping_and_collision(self):
        actual = DemandSeries([0, 0, 2, 3])
        forecast = perturb_forecast(actual, ErrorInjectionConfig(horizontal_mu=5.0, seed=0))
        assert list(forecast.values) == [0, 0, 0, 5.0]  # both spikes clamp to t=4

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shift,ends", [
        ({"horizontal_sigma": 1e300}, (0, 13)),
        ({"horizontal_mu": 1e19}, (13,)),
        ({"horizontal_mu": -1e308}, (0,)),
    ])
    def test_shifts_past_int64_land_on_an_end(self, shift, ends):
        actual = DemandSeries(ACTUAL)
        forecast = perturb_forecast(actual, ErrorInjectionConfig(seed=4, **shift))
        assert set(np.flatnonzero(forecast.values).tolist()) <= set(ends)
        assert forecast.values.sum() == actual.values.sum()

    @staticmethod
    def _per_spike_twin(actual: DemandSeries, config: ErrorInjectionConfig) -> np.ndarray:
        """The scalar definition: two ``rng.normal`` calls per spike, in time order."""
        rng = np.random.default_rng(config.seed)
        y = actual.values
        n = actual.n
        out = np.zeros(n)
        for pos in np.flatnonzero(y).tolist():
            shift = rng.normal(config.horizontal_mu, config.horizontal_sigma)
            if not -n < shift < n:
                shift = math.copysign(n, shift)
            target = min(max(pos + round(shift), 0), n - 1)
            magnitude = y[pos] + rng.normal(config.vertical_mu, config.vertical_sigma)
            if magnitude > 0:
                out[target] += magnitude
        return out

    @staticmethod
    def _adversarial_cases():
        """3,600 (actual, config) cases: short series, huge spikes, shifts and errors past int64."""
        rng = np.random.default_rng(23)
        horizontal = [(0.0, 0.5), (1.5, 2.5), (-3.0, 40.0), (0.5, 0.0), (200.0, 1.0),
                      (0.0, 1e300), (1e19, 0.0), (-1e19, 2.0), (-1e308, 0.0)]
        vertical = [(0.0, 1.0), (-5.0, 3.0), (2.0, 0.0), (1e19, 1.0), (-1e308, 0.0),
                    (0.0, 1e300)]
        magnitudes = [1.0, 10.0, 0.5, 1e308]
        for case in range(3600):
            n = int(rng.choice([1, 2, 3, 14, 96]))
            values = np.zeros(n)
            count = int(rng.integers(0, n + 1))  # 0 gives an all-zero actual
            values[rng.choice(n, size=count, replace=False)] = rng.choice(magnitudes, size=count)
            actual = DemandSeries(values)
            h_mu, h_sigma = horizontal[int(rng.integers(len(horizontal)))]
            v_mu, v_sigma = vertical[int(rng.integers(len(vertical)))]
            direction = case % 3  # vertical, horizontal, both
            if direction == 0:
                h_mu = h_sigma = 0.0
            elif direction == 1:
                v_mu = v_sigma = 0.0
            yield actual, ErrorInjectionConfig(v_mu, v_sigma, h_mu, h_sigma, seed=int(rng.integers(2**63)))

    @pytest.mark.parametrize("block", [simulate._SPIKE_BLOCK, 5])
    def test_matches_per_spike_twin(self, monkeypatch, block):
        monkeypatch.setattr(simulate, "_SPIKE_BLOCK", block)  # 5: spikes drawn over many blocks
        checked = 0
        for actual, config in self._adversarial_cases():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = self._per_spike_twin(actual, config)
            finite = bool(np.isfinite(want).all())
            # a generator passed in is drawn from, and the config's seed goes unused
            inputs = ((config, None),
                      (replace(config, seed=config.seed ^ 1), np.random.default_rng(config.seed)))
            for given, stream in inputs:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    if not finite:
                        with pytest.raises(SeriesError, match="series contains NaN or infinite entries"):
                            perturb_forecast(actual, given, stream)
                        continue
                    got = perturb_forecast(actual, given, stream).values
                assert got.tobytes() == want.tobytes(), (actual.values, config, stream)
            checked += finite
        assert checked >= 3000

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("block", [simulate._SPIKE_BLOCK, 5])
    def test_block_rows_match_lone_calls(self, monkeypatch, block):
        monkeypatch.setattr(simulate, "_SPIKE_BLOCK", block)
        checked = 0
        for actual, config in self._adversarial_cases():
            seeds = (config.seed, config.seed + 1, config.seed + 2)
            streams = [np.random.default_rng(seed) for seed in seeds]
            twins = [np.random.default_rng(seed) for seed in seeds]
            lone = []
            for twin in twins:
                try:
                    lone.append(perturb_forecast(actual, config, twin).values)
                except SeriesError:
                    lone.append(None)
            if any(row is None for row in lone):
                with pytest.raises(SeriesError, match="series contains NaN or infinite entries"):
                    perturb_forecast(actual, config, iter(streams))
            else:
                got = perturb_forecast(actual, config, iter(streams)).values
                assert got.shape == (3, actual.n)
                assert [row.tobytes() for row in got] == [row.tobytes() for row in lone], (
                    actual.values, config)
                checked += 1
            # each stream is left where its lone call leaves it
            assert [s.standard_normal() for s in streams] == [t.standard_normal() for t in twins]
        assert checked >= 3000

    def test_volume_preserved_away_from_boundaries(self):
        rng = np.random.default_rng(3)
        actual = generate_demand(_config(n=200, count_mu=8.0, seed=17))
        forecast = perturb_forecast(
            actual, ErrorInjectionConfig(horizontal_sigma=2.0, seed=9)
        )
        assert forecast.values.sum() == pytest.approx(actual.values.sum())

    def test_monotone_error_response(self):
        # larger injected spread must raise the expected cost score
        actual = generate_demand(_config(seed=21))
        means = []
        for sigma in (0.5, 2.0):
            scores = [
                spec_fast(
                    EvaluationPair(
                        actual,
                        perturb_forecast(
                            actual,
                            ErrorInjectionConfig(
                                vertical_sigma=sigma, horizontal_sigma=sigma, seed=seed
                            ),
                        ),
                    )
                )
                for seed in range(400)
            ]
            means.append(np.mean(scores))
        assert means[1] > means[0] * 1.2


class TestNaiveForecast:
    def test_definition(self):
        assert list(naive_forecast(DemandSeries([5, 0, 3])).values) == [0, 5, 0]

    def test_all_zero(self):
        assert not naive_forecast(DemandSeries([0, 0, 0])).values.any()

    def test_worked_example_actual(self):
        result = naive_forecast(DemandSeries(ACTUAL))
        expected = [0.0] * 9 + [8.0, 0.0, 0.0, 6.0, 0.0]
        assert list(result.values) == expected


class TestSegmentExtracts:
    def test_window_equal_to_length(self):
        series = DemandSeries([1, 2, 3])
        extracts = segment_extracts(series, window=3, count=4, seed=0)
        assert len(extracts) == 4
        assert all(e == series for e in extracts)

    def test_start_range(self):
        series = DemandSeries([1, 2, 3, 4, 5])
        starts = set()
        for seed in range(50):
            for e in segment_extracts(series, window=3, count=4, seed=seed):
                starts.add(tuple(e.values))
        assert starts == {(1, 2, 3), (2, 3, 4), (3, 4, 5)}

    def test_deterministic(self):
        series = DemandSeries(list(range(1, 21)))
        a = segment_extracts(series, 5, 10, seed=7)
        b = segment_extracts(series, 5, 10, seed=7)
        assert all(x == y for x, y in zip(a, b))

    def test_window_too_large(self):
        with pytest.raises(InvalidConfig, match="window 3 exceeds series length 2"):
            segment_extracts(DemandSeries([1, 2]), window=3, count=1, seed=0)

    @pytest.mark.parametrize("window,count", [(True, 2), (2, True), (True, True), (2.0, 2)])
    def test_window_and_count_must_be_integers(self, window, count):
        with pytest.raises(InvalidConfig):
            segment_extracts(DemandSeries([1, 2, 3]), window, count, 0)

    def test_huge_count_rejected_before_drawing(self):
        for count in (simulate.MAX_COUNT + 1, 2**70):
            with pytest.raises(InvalidConfig, match="count"):
                segment_extracts(DemandSeries([1, 2, 3]), 2, count, 0)
