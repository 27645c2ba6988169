"""Property-based invariants of the cost score."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from demandeval import (
    EvaluationPair,
    SpecParams,
    compute_all,
    spec_alpha_sweep,
    spec_decompose,
    spec_fast,
    spec_literal,
)
from demandeval.metrics import mape

quantities = st.lists(
    st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=30
)
weights = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


def _pair(actual, forecast):
    n = min(len(actual), len(forecast))
    return EvaluationPair.from_values(actual[:n], forecast[:n])


@given(quantities, quantities)
@settings(max_examples=200)
def test_non_negative(actual, forecast):
    assert spec_fast(_pair(actual, forecast)) >= 0.0


@given(quantities)
@settings(max_examples=200)
def test_zero_on_perfect_forecast(values):
    assert spec_fast(_pair(values, values)) == 0.0


@given(quantities, quantities, weights, weights)
@settings(max_examples=200)
def test_linear_in_weights(actual, forecast, a1, a2):
    if a1 == 0.0 and a2 == 0.0:
        a1 = 1.0
    pair = _pair(actual, forecast)
    combined = spec_fast(pair, SpecParams(a1, a2))
    opportunity_only = spec_fast(pair, SpecParams(1.0, 0.0))
    stock_only = spec_fast(pair, SpecParams(0.0, 1.0))
    expected = a1 * opportunity_only + a2 * stock_only
    assert combined == pytest.approx(expected, abs=1e-9, rel=1e-9)


@given(quantities, quantities)
@settings(max_examples=200)
def test_mirror_symmetry(actual, forecast):
    pair = _pair(actual, forecast)
    swapped = EvaluationPair.from_values(pair.forecast.values, pair.actual.values)
    assert spec_fast(pair, SpecParams(0.75, 0.25)) == pytest.approx(
        spec_fast(swapped, SpecParams(0.25, 0.75)), abs=1e-9
    )


@given(quantities, quantities, st.sampled_from([0.5, 2.0, 10.0]))
@settings(max_examples=200)
def test_positive_homogeneity(actual, forecast, c):
    pair = _pair(actual, forecast)
    scaled = EvaluationPair.from_values(c * pair.actual.values, c * pair.forecast.values)
    assert spec_fast(scaled) == pytest.approx(c * spec_fast(pair), abs=1e-9, rel=1e-9)


@given(quantities, quantities)
@settings(max_examples=150)
def test_branch_exclusivity(actual, forecast):
    b = spec_decompose(_pair(actual, forecast))
    assert not ((b.per_t_opportunity > 0) & (b.per_t_stock > 0)).any()


@given(quantities)
@settings(max_examples=150)
def test_finite_on_all_zero_actuals_where_mape_is_not(forecast):
    pair = _pair([0.0] * len(forecast), forecast)
    value = spec_fast(pair)
    assert np.isfinite(value)
    outcome = mape(pair)
    if any(v > 0 for v in pair.forecast.values):
        assert outcome.value == math.inf
    else:
        assert math.isnan(outcome.value)


def test_positive_whenever_cumulative_paths_diverge():
    """Nonzero score exactly when some prefix of demand and delivery differ."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 25))
        actual = rng.uniform(0, 10, n) * (rng.random(n) < 0.5)
        forecast = rng.uniform(0, 10, n) * (rng.random(n) < 0.5)
        pair = EvaluationPair.from_values(actual, forecast)
        value = spec_fast(pair)
        diverged = (np.cumsum(actual) != np.cumsum(forecast)).any()
        if diverged:
            assert value > 0.0
        else:
            assert value == 0.0


@pytest.mark.parametrize("mirrored", [False, True], ids=["owed", "held"])
def test_overflowing_volume_matches_reference(mirrored):
    """A side whose cumulative volume overflows scores inf unless its weight is 0."""
    actual, forecast = [1e308, 1e308, 0.0], [0.0, 0.0, 1e308]
    if mirrored:
        actual, forecast = forecast, actual
    pair = EvaluationPair.from_values(actual, forecast)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = spec_alpha_sweep(pair, 3)
        for point in sweep:
            weights = SpecParams(point.alpha1, point.alpha2)
            expected = spec_literal(pair, weights)
            assert not math.isnan(expected)
            breakdown = spec_decompose(pair, weights)
            assert spec_fast(pair, weights) == expected
            assert compute_all(pair, weights, ("spec",)).entries["spec"].value == expected
            assert breakdown.spec_value == expected == point.spec_value
            steps = breakdown.per_t_opportunity + breakdown.per_t_stock
            assert not np.isnan(steps).any() and steps.sum() == expected * pair.n
    assert [point.spec_value for point in sweep] == (
        [math.inf, math.inf, 0.0] if mirrored else [0.0, math.inf, math.inf]
    )
