"""Property-based invariants of the cost score."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from itertools import accumulate

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
    stock_cost,
)
from demandeval import metrics
from demandeval.metrics import METRIC_NAMES, mape

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


#: Quantities whose products and differences stay clear of subnormals under 2**-400.
normal_quantities = st.lists(
    st.one_of(st.just(0.0), st.integers(1, 100).map(float), st.floats(min_value=1e-3, max_value=100)),
    min_size=1,
    max_size=30,
)

#: Degree of homogeneity in the quantities of each report metric.
DEGREES = {"mae": 1, "mdae": 1, "mse": 2, "rmse": 1, "mape": 0, "mdape": 0, "rmspe": 0, "smape": 0,
           "mase": 0, "rmsse": 0, "spec": 1}


@given(normal_quantities, normal_quantities, st.integers(-400, 1015))
@settings(max_examples=300)
def test_positive_homogeneity(actual, forecast, j):
    """metric(2**j * pair) == 2**(d*j) * metric(pair) bit for bit, also where a sum overflows."""
    pair = _pair(actual, forecast)
    scaled = EvaluationPair.from_values(np.ldexp(pair.actual.values, j), np.ldexp(pair.forecast.values, j))
    assert np.isfinite(scaled.actual.values).all() and np.isfinite(scaled.forecast.values).all()
    assert tuple(DEGREES) == METRIC_NAMES
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = compute_all(scaled)
        base = compute_all(pair)
    for name, degree in DEGREES.items():
        with np.errstate(over="ignore"):
            want = np.ldexp(base[name], degree * j)
        assert np.float64(got[name]).tobytes() == want.tobytes() or (
            math.isnan(want) and math.isnan(got[name])), (name, got[name], want)
    for name in METRIC_NAMES[:-1]:  # every metric but spec is a function of the pair alone
        with np.errstate(over="ignore", invalid="ignore"):
            direct = getattr(metrics, name)(scaled)
        assert np.float64(direct).tobytes() == np.float64(got[name]).tobytes() or (
            math.isnan(got[name]) and math.isnan(direct)), (name, direct, got[name])
    tenfold = EvaluationPair.from_values(10 * pair.actual.values, 10 * pair.forecast.values)
    assert spec_fast(tenfold) == pytest.approx(10 * spec_fast(pair), abs=1e-9, rel=1e-9)


@given(quantities, quantities, weights, weights)
@settings(max_examples=300)
def test_score_is_the_decomposition_value(actual, forecast, a1, a2):
    if a1 == 0.0 and a2 == 0.0:
        a1 = 1.0
    pair = _pair(actual, forecast)
    params = SpecParams(a1, a2)
    assert spec_decompose(pair, params).spec_value == spec_fast(pair, params)


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
        assert outcome == math.inf
    else:
        assert math.isnan(outcome)


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
    """Only the cumulative volume, 2e308, overflows, so the score is the reference
    score of the pair scaled by 2**-1024, scaled back: inf only past the float range."""
    actual, forecast = [1e308, 1e308, 0.0], [0.0, 0.0, 1e308]
    if mirrored:
        actual, forecast = forecast, actual
    pair = EvaluationPair.from_values(actual, forecast)
    scaled = EvaluationPair.from_values(np.ldexp(actual, -1024), np.ldexp(forecast, -1024))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = spec_alpha_sweep(pair, 3)
        default = spec_decompose(pair, SpecParams(0.25, 0.75) if mirrored else SpecParams())
        for point in sweep:
            weights = SpecParams(point.alpha1, point.alpha2)
            with np.errstate(over="ignore"):
                expected = float(np.ldexp(spec_literal(scaled, weights), 1024))
            breakdown = spec_decompose(pair, weights)
            assert spec_fast(pair, weights) == expected
            assert compute_all(pair, weights, ("spec",))["spec"] == expected
            assert breakdown.spec_value == expected == point.spec_value
            steps = np.ldexp(breakdown.per_t_opportunity + breakdown.per_t_stock, -1024)
            assert not np.isnan(steps).any() and steps.sum() == np.ldexp(expected, -1024) * pair.n
    # exactly (0.75 * 6e308) / 3 with the weights on the overflowing side
    assert default.spec_value == spec_fast(pair, default.params) == 1.5e308
    units = (default.opp_unit_periods, default.stock_unit_periods)
    assert units == ((0.0, math.inf) if mirrored else (math.inf, 0.0))  # 6e308 unit-periods
    assert [point.spec_value for point in sweep] == (
        [math.inf, 1e308, 0.0] if mirrored else [0.0, 1e308, math.inf]
    )


def _exact_spec(actual, forecast, alpha1, alpha2) -> Fraction:
    """:func:`spec_literal`'s double sum in exact arithmetic."""
    y, f = [Fraction(v) for v in actual], [Fraction(v) for v in forecast]
    a1, a2 = Fraction(alpha1), Fraction(alpha2)
    ycum, fcum = list(accumulate(y)), list(accumulate(f))
    total = sum(
        max(0, min(ycum[i] - fcum[t], y[i]) * a1, min(fcum[i] - ycum[t], f[i]) * a2) * (t - i + 1)
        for t in range(len(y)) for i in range(t + 1)
    )
    return total / len(y)


@pytest.mark.parametrize("actual, forecast, weights, literal", [
    # 1 unit owed for 100 periods: the weight and the age sum pass the float range, not the quantities
    ([1.0] + [0.0] * 99, [0.0] * 100, (1e306, 0.0), math.inf),
    # the quantities pass it; scaling the weights in the same pass would flush alpha2 to 0
    ([0.0, 0.0, 0.0, 1e308, 1e308], [1e308, 1e308, 0.0, 0.0, 0.0], (1e306, 1e-300), 2.4e8),
], ids=["large-weight", "pair-before-weights"])
def test_large_weights_are_inf_only_past_the_float_range(actual, forecast, weights, literal):
    pair = EvaluationPair.from_values(actual, forecast)
    params = SpecParams(*weights)
    exact = _exact_spec(actual, forecast, *weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [spec_fast(pair, params), spec_decompose(pair, params).spec_value, stock_cost(pair, params)]
    for value in values:
        assert abs(Fraction(value) - exact) <= Fraction(4e-16) * exact, (value, float(exact))
    assert spec_literal(pair, params) == literal  # the reference has no rescue; pinned as it stands
