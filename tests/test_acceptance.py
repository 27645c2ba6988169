"""Acceptance suite: every shipped claim, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py -v`` to see one line per
criterion. The experiment criteria use the desk-scale configs shipped in
configs/, each read and run as ``demandeval experiment`` does; their runs
are shared across criteria through module-scoped fixtures and their wall
times feed the overall runtime budget check. Their bounds on the study
reports (c06-c10) are the table in ``tests/acceptance_bounds.py``, which
``tools/seed_sweep.py`` runs at other root seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import time

import numpy as np
import pytest

from demandeval import (
    EvaluationPair,
    SpecParams,
    compute_all,
    spec_decompose,
    spec_fast,
    spec_literal,
)
from demandeval.metrics import mape, rmse
from demandeval.stats import f_sf, levene, pearson
from acceptance_bounds import BOUNDS, CONFIG_DIR, STUDIES, run_study
from conftest import ACTUAL, MODEL_A_FORECAST, MODEL_B_FORECAST, REPO_ROOT, random_pair

#: Wall time of each desk-scale experiment, keyed by config name.
TIMINGS: dict[str, float] = {}


def _passed(num: int, label: str) -> None:
    print(f"acceptance C{num:02d} {label}: PASS")


def _assert_bounds(criterion: str, study: str, report) -> None:
    """Every bound of ``criterion`` in :data:`acceptance_bounds.BOUNDS`, all on ``study``, holds."""
    bounds = [bound for bound in BOUNDS if bound.criterion == criterion]
    assert bounds and {bound.study for bound in bounds} == {study}
    for bound in bounds:
        value = bound.value(report)
        assert bound.holds(value), f"{bound.name}: {value}"


def _timed(study: str):
    """``study``'s report at its shipped seed, its wall time kept in :data:`TIMINGS`."""
    start = time.perf_counter()
    report = run_study(study)
    TIMINGS[study] = time.perf_counter() - start
    return report


@pytest.fixture(scope="module")
def model_a() -> EvaluationPair:
    return EvaluationPair.from_values(ACTUAL, MODEL_A_FORECAST)


@pytest.fixture(scope="module")
def model_b() -> EvaluationPair:
    return EvaluationPair.from_values(ACTUAL, MODEL_B_FORECAST)


@pytest.fixture(scope="module")
def horizontal_report():
    return _timed("validity_horizontal")


@pytest.fixture(scope="module")
def vertical_report():
    return _timed("validity_vertical")


@pytest.fixture(scope="module")
def reliability_report():
    return _timed("reliability")


@pytest.fixture(scope="module")
def segment_report():
    return _timed("segment_reliability")


@pytest.fixture(scope="module")
def cost_report():
    return _timed("cost_validity")


def test_c01_golden_worked_example(model_a, model_b):
    report_a = compute_all(model_a)
    report_b = compute_all(model_b)
    assert report_a["mae"] == pytest.approx(1.143, abs=1e-3)
    assert report_b["mae"] == pytest.approx(0.857, abs=1e-3)
    assert report_a["rmse"] == pytest.approx(3.024, abs=1e-3)
    assert report_b["rmse"] == pytest.approx(2.390, abs=1e-3)
    assert report_a["mape"] == math.inf
    assert report_b["mape"] == math.inf
    assert report_a["smape"] == pytest.approx(0.667, abs=1e-3)
    assert report_b["smape"] == pytest.approx(0.667, abs=1e-3)
    assert report_a["spec"] == pytest.approx(0.143, abs=1e-3)
    ratio = report_a["mase"] / report_b["mase"]
    assert ratio == pytest.approx(4.0 / 3.0, abs=1e-2)
    _passed(1, "golden worked example")


def test_c02_model_b_full_horizon_value(model_b):
    value = spec_literal(model_b)
    assert value == pytest.approx(37.0 / 14.0, abs=1e-9)
    # deliberately not the 2.000 a horizon truncated at t=13 would produce
    assert abs(value - 2.0) > 0.5
    breakdown = spec_decompose(model_b)
    assert breakdown.stock_at(8) == pytest.approx(1.0, abs=1e-12)
    anchors = {9: 3.0, 10: 6.0, 11: 9.0, 12: 3.0, 13: 6.0, 14: 9.0}
    for t, expected in anchors.items():
        assert breakdown.opportunity_at(t) == pytest.approx(expected, abs=1e-12)
    truncated = sum(
        breakdown.opportunity_at(t) + breakdown.stock_at(t) for t in range(1, 14)
    ) / 14.0
    assert truncated == pytest.approx(2.0, abs=1e-9)
    _passed(2, "full-horizon charge on model B")


def test_c03_overestimation_scenario_rmse():
    forecast = list(MODEL_A_FORECAST)
    forecast[7] = 0
    forecast[8] = 19
    pair = EvaluationPair.from_values(ACTUAL, forecast)
    assert rmse(pair) == pytest.approx(2.94, abs=1e-2)
    _passed(3, "overestimation scenario rmse")


def test_c04_fast_evaluator_matches_reference():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    pairs = [
        EvaluationPair.from_values([0.0] * 14, [0.0] * 14),
        EvaluationPair.from_values([0, 0, 9, 0], [0, 0, 0, 9]),
        EvaluationPair.from_values([3.5] * 50, [2.5] * 50),
    ]
    pairs.extend(random_pair(rng, max_n=50) for _ in range(1000))
    for pair in pairs:
        params = SpecParams(rng.uniform(0, 2), rng.uniform(0.01, 2))
        assert abs(spec_fast(pair, params) - spec_literal(pair, params)) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(4, f"evaluator equivalence on 1003 pairs in {elapsed:.2f}s")


def test_c05_randomized_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    scales = (0.5, 2.0, 10.0)
    for _ in range(10_000):
        n = int(rng.integers(1, 31))
        actual = rng.uniform(0, 30, n) * (rng.random(n) < 0.5)
        forecast = rng.uniform(0, 30, n) * (rng.random(n) < 0.5)
        pair = EvaluationPair.from_values(actual, forecast)
        a1 = float(rng.uniform(0, 2))
        a2 = float(rng.uniform(0.01, 2))
        params = SpecParams(a1, a2)

        value = spec_fast(pair, params)
        assert value >= 0.0
        assert spec_fast(EvaluationPair.from_values(actual, actual), params) == 0.0

        opp_only = spec_fast(pair, SpecParams(1.0, 0.0))
        stock_only = spec_fast(pair, SpecParams(0.0, 1.0))
        assert abs(value - (a1 * opp_only + a2 * stock_only)) <= 1e-9 * max(1.0, value)

        mirrored = spec_fast(
            EvaluationPair.from_values(forecast, actual), SpecParams(a2, a1)
        )
        assert abs(value - mirrored) <= 1e-9 * max(1.0, value)

        c = scales[int(rng.integers(0, 3))]
        scaled = spec_fast(EvaluationPair.from_values(c * actual, c * forecast), params)
        assert abs(scaled - c * value) <= 1e-9 * max(1.0, c * value)

        breakdown = spec_decompose(pair, params)
        assert not ((breakdown.per_t_opportunity > 0) & (breakdown.per_t_stock > 0)).any()

        zero_actual = EvaluationPair.from_values(np.zeros(n), forecast)
        assert math.isfinite(spec_fast(zero_actual, params))
        outcome = mape(zero_actual)
        if forecast.any():
            assert outcome == math.inf
        else:
            assert math.isnan(outcome)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(5, f"10,000-case property suite in {elapsed:.1f}s")


def test_c06_horizontal_validity(horizontal_report):
    assert TIMINGS["validity_horizontal"] < 60.0
    metrics = horizontal_report.metrics
    _assert_bounds("c06", "validity_horizontal", horizontal_report)
    assert metrics["mape"].not_calculable is not None
    assert metrics["smape"].not_calculable is not None
    _passed(6, f"horizontal validity (spec r={metrics['spec'].r:.3f})")


def test_c07_vertical_validity(vertical_report):
    assert TIMINGS["validity_vertical"] < 60.0
    metrics = vertical_report.metrics
    _assert_bounds("c07", "validity_vertical", vertical_report)
    _passed(7, f"vertical validity (spec r={metrics['spec'].r:.4f})")


def test_c08_reliability_and_test_retest(reliability_report):
    spec_outcome = reliability_report.metrics["spec"]
    _assert_bounds("c08", "reliability", reliability_report)
    rerun = run_study("reliability")
    assert rerun.to_json() == reliability_report.to_json()
    _passed(8, f"reliability (spec r={spec_outcome.r:.3f}; rerun byte-identical)")


def test_c09_segment_reliability(segment_report):
    assert len(segment_report.config["magnitude_mus"]) >= 5
    _assert_bounds("c09", "segment_reliability", segment_report)
    _passed(9, f"segment reliability (levene p={segment_report.levene.p:.2e})")


def test_c10_cost_validity(cost_report):
    _assert_bounds("c10", "cost_validity", cost_report)
    spec_r = cost_report.metrics["spec"].r
    mae_r = cost_report.metrics["mae"].r
    _passed(10, f"cost validity (spec r-1={spec_r - 1.0:.1e}, mae r={mae_r:.3f})")


def test_every_bound_is_asserted_on_a_shipped_study():
    assert {bound.criterion for bound in BOUNDS} == {"c06", "c07", "c08", "c09", "c10"}
    assert {bound.study for bound in BOUNDS} == STUDIES.keys()
    assert all((CONFIG_DIR / f"{study}.json").is_file() for study in STUDIES)


def test_c11_statistics_correctness():
    assert f_sf(3.326, 5, 10) == pytest.approx(0.05, abs=1e-3)

    rng = np.random.default_rng(1111)
    hits = sum(
        levene([list(rng.normal(size=20)) for _ in range(3)]).p < 0.05
        for _ in range(1000)
    )
    rate = hits / 1000.0
    assert 0.03 <= rate <= 0.07

    assert abs(pearson([1, 2, 3], [5, 7, 9]) - 1.0) <= 1e-9
    assert abs(pearson([1, 2, 3], [9, 7, 5]) + 1.0) <= 1e-9
    _passed(11, f"statistics correctness (levene null rate {rate:.1%})")


def test_c12_performance(horizontal_report, vertical_report, reliability_report,
                         segment_report, cost_report):
    rng = np.random.default_rng(1212)
    n = 100_000
    actual = rng.uniform(0, 20, n) * (rng.random(n) < 0.1)
    forecast = rng.uniform(0, 20, n) * (rng.random(n) < 0.1)
    pair = EvaluationPair.from_values(actual, forecast)
    start = time.perf_counter()
    value = spec_fast(pair)
    elapsed = time.perf_counter() - start
    assert value >= 0.0
    assert elapsed < 1.0

    suite_time = sum(TIMINGS.values())
    assert suite_time < 300.0
    _passed(12, f"performance (n=100k score {elapsed:.2f}s; suite {suite_time:.0f}s)")


#: SHA-256 of ``report.to_json()`` for each shipped experiment config. Floats
#: are reproducible only within one installation, so the pins hold for the
#: interpreter/numpy pair below and the check is skipped on any other.
GOLDEN_INSTALLATION = ("3.11.7", "2.4.6")
GOLDEN_REPORTS = {
    "reliability": "8d8b79ba093a63cc431395b99541a8a97a0349846ba43c1354d84ad199024f7f",
    "validity_horizontal": "0984c376c72e79db826f69f64b5efd786555e9db4b0fd39ce67e1c7e673580fb",
    "validity_vertical": "217991d258362d7a5c07a14e606c3c2d30c2cf8b0f9287ec1fc97c6ed008a6af",
    "segment_reliability": "408912d0fca0478c294768dc56fad751bfe38b3f2a9bfc0a5b2e82e92b9ea93c",
    "cost_validity": "0fb6ce36e1d28af2b4bd336404d0969263836bf411a8a6498d65cafea4a80782",
}


def test_golden_report_digests(horizontal_report, vertical_report, reliability_report,
                               segment_report, cost_report):
    installation = (platform.python_version(), np.__version__)
    if installation != GOLDEN_INSTALLATION:
        pytest.skip(
            f"report digests are pinned for Python/numpy {GOLDEN_INSTALLATION}, "
            f"this is {installation}; floats are reproducible only within an installation"
        )
    reports = {
        "reliability": reliability_report,
        "validity_horizontal": horizontal_report,
        "validity_vertical": vertical_report,
        "segment_reliability": segment_report,
        "cost_validity": cost_report,
    }
    digests = {
        name: hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
        for name, report in reports.items()
    }
    assert digests == GOLDEN_REPORTS


#: Every number of the five shipped study reports, config snapshots left out,
#: at full repr. Unlike the digests above they hold on any installation whose
#: numpy draws the same random streams.
REPORT_VALUES = REPO_ROOT / "tests" / "report_values.json"

#: The first draws of ``default_rng(0)`` through each kind of call the studies make.
NUMPY_STREAMS = {
    "normal": [0.1257302210933933, -0.1321048632913019, 0.6404226504432821],
    "choice": [60, 49, 79],
    "integers": [81, 61, 49],
}


def _numpy_streams() -> dict:
    return {
        "normal": np.random.default_rng(0).normal(size=3).tolist(),
        "choice": np.random.default_rng(0).choice(96, size=3, replace=False).tolist(),
        "integers": np.random.default_rng(0).integers(0, 96, size=3).tolist(),
    }


def _assert_matches(got, want, path: str) -> None:
    """Floats within 1e-12 relative; everything else, and the structure, exactly."""
    if isinstance(want, float):
        assert isinstance(got, float), (path, got)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), (path, got)
        for key, value in want.items():
            _assert_matches(got[key], value, f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (path, got)
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    else:  # not_calculable strings, "inf"/"undef", counts, None
        assert type(got) is type(want) and got == want, (path, got, want)


def test_report_values(horizontal_report, vertical_report, reliability_report,
                       segment_report, cost_report):
    if _numpy_streams() != NUMPY_STREAMS:
        pytest.skip("numpy's random streams differ from those the report values were drawn from")
    want = json.loads(REPORT_VALUES.read_text(encoding="utf-8"))
    reports = {
        "reliability": reliability_report,
        "validity_horizontal": horizontal_report,
        "validity_vertical": vertical_report,
        "segment_reliability": segment_report,
        "cost_validity": cost_report,
    }
    assert reports.keys() == want.keys()
    for name, report in reports.items():
        got = json.loads(report.to_json())
        del got["config"]
        _assert_matches(got, want[name], name)
