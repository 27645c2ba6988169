"""The package namespace: what ``import demandeval`` offers, the error vocabulary and the README tour."""

import re

import demandeval
from demandeval import errors
from conftest import REPO_ROOT

PUBLIC_NAMES = {
    "__version__",
    "DemandEvalError",
    "EvaluationPair",
    "SpecParams",
    "DEFAULT_PARAMS",
    "spec_fast",
    "spec_literal",
    "spec_decompose",
    "spec_alpha_sweep",
    "METRIC_NAMES",
    "compute_all",
    "DemandGenConfig",
    "ErrorInjectionConfig",
    "generate_demand",
    "perturb_forecast",
    "stock_cost",
    "ReliabilityConfig",
    "ValidityConfig",
    "SegmentReliabilityConfig",
    "run_reliability",
    "run_validity",
    "run_segment_reliability",
    "run_segment_reliability_config",
    "run_cost_validity",
}


def test_public_names_are_exported_and_resolve():
    assert len(demandeval.__all__) == len(PUBLIC_NAMES)
    assert set(demandeval.__all__) == PUBLIC_NAMES
    for name in demandeval.__all__:
        assert getattr(demandeval, name) is not None


def test_readme_library_tour_runs():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"## Library tour\n+```python\n(.*?)```", readme, re.S)
    assert tour is not None, "README has no Library tour code block"
    namespace: dict = {}
    exec(compile(tour.group(1), "README.md", "exec"), namespace)
    assert namespace["forecast"].n == namespace["demand"].n == 96


#: The exception classes of ``demandeval.errors``: one per kind of input a caller must fix.
ERROR_CLASSES = {
    "DemandEvalError",
    "SeriesError",
    "MalformedRow",
    "InvalidConfig",
    "StatsError",
    "DegenerateInput",
}


def test_error_vocabulary():
    defined = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    assert defined == ERROR_CLASSES
    for name in ERROR_CLASSES:
        assert issubclass(getattr(errors, name), errors.DemandEvalError)
    assert issubclass(errors.DegenerateInput, errors.StatsError)
