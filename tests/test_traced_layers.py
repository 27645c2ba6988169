"""The benchmark's tracer must still find every layer it wraps on the studies.

``perfbench/tracing.py`` wraps named functions (``derive_seed``,
``perturb_forecast``, ``EvaluationPair.__init__``, ``compute_metric``, the
classic metrics, ``spec_fast``, ``stock_cost``, the statistics) and reports a
layer as unmeasured when a study never calls it, which fails the traced
benchmark run. This test loads the tracer file as it is and runs both studies
on a small grid under it, so an engine that drops a wrapped name from the
call path fails here first.
"""

import importlib
import importlib.util
import json
import sys
from dataclasses import replace

import pytest

import demandeval
from demandeval import experiments
from conftest import REPO_ROOT


@pytest.fixture(scope="module")
def tracing():
    path = REPO_ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _bindings() -> dict:
    """Every function object a demandeval module or dispatch dict holds, by location."""
    held = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "demandeval" or name.startswith("demandeval.")):
            continue
        for key, value in vars(module).items():
            held[(name, key)] = value
            if isinstance(value, dict):
                for dkey, dvalue in value.items():
                    held[(name, key, dkey)] = dvalue
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    held[(name, key, "." + attr)] = member
    return held


def test_studies_call_every_traced_layer(tracing, configs_dir):
    reliability, _, _ = _study("reliability", configs_dir)
    cost_validity, cost, metric = _study("cost_validity", configs_dir)
    for layer in tracing.LAYERS:  # the tracer wraps only modules already imported
        for module, _ in layer.targets:
            importlib.import_module(module)
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        tracer.run_id = 1
        demandeval.experiments.run_reliability(reliability)
        demandeval.experiments.run_cost_validity(cost_validity, cost, metric)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    for workload in tracing.STUDIES:
        values, unmeasured = tracing.layer_metrics(tracer, workload, [1])
        assert unmeasured == {}, workload
    # run 1 holds both studies; one seed call per series and one per (series, level) block
    calls = 3 * (1 + len(reliability.variance_levels)) + 3 * (1 + len(cost_validity.variance_levels))
    assert values["experiments.derive_seed.calls"] == calls
    # one perturb_forecast call per (series, level) block
    blocks = 3 * (len(reliability.variance_levels) + len(cost_validity.variance_levels))
    assert values["simulate.perturb_forecast.calls"] == blocks == 21
    cost_rows = 3 * 4 * len(cost_validity.variance_levels)
    assert values["warehouse.stock_cost.calls"] == cost_rows
    # each (series, level) block is one (k, n) pair, scored by one call per metric;
    # a pair per forecast is built only for the warehouse oracle
    reliability_blocks = 3 * len(reliability.variance_levels)
    cost_blocks = 3 * len(cost_validity.variance_levels)
    assert values["series.EvaluationPair.calls"] == reliability_blocks + cost_blocks + cost_rows == 45
    assert values["metrics.compute_metric.calls"] == (
        reliability_blocks * len(reliability.metrics) + cost_blocks * len(cost_validity.metrics))
    assert values["spec.spec_fast.calls"] == reliability_blocks + cost_blocks


def _study(name: str, configs_dir):
    """The shipped config of ``name`` cut to 3 series of 4 forecasts, with its weights."""
    data = json.loads((configs_dir / f"{name}.json").read_text(encoding="utf-8"))
    config, cost, metric = experiments._cost_validity_from_dict(data)
    return replace(config, series_count=3, forecasts_per_series=4), cost, metric
