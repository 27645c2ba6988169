"""The benchmark's tracer must still find every layer it wraps on every workload.

``perfbench/tracing.py`` wraps named functions (``derive_seed``,
``perturb_forecast``, ``EvaluationPair.__init__``, ``compute_metric``, the
classic metrics, ``spec_fast``, ``spec_decompose``, ``spec_alpha_sweep``,
``stock_cost``, the CSV and SVG writers, the statistics) and reports a layer
as unmeasured when a workload never calls it, which fails the traced
benchmark run. These tests load the tracer file as it is and run both
studies on a small grid, and the long_pair CLI session on a short pair,
under it, so an engine that drops a wrapped name from the call path fails
here first.
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


def _perfbench_module(name: str):
    """``perfbench/<name>.py`` loaded as it is, registered while it is in use."""
    path = REPO_ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def tracing():
    yield from _perfbench_module("tracing")


@pytest.fixture(scope="module")
def workloads():
    yield from _perfbench_module("workloads")


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


def _traced(tracing, setup, run):
    """A tracer that saw ``setup()`` as run 0 and ``run()`` as run 1, after
    checking that every wrapped binding is back in place."""
    for layer in tracing.LAYERS:  # the tracer wraps only modules already imported
        for module, _ in layer.targets:
            importlib.import_module(module)
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        setup()
        tracer.run_id = 1
        run()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    return tracer


def test_studies_call_every_traced_layer(tracing, configs_dir, monkeypatch):
    reliability, _, _ = _study("reliability", configs_dir)
    cost_validity, cost, metric = _study("cost_validity", configs_dir)

    def run():
        demandeval.experiments.run_reliability(reliability)
        demandeval.experiments.run_cost_validity(cost_validity, cost, metric)
    tracer = _traced(tracing, lambda: None, run)  # cells dealt to this machine's CPUs
    for workload in tracing.STUDIES:
        assert tracing.layer_metrics(tracer, workload, [1])[1] == {}, workload
    # the counts below are of every cell, so all are scored in this process
    monkeypatch.setattr(experiments, "_worker_count", lambda: 1)
    tracer = _traced(tracing, lambda: None, run)
    for workload in tracing.STUDIES:
        values, unmeasured = tracing.layer_metrics(tracer, workload, [1])
        assert unmeasured == {}, workload
    # run 1 holds both studies; a cell is one series and all of its (level,
    # forecast) rows: one seed call for its demand, and its forecasts' streams
    # are seeded without one
    cells = 3 + 3
    assert values["experiments.derive_seed.calls"] == cells
    # one perturb_forecast call per (series, level) block
    blocks = 3 * (len(reliability.variance_levels) + len(cost_validity.variance_levels))
    assert values["simulate.perturb_forecast.calls"] == blocks == 21
    # a cell of 4 forecasts per level at n = 96 is one batch, one (rows, n) pair
    # scored by one call per metric and, on cost-validity, priced by one oracle
    # call; no pair is built per forecast
    assert values["warehouse.stock_cost.calls"] == 3
    assert values["series.EvaluationPair.calls"] == cells == 6
    assert values["metrics.compute_metric.calls"] == 3 * len(reliability.metrics) + 3 * len(cost_validity.metrics)
    assert values["spec.spec_fast.calls"] == cells


def test_long_pair_calls_every_traced_layer(tracing, workloads, tmp_path):
    # the CLI session on a short pair: score it, then decompose and sweep a
    # window, which reach spec_decompose and spec_alpha_sweep
    workload = workloads.make("long_pair", 7, n=2_000, window=256)
    inputs = {}
    tracer = _traced(tracing, lambda: inputs.update(workload.make_inputs(tmp_path)),
                     lambda: workload.run(inputs))
    _, unmeasured = tracing.layer_metrics(tracer, "long_pair", [1])
    assert unmeasured == {}


def _study(name: str, configs_dir):
    """The shipped config of ``name`` cut to 3 series of 4 forecasts, with its weights."""
    data = json.loads((configs_dir / f"{name}.json").read_text(encoding="utf-8"))
    config, cost, metric = experiments._cost_validity_from_dict(data)
    return replace(config, series_count=3, forecasts_per_series=4), cost, metric
