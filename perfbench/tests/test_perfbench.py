"""Tests of the benchmark itself, on inputs small enough to run in seconds.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

run.import_program()

import demandeval  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def small_study(name: str, tmp_path: Path):
    study = workloads.make(name, seed=3)
    inputs = study.make_inputs(tmp_path)
    inputs["config"] = dataclasses.replace(inputs["config"], series_count=4, forecasts_per_series=3)
    return study, inputs


def small_long_pair(tmp_path: Path, seed: int = 3):
    workload = workloads.make("long_pair", seed, n=20_000, window=256)
    return workload, workload.setup(tmp_path)


def wrapped_names() -> dict:
    """Every object the tracer may replace, by (module, attribute) name."""
    names = {}
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("demandeval"):
            names.update({(module_name, k): v for k, v in vars(module).items() if callable(v)})
    names["EvaluationPair.__init__"] = demandeval.EvaluationPair.__dict__["__init__"]
    names["_METRIC_FUNCS"] = dict(demandeval.metrics._METRIC_FUNCS)
    return names


@pytest.mark.parametrize("name", ["reliability", "cost_validity"])
def test_traced_study_report_is_byte_identical(name, tmp_path):
    study, inputs = small_study(name, tmp_path)
    plain = study.run(inputs)
    before = wrapped_names()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert demandeval.experiments.derive_seed is not before[("demandeval.experiments",
                                                                 "derive_seed")]
        traced = study.run(inputs)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert wrapped_names() == before
    assert tracer.span_count > 0 and not tracer.missing


def test_traced_long_pair_outputs_are_byte_identical(tmp_path):
    workload, inputs = small_long_pair(tmp_path)
    plain = workload.check(inputs, workload.run(inputs))
    tracer = tracing.Tracer()
    tracer.run_id = 1
    tracer.install()
    try:
        traced = workload.check(inputs, workload.run(inputs))
    finally:
        tracer.uninstall()
    assert traced == plain
    values, unmeasured = tracing.layer_metrics(tracer, "long_pair", [1])
    assert values["csvio.parse_pair_csv.rows"] == 20_000 + 3 * 256
    assert values["spec.spec_decompose.steps"] == 256
    # only the set-up layers are missing, because set-up ran untraced here
    assert set(unmeasured) == {"simulate.generate_demand", "simulate.perturb_forecast"}


def test_corrupted_study_report_fails_and_counts(monkeypatch):
    study = workloads.make("cost_validity", seed=1)
    inputs = study.setup(Path("unused"))
    assert study.pinned is not None, "seed 1 must have a pinned digest"
    real_run = workloads.Study.run
    monkeypatch.setattr(workloads.Study, "run",
                        lambda self, inp: real_run(self, inp).replace('"r": 0.', '"r": 0.1', 1))
    runs = run.loop(study, inputs, seconds=0)
    assert runs.attempted == 1 and runs.failed == 1 and runs.failed_frac == 1.0
    assert "pinned" in runs.failures[0]


def test_corrupted_decomposition_fails_and_counts(tmp_path, monkeypatch):
    workload, inputs = small_long_pair(tmp_path)
    real_run = workloads.LongPair.run

    def corrupting_run(self, inp):
        output = real_run(self, inp)
        steps = inp["dir"] / "steps.csv"
        lines = steps.read_text().splitlines()
        t, opportunity, stock = lines[-1].split(",")
        lines[-1] = f"{t},{float(opportunity) + 1.0},{stock}"
        steps.write_text("\n".join(lines) + "\n")
        return output

    monkeypatch.setattr(workloads.LongPair, "run", corrupting_run)
    runs = run.loop(workload, inputs, seconds=0)
    assert runs.failed_frac == 1.0
    assert "decomposition sums" in runs.failures[0]


def test_slow_run_times_out_and_counts(tmp_path):
    study, inputs = small_study("cost_validity", tmp_path)
    study.timeout_s = 0.05

    def spin(inp):
        deadline = time.perf_counter() + 5
        while time.perf_counter() < deadline:
            pass

    study.run = spin
    start = time.perf_counter()
    runs = run.loop(study, inputs, seconds=0)
    assert time.perf_counter() - start < 3
    assert runs.failed == 1 and "timed out" in runs.failures[0]


def test_long_pair_inputs_repeat_for_a_seed(tmp_path):
    first = workloads.make("long_pair", 11, n=5_000, window=256).make_inputs(tmp_path / "a")
    again = workloads.make("long_pair", 11, n=5_000, window=256).make_inputs(tmp_path / "b")
    other = workloads.make("long_pair", 12, n=5_000, window=256).make_inputs(tmp_path / "c")
    for key, path in first["paths"].items():
        assert path.read_bytes() == again["paths"][key].read_bytes()
    assert first["paths"]["long"].read_bytes() != other["paths"]["long"].read_bytes()


def test_missing_or_uncalled_layer_is_unmeasured(tmp_path):
    layers = tracing.LAYERS + (
        tracing.Layer("spec.gone", (("demandeval.spec", "_no_such_profile"),),
                      ("busy_s",), ("reliability",), "nothing"),
    )
    tracer = tracing.Tracer(layers)
    tracer.install()
    tracer.uninstall()
    values, unmeasured = tracing.layer_metrics(tracer, "reliability", [1])
    assert "no longer exists" in unmeasured["spec.gone"]
    assert unmeasured["experiments.derive_seed"] == "not called on reliability"
    assert not any(name.startswith(("spec.gone", "experiments.derive_seed")) for name in values)
    # layers the workload is not expected to call are measured as zero
    assert values["warehouse.stock_cost.calls"] == 0


def test_oracle_check_passes_at_a_held_out_seed(tmp_path):
    for name in ("reliability", "cost_validity"):
        study = workloads.make(name, seed=987654)
        study.oracle_check(study.make_inputs(tmp_path))


def test_metric_table_matches_benchmark_json():
    import json

    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == tracing.metric_table()


def test_sampler_times_a_span_at_reference_speed(tmp_path):
    before = signal.getsignal(signal.SIGPROF)
    sampler = hostspeed.Sampler(interval_s=0.02)
    mark = sampler.mark()
    sampler.start()
    try:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
        span = sampler.span(mark)
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGPROF) == before
    assert span.samples >= hostspeed.MIN_SAMPLES
    assert 0 < span.net_s < span.wall_s  # the samples' own time is taken out
    assert span.factor > 0
    assert span.reference_s == pytest.approx(span.net_s / span.factor)

    study, inputs = small_study("cost_validity", tmp_path)
    runs = run.loop(study, inputs, seconds=0, sampler=sampler)
    assert runs.failed == 0 and len(runs.untraced) == 1
    assert runs.untraced[0].span.samples >= hostspeed.MIN_SAMPLES
    assert runs.ok_reference_walls == runs.reference_walls
