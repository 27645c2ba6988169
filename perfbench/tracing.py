"""Span tracing around demandeval's public functions, installed from outside.

The tracer replaces each wrapped function by a recording wrapper wherever the
package holds a reference to it (module attributes, plus dict values such as
dispatch tables), and puts every original back on ``uninstall``. Spans live in
flat in-memory arrays (layer, parent span, run id, start, end) and are written
out once, after the traced run.

A layer is *unmeasured* when one of its wrapped names no longer exists, or
when a workload that should exercise it never called it. Unmeasured layers
are reported with their reason and never as zero time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

STUDIES = ("reliability", "cost_validity")
LONG = ("long_pair",)
ALL = STUDIES + LONG


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _pair_steps(args, kwargs, result) -> int:
    return _arg(args, kwargs, 0, "pair").n


def _spikes(args, kwargs, result) -> int:
    return int((_arg(args, kwargs, 0, "actual").values != 0).sum())


def _nonfinite(args, kwargs, result) -> int:
    return 0 if result.is_finite else 1


def _parsed_rows(args, kwargs, result) -> int:
    return result.n


def _file_bytes(pos: int, name: str):
    def count(args, kwargs, result) -> int:
        target = _arg(args, kwargs, pos, name)
        return os.path.getsize(target) if isinstance(target, (str, Path)) else 0

    return count


def _text_bytes(args, kwargs, result) -> int:
    return len(result) if isinstance(result, str) else 0


def _written_bytes(args, kwargs, result) -> int:
    if result is None:  # write_pair_csv writes to its target and returns nothing
        return _file_bytes(1, "target")(args, kwargs, result)
    return _text_bytes(args, kwargs, result)


@dataclass(frozen=True)
class Layer:
    """One traced layer: the functions it wraps and what it should move.

    ``targets`` are ``(module, attribute)`` names; an attribute ``Cls.meth``
    wraps a method defined on the class. ``stats`` are the metrics reported
    for the layer; ``extras`` add per-call counts computed from the call's
    arguments and result. ``expected`` names the workloads that must call
    the layer; ``moves`` says which end-to-end metric it should move.
    """

    name: str
    targets: tuple[tuple[str, str], ...]
    stats: tuple[str, ...]
    expected: tuple[str, ...]
    moves: str
    extras: tuple[tuple[str, Callable], ...] = ()


_CLASSIC = ("mae", "mdae", "mse", "rmse", "mape", "mdape", "rmspe", "smape", "mase", "rmsse")
_STUDY_METRICS = ("mae", "rmse", "mase", "smape")

LAYERS: tuple[Layer, ...] = (
    Layer("experiments.derive_seed", (("demandeval.experiments", "derive_seed"),),
          ("calls", "busy_s", "errors"), STUDIES, "wall_s on reliability and cost_validity"),
    Layer("experiments.runner",
          (("demandeval.experiments", "run_reliability"),
           ("demandeval.experiments", "run_cost_validity")),
          ("busy_s", "self_s", "errors"), STUDIES,
          "wall_s on reliability and cost_validity (self_s: loop and bookkeeping)"),
    Layer("simulate.generate_demand", (("demandeval.simulate", "generate_demand"),),
          ("calls", "busy_s", "errors"), ALL,
          "wall_s on the studies, setup_s on long_pair"),
    Layer("simulate.perturb_forecast", (("demandeval.simulate", "perturb_forecast"),),
          ("calls", "busy_s", "spikes", "errors"), ALL,
          "wall_s on the studies, setup_s on long_pair", (("spikes", _spikes),)),
    Layer("series.EvaluationPair", (("demandeval.series", "EvaluationPair.__init__"),),
          ("calls", "busy_s", "errors"), ALL, "wall_s on reliability"),
    Layer("metrics.compute_metric", (("demandeval.metrics", "compute_metric"),),
          ("calls", "busy_s", "errors"), ALL,
          "wall_s on reliability, cost_validity and long_pair", (("nonfinite", _nonfinite),)),
    *(
        Layer(f"metrics.{name}", (("demandeval.metrics", name),), ("busy_s", "errors"),
              ALL if name in _STUDY_METRICS else LONG,
              "wall_s on the studies and long_pair" if name in _STUDY_METRICS
              else "wall_s on long_pair")
        for name in _CLASSIC
    ),
    Layer("metrics.compute_all", (("demandeval.metrics", "compute_all"),),
          ("busy_s", "errors"), LONG, "wall_s on long_pair"),
    Layer("spec.spec_fast", (("demandeval.spec", "spec_fast"),),
          ("calls", "busy_s", "steps", "errors"), ALL,
          "wall_s on reliability (n = 96) and on long_pair (n = 1e6)",
          (("steps", _pair_steps),)),
    Layer("spec.spec_decompose", (("demandeval.spec", "spec_decompose"),),
          ("busy_s", "steps", "errors"), LONG, "wall_s on long_pair", (("steps", _pair_steps),)),
    Layer("spec.spec_alpha_sweep", (("demandeval.spec", "spec_alpha_sweep"),),
          ("busy_s", "steps", "errors"), LONG, "wall_s on long_pair", (("steps", _pair_steps),)),
    Layer("warehouse.stock_cost", (("demandeval.warehouse", "stock_cost"),),
          ("calls", "busy_s", "errors"), ("cost_validity",), "wall_s on cost_validity"),
    Layer("csvio.parse_pair_csv", (("demandeval.csvio", "parse_pair_csv"),),
          ("busy_s", "rows", "bytes", "errors"), LONG, "wall_s on long_pair",
          (("rows", _parsed_rows), ("bytes", _file_bytes(0, "source")))),
    Layer("csvio.write",
          (("demandeval.csvio", "write_pair_csv"), ("demandeval.csvio", "report_to_json"),
           ("demandeval.csvio", "decomposition_to_csv"), ("demandeval.csvio", "sweep_to_csv")),
          ("busy_s", "bytes", "errors"), LONG, "setup_s and wall_s on long_pair",
          (("bytes", _written_bytes),)),
    Layer("svg.render",
          (("demandeval.svg", "render_decomposition_svg"),
           ("demandeval.svg", "render_sweep_svg")),
          ("busy_s", "bytes", "errors"), LONG, "wall_s on long_pair", (("bytes", _text_bytes),)),
    Layer("cli.main", (("demandeval.cli", "main"),), ("busy_s", "self_s", "errors"), LONG,
          "wall_s on long_pair (self_s: argument parsing, file writes, manifests)"),
    Layer("stats",
          (("demandeval.stats", "mean"), ("demandeval.stats", "variance"),
           ("demandeval.stats", "pearson"), ("demandeval.stats", "levene")),
          ("calls", "busy_s", "errors"), STUDIES, "wall_s on the studies"),
)

UNITS = {
    "calls": ("count", "lower"),
    "busy_s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "errors": ("count", "lower"),
    "steps": ("count", "higher"),
    "rows": ("count", "higher"),
    "spikes": ("count", "higher"),
    "bytes": ("B", "lower"),
}

#: Per-layer metrics that are not ``<layer>.<stat>`` of a single layer.
DERIVED = {
    "metrics.nonfinite_frac": ("ratio", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def metric_table() -> list[dict]:
    """Every per-layer metric with its unit and better direction."""
    table = []
    for layer in LAYERS:
        for stat in layer.stats:
            unit, better = UNITS[stat]
            table.append({"name": f"{layer.name}.{stat}", "unit": unit, "better": better})
    for name, (unit, better) in DERIVED.items():
        table.append({"name": name, "unit": unit, "better": better})
    return table


class Tracer:
    """Installs wrappers, records spans in memory, restores the originals.

    Spans of one workload run share ``run_id``; run 0 is set-up.
    """

    def __init__(self, layers: tuple[Layer, ...] = LAYERS):
        self.layers = layers
        self.run_id = 0
        self.missing: dict[str, str] = {}
        self._layer = array("i")
        self._parent = array("i")
        self._run = array("i")
        self._outer = array("b")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._active = [0] * len(layers)
        # (run, layer index, stat) -> summed count
        self.counts: dict[tuple[int, int, str], int] = {}
        self._patches: list[tuple[object, object, object, str]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for index, layer in enumerate(self.layers):
            for module_name, attr in layer.targets:
                module = sys.modules.get(module_name)
                owner_name, _, method = attr.rpartition(".")
                owner = module
                if owner is not None and owner_name:
                    owner = getattr(module, owner_name, None)
                original = None
                if owner is not None:
                    original = (owner.__dict__.get(method) if owner_name
                                else getattr(owner, method, None))
                if not callable(original):
                    self.missing[layer.name] = f"{module_name}.{attr} no longer exists"
                    continue
                wrapper = self._wrap(index, original, layer.extras)
                if owner_name:
                    self._patch(owner, method, original, wrapper, "attr")
                else:
                    self._rebind(original, wrapper)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        for container, key, original, how in reversed(self._patches):
            if how == "attr":
                setattr(container, key, original)
            else:
                container[key] = original
        self._patches.clear()

    def _patch(self, container, key, original, wrapper, how: str) -> None:
        self._patches.append((container, key, original, how))
        if how == "attr":
            setattr(container, key, wrapper)
        else:
            container[key] = wrapper

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` in every demandeval namespace and dispatch dict."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "demandeval" or name.startswith("demandeval.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, original, wrapper, "attr")
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._patch(value, dkey, original, wrapper, "item")

    def _wrap(self, index: int, fn: Callable, extras) -> Callable:
        layer_arr, parent_arr, run_arr = self._layer, self._parent, self._run
        outer_arr, start_arr, end_arr = self._outer, self._start, self._end
        stack, active, counts = self._stack, self._active, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(layer_arr)
            layer_arr.append(index)
            parent_arr.append(stack[-1] if stack else -1)
            run_arr.append(self.run_id)
            outer_arr.append(active[index] == 0)
            start_arr.append(0.0)
            end_arr.append(0.0)
            stack.append(span)
            active[index] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                key = (self.run_id, index, "errors")
                counts[key] = counts.get(key, 0) + 1
                raise
            finally:
                end = clock()
                active[index] -= 1
                stack.pop()
                start_arr[span] = start
                end_arr[span] = end
            for stat, count in extras:
                key = (self.run_id, index, stat)
                counts[key] = counts.get(key, 0) + count(args, kwargs, result)
            return result

        return traced

    # -- results ----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._layer)

    def per_run(self) -> dict[int, dict[tuple[int, str], float]]:
        """Per run id: (layer index, stat) -> value for calls/busy/self/errors/extras."""
        import numpy as np

        layer = np.frombuffer(self._layer, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        run = np.frombuffer(self._run, dtype=np.int32)
        outer = np.frombuffer(self._outer, dtype=np.int8).astype(bool)
        duration = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(
            self._start, dtype=np.float64
        )
        child = np.zeros(layer.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_time = duration - child

        runs: dict[int, dict[tuple[int, str], float]] = {}
        for run_id in sorted(set(run.tolist()) | {key[0] for key in self.counts}):
            in_run = run == run_id
            values: dict[tuple[int, str], float] = {}
            for index in range(len(self.layers)):
                mask = in_run & (layer == index)
                values[(index, "calls")] = int(mask.sum())
                values[(index, "busy_s")] = float(duration[mask & outer].sum())
                values[(index, "self_s")] = float(self_time[mask].sum())
            runs[run_id] = values
        for (run_id, index, stat), count in self.counts.items():
            runs[run_id][(index, stat)] = count
        return runs

    def write(self, path: Path, meta: dict) -> None:
        """Write every span and the layer names to ``path`` (numpy .npz)."""
        import numpy as np

        np.savez(
            path,
            layer=np.frombuffer(self._layer, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            run=np.frombuffer(self._run, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
            meta=np.array(json.dumps({**meta, "layers": [lay.name for lay in self.layers]})),
        )


def layer_metrics(tracer: Tracer, workload: str, traced_runs: list[int]) -> tuple[dict, dict]:
    """Per-layer metric values and the unmeasured layers with their reasons.

    Each value is the set-up span total (run 0) plus the median over the
    traced workload runs.
    """
    from statistics import median

    runs = tracer.per_run()
    setup = runs.get(0, {})
    values: dict[str, float] = {}
    unmeasured: dict[str, str] = {}

    def value(index: int, stat: str) -> float:
        per = [runs.get(r, {}).get((index, stat), 0) for r in traced_runs]
        return setup.get((index, stat), 0) + median(per)

    for index, layer in enumerate(tracer.layers):
        if layer.name in tracer.missing:
            unmeasured[layer.name] = tracer.missing[layer.name]
            continue
        if workload in layer.expected and value(index, "calls") == 0:
            unmeasured[layer.name] = f"not called on {workload}"
            continue
        for stat in layer.stats:
            values[f"{layer.name}.{stat}"] = value(index, stat)
        if layer.name == "metrics.compute_metric":
            calls = value(index, "calls")
            values["metrics.nonfinite_frac"] = value(index, "nonfinite") / calls if calls else 0.0
    return values, unmeasured
