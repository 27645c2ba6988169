"""The benchmark's workloads: inputs from a seed, one timed run, output checks.

Each workload drives demandeval only through its public API and CLI. Set-up
builds the inputs from the seed (``make_inputs``, which is program work and is
traced) and computes the reference values the checks compare against
(``references``, which is benchmark work and is not traced). ``run`` is the
timed region; ``check`` runs after it and raises :class:`CheckFailed`.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import platform
from pathlib import Path

import numpy as np

import demandeval as de
from demandeval import cli, csvio

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"


class CheckFailed(Exception):
    """A run's output does not match its reference."""


def installation() -> dict:
    """What the pinned digests depend on: the report bytes hold only within one."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def pinned_digest(workload: str, seed: int) -> str | None:
    """The digest pinned for ``seed``, if one was pinned on this installation."""
    if not DIGESTS.exists():
        return None
    data = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if data.get("installation") != installation():
        return None
    return data.get(workload, {}).get(str(seed))


def sha256(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _seeds(seed: int, count: int) -> list[int]:
    """Independent generator seeds for the benchmark's own inputs."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)]


class Workload:
    """Set-up, timed run and checks shared by every workload."""

    name: str
    timeout_s: float

    def __init__(self, seed: int, timeout_s: float):
        self.seed = seed
        self.timeout_s = timeout_s
        self.first_digest: str | None = None

    def setup(self, workdir: Path) -> dict:
        inputs = self.make_inputs(workdir)
        self.references(inputs)
        return inputs

    def same_as_first(self, digest: str) -> None:
        """Every run must reproduce the first run's outputs byte for byte."""
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            raise CheckFailed("outputs differ from the first run's outputs (not reproducible)")

    def oracle_check(self, inputs: dict) -> None:
        """Checks made once, after the timed runs; none by default."""


# -- studies ------------------------------------------------------------------


def load_study(name: str, seed: int):
    """The shipped config with ``seed`` filled in, parsed as the CLI parses it.

    Returns ``(config, cost_params, metric_params)``; the params are ``None``
    for the reliability study.
    """
    data = json.loads((ROOT / "configs" / f"{name}.json").read_text(encoding="utf-8"))
    data["seed"] = seed
    cost = metric = None
    if name == "cost_validity":
        cost = de.SpecParams(
            alpha1=data.pop("cost_alpha1", 0.75), alpha2=data.pop("cost_alpha2", 0.25)
        )
        if "metric_alpha1" in data or "metric_alpha2" in data:
            metric = de.SpecParams(
                alpha1=data.pop("metric_alpha1", 0.75), alpha2=data.pop("metric_alpha2", 0.25)
            )
    return de.ReliabilityConfig.from_dict(data), cost, metric


def run_study(name: str, config, cost, metric) -> str:
    if name == "reliability":
        return de.run_reliability(config).to_json()
    return de.run_cost_validity(config, cost, metric).to_json()


class Study(Workload):
    """``run_reliability`` or ``run_cost_validity`` on its shipped config."""

    def __init__(self, name: str, seed: int, timeout_s: float):
        super().__init__(seed, timeout_s)
        self.name = name
        self.pinned: str | None = None

    def make_inputs(self, workdir: Path) -> dict:
        config, cost, metric = load_study(self.name, self.seed)
        return {"config": config, "cost": cost, "metric": metric}

    def references(self, inputs: dict) -> None:
        self.pinned = pinned_digest(self.name, self.seed)

    def steps(self, inputs: dict) -> int:
        config = inputs["config"]
        return (
            config.series_count
            * len(config.variance_levels)
            * config.forecasts_per_series
            * config.demand.n
        )

    def run(self, inputs: dict) -> str:
        return run_study(self.name, inputs["config"], inputs["cost"], inputs["metric"])

    def check(self, inputs: dict, output: str) -> str:
        digest = sha256(output.encode("utf-8"))
        if self.pinned is not None and digest != self.pinned:
            raise CheckFailed(f"report digest {digest} != pinned {self.pinned}")
        self.same_as_first(digest)
        report = json.loads(output)
        config = inputs["config"]
        expected_kind = "reliability" if self.name == "reliability" else "cost-validity"
        if report["kind"] != expected_kind or report["seed"] != self.seed:
            raise CheckFailed(f"report kind/seed {report['kind']}/{report['seed']}")
        if list(report["metrics"]) != sorted(config.metrics):
            raise CheckFailed(f"report metrics {list(report['metrics'])}")
        for outcome in report["metrics"].values():
            if outcome["not_calculable"] is None and not -1.0 <= outcome["r"] <= 1.0:
                raise CheckFailed(f"correlation out of range: {outcome}")
        return digest

    def oracle_check(self, inputs: dict) -> None:
        """Compare the runner with an independent recomputation on a small grid.

        The timed run is checked by digest; this catches a runner that is
        reproducible but wrong, at this seed, on 3 series x 4 forecasts.
        """
        config = dataclasses.replace(inputs["config"], series_count=3, forecasts_per_series=4)
        report = json.loads(run_study(self.name, config, inputs["cost"], inputs["metric"]))
        if self.name == "reliability":
            expected = _oracle_reliability(config)
        else:
            cost = inputs["cost"]
            expected = _oracle_cost_validity(config, cost, inputs["metric"] or cost)
            for key in ("cost_mean", "cost_variance"):
                _expect_close(f"extras.{key}", report["extras"][key], expected["extras"][key])
        for metric, want in expected["metrics"].items():
            got = report["metrics"][metric]
            if want is None:
                if got["not_calculable"] is None:
                    raise CheckFailed(f"{metric}: expected not calculable, got {got}")
                continue
            _expect_close(f"{metric}.r", got["r"], want["r"])
            if "per_level_variance" in want:
                for got_v, want_v in zip(got["per_level_variance"], want["per_level_variance"]):
                    _expect_close(f"{metric}.per_level_variance", got_v, want_v)


def _expect_close(what: str, got, want: float, rel: float = 1e-9) -> None:
    if got is None or not math.isclose(got, want, rel_tol=rel, abs_tol=1e-12):
        raise CheckFailed(f"{what}: runner gives {got}, independent recomputation {want}")


def _derived_seed(root: int, *key: int) -> int:
    return int(np.random.SeedSequence(root, spawn_key=key).generate_state(1, np.uint64)[0])


def _error(direction: str, mu: float, sigma: float, seed: int):
    vertical = direction in ("vertical", "both")
    horizontal = direction in ("horizontal", "both")
    return de.ErrorInjectionConfig(
        vertical_mu=mu if vertical else 0.0,
        vertical_sigma=sigma if vertical else 0.0,
        horizontal_mu=mu if horizontal else 0.0,
        horizontal_sigma=sigma if horizontal else 0.0,
        seed=seed,
    )


def _oracle_metric(name: str, pair, params) -> float:
    """Each study metric from its definition; SPEC from the O(n^2) reference."""
    y = pair.actual.values
    f = pair.forecast.values
    err = np.abs(f - y)
    if name == "mae":
        return float(err.mean())
    if name == "rmse":
        return math.sqrt(float((err * err).mean()))
    if name == "mase":
        scale = float(np.abs(np.diff(y)).mean()) if y.size > 1 else 0.0
        return float(err.mean()) / scale if scale else math.nan
    if name == "smape":
        denom = y + f
        keep = denom > 0
        return float((err[keep] / denom[keep]).mean()) if keep.any() else math.nan
    if name == "spec":
        return de.spec_literal(pair, params)
    raise CheckFailed(f"no independent oracle for metric {name!r}")


def _study_pairs(config):
    """(level index, pair) in the order the runners visit them."""
    for s_idx in range(config.series_count):
        demand = dataclasses.replace(config.demand, seed=_derived_seed(config.seed, 0, s_idx))
        actual = de.generate_demand(demand)
        for l_idx, sigma in enumerate(config.variance_levels):
            for f_idx in range(config.forecasts_per_series):
                err = _error(
                    config.error_directions,
                    config.error_mu,
                    sigma,
                    _derived_seed(config.seed, 1, s_idx, l_idx, f_idx),
                )
                yield s_idx, l_idx, de.EvaluationPair(actual, de.perturb_forecast(actual, err))


def _correlation(xs, ys) -> dict | None:
    if np.ptp(xs) == 0 or np.ptp(ys) == 0:
        return None
    return {"r": float(np.corrcoef(xs, ys)[0, 1])}


def _oracle_reliability(config) -> dict:
    levels = config.variance_levels
    count = config.forecasts_per_series
    values = {m: {} for m in config.metrics}  # metric -> (series, level) -> values
    bad = {m: 0 for m in config.metrics}
    for s_idx, l_idx, pair in _study_pairs(config):
        for m in config.metrics:
            v = _oracle_metric(m, pair, de.DEFAULT_PARAMS)
            if math.isfinite(v):
                values[m].setdefault((s_idx, l_idx), []).append(v)
            else:
                bad[m] += 1
    metrics = {}
    for m in config.metrics:
        if bad[m]:
            metrics[m] = None
            continue
        per_level = [
            float(np.mean([np.var(vs, ddof=1) for (_, l), vs in values[m].items()
                           if l == l_idx and len(vs) == count]))
            for l_idx in range(len(levels))
        ]
        corr = _correlation([s * s for s in levels], per_level)
        metrics[m] = None if corr is None else {**corr, "per_level_variance": per_level}
    return {"metrics": metrics}


def _oracle_cost_validity(config, cost, metric_params) -> dict:
    costs = []
    values = {m: [] for m in config.metrics}
    bad = {m: 0 for m in config.metrics}
    for _, _, pair in _study_pairs(config):
        costs.append(de.spec_literal(pair, cost))
        for m in config.metrics:
            v = _oracle_metric(m, pair, metric_params)
            values[m].append(v)
            bad[m] += not math.isfinite(v)
    metrics = {m: None if bad[m] else _correlation(values[m], costs) for m in config.metrics}
    extras = {"cost_mean": float(np.mean(costs)), "cost_variance": float(np.var(costs, ddof=1))}
    return {"metrics": metrics, "extras": extras}


# -- long pair ----------------------------------------------------------------


def _rendered_close(rendered: float, exact: float) -> bool:
    """``rendered`` is ``exact`` at the CLI's pinned 6 significant digits.

    Allows half a unit in the sixth digit, plus 1e-9 relative for the
    difference between two evaluators of the same value.
    """
    if exact == 0.0:
        return rendered == 0.0
    ulp = 10.0 ** (math.floor(math.log10(abs(exact))) - 5)
    return abs(rendered - exact) <= 0.5 * ulp * (1 + 1e-9) + 1e-9 * abs(exact)


class LongPair(Workload):
    """An analyst's CLI session: score a long pair, decompose and sweep a window."""

    name = "long_pair"

    def __init__(self, seed: int, timeout_s: float, n: int = 1_000_000, window: int = 4_096):
        super().__init__(seed, timeout_s)
        self.n = n
        self.window = window
        self.refs: dict = {}

    def make_inputs(self, workdir: Path) -> dict:
        """Write the long pair, its first ``window`` steps and a second forecast."""
        demand_seed, error_seed, second_seed = _seeds(self.seed, 3)
        density = 7.0 / 96.0  # spike density of the shipped study configs
        actual = de.generate_demand(
            de.DemandGenConfig(
                n=self.n,
                count_mu=density * self.n,
                count_sigma=math.sqrt(density * self.n),
                magnitude_mu=10.0,
                magnitude_sigma=2.0,
                seed=demand_seed,
            )
        )
        forecast = de.perturb_forecast(
            actual, de.ErrorInjectionConfig(vertical_sigma=2.0, horizontal_sigma=2.0, seed=error_seed)
        )
        long_pair = de.EvaluationPair(actual, forecast)
        window = de.EvaluationPair.from_values(
            actual.values[: self.window], forecast.values[: self.window]
        )
        second = de.EvaluationPair(
            window.actual,
            de.perturb_forecast(
                window.actual,
                de.ErrorInjectionConfig(
                    vertical_mu=1.0, vertical_sigma=2.0, horizontal_mu=1.0,
                    horizontal_sigma=2.0, seed=second_seed,
                ),
            ),
        )
        workdir.mkdir(parents=True, exist_ok=True)
        paths = {"long": workdir / "long.csv", "window": workdir / "window.csv",
                 "second": workdir / "window_b.csv"}
        for key, pair in (("long", long_pair), ("window", window), ("second", second)):
            csvio.write_pair_csv(pair, paths[key])
        return {"dir": workdir, "paths": paths, "pairs": {"long": long_pair, "window": window,
                                                          "second": second}}

    def references(self, inputs: dict) -> None:
        pairs = inputs["pairs"]
        owed_only = de.SpecParams(alpha1=1.0, alpha2=0.0)
        held_only = de.SpecParams(alpha1=0.0, alpha2=1.0)
        self.refs = {
            "long_cost": de.stock_cost(pairs["long"]),
            "window_literal": de.spec_literal(pairs["window"]),
            "sweep_first": [de.spec_fast(pairs[k], held_only) for k in ("window", "second")],
            "sweep_last": [de.spec_fast(pairs[k], owed_only) for k in ("window", "second")],
        }

    def steps(self, inputs: dict) -> int:
        return self.n + self.window + 2 * self.window  # score, decompose, two-input sweep

    def run(self, inputs: dict) -> str:
        paths, out = inputs["paths"], inputs["dir"]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["score", "--input", str(paths["long"]), "--format", "json"])
        if code != 0:
            raise CheckFailed(f"score exited {code}")
        code = cli.main(["decompose", "--input", str(paths["window"]),
                         "--out", str(out / "steps.csv"), "--svg", str(out / "steps.svg")])
        if code != 0:
            raise CheckFailed(f"decompose exited {code}")
        code = cli.main(["sweep", "--input", str(paths["window"]), "--input", str(paths["second"]),
                         "--grid-size", "101", "--out", str(out / "sweep.csv"),
                         "--svg", str(out / "sweep.svg")])
        if code != 0:
            raise CheckFailed(f"sweep exited {code}")
        return buffer.getvalue()

    def check(self, inputs: dict, output: str) -> str:
        out = inputs["dir"]
        files = [(out / name).read_bytes()
                 for name in ("steps.csv", "steps.svg", "sweep.csv", "sweep.svg")]
        digest = sha256(output.encode("utf-8"), *files)
        self.same_as_first(digest)

        score = json.loads(output)
        if set(score["metrics"]) != set(de.METRIC_NAMES):
            raise CheckFailed(f"score reports {sorted(score['metrics'])}")
        if not _rendered_close(score["metrics"]["spec"], self.refs["long_cost"]):
            raise CheckFailed(
                f"score spec {score['metrics']['spec']} != stock_cost {self.refs['long_cost']}"
            )

        rows = list(csv.reader(io.StringIO(files[0].decode("utf-8"))))
        if rows[0] != ["t", "opportunity", "stock"] or len(rows) != self.window + 1:
            raise CheckFailed(f"decomposition has header {rows[0]} and {len(rows) - 1} rows")
        cells = np.array([[float(v) for v in row] for row in rows[1:]])
        if not np.array_equal(cells[:, 0], np.arange(1, self.window + 1)):
            raise CheckFailed("decomposition time index does not run 1..n")
        costs = cells[:, 1:]
        if ((costs > 0).sum(axis=1) > 1).any():
            raise CheckFailed("a step charges both opportunity and stock cost")
        total = self.window * self.refs["window_literal"]
        tolerance = 5e-6 * (1 + 1e-6) * float(np.abs(costs).sum()) + 1e-9 * abs(total)
        if abs(float(costs.sum()) - total) > tolerance:
            raise CheckFailed(f"decomposition sums to {costs.sum()}, spec_literal gives {total}")

        rows = list(csv.reader(io.StringIO(files[2].decode("utf-8"))))
        if rows[0] != ["alpha1", "alpha2", "spec_window", "spec_window_b"] or len(rows) != 102:
            raise CheckFailed(f"sweep has header {rows[0]} and {len(rows) - 1} rows")
        first, last = [float(v) for v in rows[1]], [float(v) for v in rows[-1]]
        if first[:2] != [0.0, 1.0] or last[:2] != [1.0, 0.0]:
            raise CheckFailed(f"sweep endpoints at {first[:2]} and {last[:2]}")
        for got, want in zip(first[2:] + last[2:], self.refs["sweep_first"] + self.refs["sweep_last"]):
            if not _rendered_close(got, want):
                raise CheckFailed(f"sweep endpoint {got} != spec_fast {want}")

        for svg in (files[1], files[3]):
            if not (svg.startswith(b"<svg") and svg.endswith(b"</svg>\n")):
                raise CheckFailed("an SVG output is not a complete document")
        return digest


def make(name: str, seed: int, **overrides):
    """The workload called ``name``; keyword overrides resize it for tests."""
    if name == "long_pair":
        return LongPair(seed, timeout_s=overrides.pop("timeout_s", 30.0), **overrides)
    timeout = {"reliability": 60.0, "cost_validity": 15.0}[name]
    return Study(name, seed, timeout_s=overrides.pop("timeout_s", timeout))
