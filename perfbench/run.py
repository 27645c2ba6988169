"""demandeval benchmark: one workload, closed loop, in this process.

    python3 perfbench/run.py --workload reliability --seed 1 --seconds 25 --trace 0

Runs the named workload (see ``perfbench/workloads.py``) back to back until
``--seconds`` have passed, checks every run's output outside the timed
region, and prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``. A run fails when it
raises, outlives its per-run timeout or fails its check; failed / attempted
is the workload's failed_frac.

With ``--trace 0`` the metrics are the end-to-end ones:

* wall_s: the median wall time of one run, at the reference host speed;
* steps_per_s: the median over the runs that passed their check of the
  summed length of every pair the run scores, divided by its wall time at
  the reference host speed;
* setup_s: the median time from process start until the inputs are ready,
  at the reference host speed, over this process and a few processes that
  only set up; the reference values the checks compare against are
  computed after it;
* peak_rss_mb: this process's peak resident memory over set-up and runs.

The host's speed drifts by tens of percent within minutes, so times are
taken at a reference speed (``hostspeed.py``): a fixed calibration loop,
sampled on this thread during each timed span, gives the span's speed
factor, and the span's wall time less the sampler's share, divided by that
factor, is its time at the reference speed. The raw wall times and the
factors are kept in the result file.

A run starts only while the window of ``--seconds`` is expected to hold it,
judged by the median of the runs before it; the first run always starts.

With ``--trace 1`` they are the per-layer ones (``tracing.py``), taken from
traced runs that alternate with untraced runs, plus the tracing overhead
(traced minus untraced wall time).

A human-readable summary, the environment record and any failure go to
standard error; the full result (environment, per-run times, unmeasured
layers) is written under ``.perfbench/`` in the checkout.

Exit codes: 0 on a measured result, 2 when the program or the benchmark's
inputs cannot be found (nothing is printed on stdout), 3 when a traced
layer is unmeasured (the result is printed without it).
"""

from __future__ import annotations

import os

# The machine is shared and small: pin every native thread pool to one
# thread before numpy is imported, here and in the set-up probes.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import faulthandler  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Extra processes that only set up. Set-up time is taken over them and this
#: process, each timed from its start until its inputs are ready.
SETUP_PROBES = {"reliability": 4, "cost_validity": 4, "long_pair": 2}
#: A process that is still running after this long dumps its stack and exits.
HARD_LIMIT_S = 175


class RunTimeout(BaseException):
    """Raised by the per-run alarm. Not an Exception, so no handler in the
    program (such as the CLI's catch-all) can turn it into a result."""


class ProgramMissing(Exception):
    """The program or its shipped configs are not in this checkout."""


def import_program() -> None:
    """Import demandeval from this checkout's ``src``, and only from there."""
    if not (SRC / "demandeval" / "__init__.py").is_file():
        raise ProgramMissing(f"no demandeval package under {SRC}")
    if not (ROOT / "configs").is_dir():
        raise ProgramMissing(f"no configs directory under {ROOT}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import demandeval

    if Path(demandeval.__file__).resolve().parent != SRC / "demandeval":
        raise ProgramMissing(f"demandeval was imported from {demandeval.__file__}")


def environment() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "demandeval").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _alarm(signum, frame):
    raise RunTimeout()


@dataclass
class Attempt:
    """One run: its wall time, its time at the reference speed, its failure."""

    wall: float
    span: hostspeed.Span | None
    failure: str | None

    @property
    def reference(self) -> float:
        return self.wall if self.span is None else self.span.reference_s


def attempt(workload, inputs, sampler: hostspeed.Sampler | None = None) -> Attempt:
    """One run under the per-run timeout, then its output check.

    With a sampler, the run is also timed at the reference host speed.
    """
    from workloads import CheckFailed

    signal.signal(signal.SIGALRM, _alarm)
    mark = sampler.mark() if sampler else None
    start = time.perf_counter()
    failure = output = None
    try:
        signal.setitimer(signal.ITIMER_REAL, workload.timeout_s)
        try:
            output = workload.run(inputs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except RunTimeout:
        failure = f"timed out after {workload.timeout_s} s"
    except Exception as exc:  # a failed run is counted, not fatal
        failure = f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    span = sampler.span(mark, wall) if sampler else None
    if failure is None:
        try:
            workload.check(inputs, output)
        except CheckFailed as exc:
            failure = f"check failed: {exc}"
    return Attempt(wall, span, failure)


@dataclass
class Runs:
    """Wall times and failures of one measurement loop."""

    untraced: list[Attempt] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    oracle_failed: bool = False

    @property
    def walls(self) -> list[float]:
        return [a.wall for a in self.untraced]

    @property
    def reference_walls(self) -> list[float]:
        return [a.reference for a in self.untraced]

    @property
    def ok_reference_walls(self) -> list[float]:
        if self.oracle_failed:
            return []
        return [a.reference for a in self.untraced if a.failure is None]

    @property
    def attempted(self) -> int:
        return len(self.walls) + len(self.traced_walls)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted


def loop(workload, inputs, seconds: float, tracer=None, workdir: Path | None = None,
         sampler: hostspeed.Sampler | None = None) -> Runs:
    """Run back to back within ``seconds``, at least once.

    The next run starts only if the median run so far still fits in the
    window. With a tracer, every untraced run is followed by a traced one
    (run ids 1, 2, ...), and the inputs are first built again under the
    tracer (run id 0) and compared with the untraced ones. A sampler, if
    given, times the untraced runs at the reference host speed.
    """
    from workloads import CheckFailed

    def traced(call):
        tracer.install()
        try:
            return call()
        finally:
            tracer.uninstall()

    runs = Runs()
    start = time.perf_counter()
    rounds: list[float] = []
    if tracer is not None:
        tracer.run_id = 0
        traced_inputs = traced(lambda: workload.make_inputs(workdir / "traced-inputs"))
        for key, path in inputs.get("paths", {}).items():
            if path.read_bytes() != traced_inputs["paths"][key].read_bytes():
                runs.failures.append(f"traced set-up wrote a different {path.name}")

    while not rounds or time.perf_counter() - start + median(rounds) <= seconds:
        began = time.perf_counter()
        run = attempt(workload, inputs, sampler)
        runs.untraced.append(run)
        if run.failure:
            runs.failures.append(run.failure)
        if tracer is not None:
            tracer.run_id = len(runs.traced_walls) + 1
            run = traced(lambda: attempt(workload, inputs))
            runs.traced_walls.append(run.wall)
            if run.failure:
                runs.failures.append(f"traced: {run.failure}")
        rounds.append(time.perf_counter() - began)

    try:
        workload.oracle_check(inputs)
    except CheckFailed as exc:
        runs.failures.extend(f"oracle: {exc}" for _ in runs.untraced)
        runs.oracle_failed = True
    return runs


def process_age() -> float:
    """Seconds since the kernel started this process (10 ms resolution)."""
    with open("/proc/self/stat", encoding="ascii") as handle:
        fields = handle.read().rpartition(")")[2].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def setup_span(sampler: hostspeed.Sampler, mark: hostspeed.Mark) -> dict:
    """This process's set-up, from its start to now, which is when it is ready."""
    span = sampler.span(mark, process_age())
    return {"wall_s": span.wall_s, "reference_s": span.reference_s, "factor": span.factor}


def probe_setup(name: str, seed: int, count: int, workdir: Path) -> list[dict]:
    """Set-up spans of ``count`` fresh processes, each from its start to ready."""
    spans = []
    for k in range(count):
        probe_dir = workdir / f"probe{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", "1", "--trace", "0",
               "--setup-probe", str(probe_dir)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        shutil.rmtree(probe_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe {k} exited {proc.returncode}: {proc.stderr}")
        spans.append(json.loads(proc.stdout.splitlines()[-1]))
    return spans


def measure(args, workdir: Path, sampler: hostspeed.Sampler | None,
            mark: hostspeed.Mark | None) -> tuple[dict, int]:
    """The workload's runs: end-to-end with a sampler, per-layer without."""
    import workloads
    from tracing import Tracer, layer_metrics, metric_table

    workload = workloads.make(args.workload, args.seed)
    inputs = workload.make_inputs(workdir / "inputs")
    setup = [setup_span(sampler, mark)] if sampler else []
    workload.references(inputs)  # the checks' own work, outside set-up time
    steps = workload.steps(inputs)
    tracer = Tracer() if args.trace else None
    runs = loop(workload, inputs, args.seconds, tracer, workdir, sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if sampler:
        sampler.stop()
        # probed after the loop, so the samples span the whole process lifetime
        setup += probe_setup(args.workload, args.seed, SETUP_PROBES[args.workload], workdir)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "pinned_digest": getattr(workload, "pinned", None),
        "steps_per_run": steps,
        "walls_s": runs.walls,
        "reference_walls_s": runs.reference_walls,
        "speed_factors": [a.span.factor for a in runs.untraced if a.span],
        "traced_walls_s": runs.traced_walls,
        "setup": setup,
        "hostspeed": {"reference_s": hostspeed.REFERENCE_S, "interval_s": hostspeed.INTERVAL_S},
        "failures": runs.failures,
        "failed_frac": runs.failed_frac,
    }
    code = 0
    if tracer is None:
        metrics = {
            "wall_s": (median(runs.reference_walls), "s"),
            "steps_per_s": (median([steps / w for w in runs.ok_reference_walls])
                            if runs.ok_reference_walls else 0.0, "1/s"),
            "setup_s": (median(s["reference_s"] for s in setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced_runs = list(range(1, len(runs.traced_walls) + 1))
        values, unmeasured = layer_metrics(tracer, args.workload, traced_runs)
        values["trace.overhead_s"] = median(runs.traced_walls) - median(runs.walls)
        units = {m["name"]: m["unit"] for m in metric_table()}
        metrics = {name: (value, units[name]) for name, value in values.items()}
        result["unmeasured"] = unmeasured
        result["layers"] = {layer.name: {"moves": layer.moves, "expected_on": layer.expected}
                            for layer in tracer.layers}
        result["spans"] = tracer.span_count
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "traced_runs": traced_runs})
        result["trace_file"] = str(trace_path.relative_to(ROOT))
        for name, reason in unmeasured.items():
            print(f"UNMEASURED {name}: {reason}", file=sys.stderr)
        if unmeasured:
            code = 3
    result["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    result["attempted"] = runs.attempted
    result["failed"] = runs.failed
    return result, code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("reliability", "cost_validity", "long_pair"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", default=None,
                        help="internal: set up into DIR, print the set-up span and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    faulthandler.dump_traceback_later(HARD_LIMIT_S, exit=True)
    # end-to-end times, set-up included, are taken at the reference host speed
    sampler = None if args.trace and not args.setup_probe else hostspeed.Sampler()
    mark = None
    if sampler:
        mark = sampler.mark()
        sampler.start()
    try:
        try:
            import_program()
        except (ProgramMissing, ImportError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2

        if args.setup_probe:
            import workloads

            workloads.make(args.workload, args.seed).make_inputs(Path(args.setup_probe))
            print(json.dumps(setup_span(sampler, mark)), flush=True)
            return 0

        OUT.mkdir(exist_ok=True)
        workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
        try:
            result, code = measure(args, workdir, sampler, mark)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    finally:
        if sampler:
            sampler.stop()
        faulthandler.cancel_dump_traceback_later()

    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    env = result["environment"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={env['commit']} src={env['src_sha256'][:12]} python={env['python']} "
          f"numpy={env['numpy']} nproc={env['nproc']} threads=1", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(f"  {'failed_frac':<40} {result['failed_frac']:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} runs)", file=sys.stderr)
    for failure in result["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
