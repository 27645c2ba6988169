"""Run every workload and print each metric by name, with its unit.

    python3 perfbench/summary.py --seed 1 --seconds 25 [--trace]

Each workload runs in a process of its own (``run.py``), one after another.
The table lists the end-to-end metrics and failed_frac per workload; with
``--trace`` it also lists every per-layer metric, the tracing overhead and
any layer reported as unmeasured, with its reason.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("reliability", "cost_validity", "long_pair")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if not proc.stdout.strip():
        raise SystemExit(f"{name}: exit code {proc.returncode}\n{proc.stderr}")
    result_file = HERE.parent / ".perfbench" / f"result-{name}-seed{seed}-trace{trace}.json"
    return json.loads(result_file.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", action="store_true", help="also make the traced runs")
    args = parser.parse_args(argv)

    for trace in (0, 1) if args.trace else (0,):
        results = {name: run_workload(name, args.seed, args.seconds, trace) for name in WORKLOADS}
        names = list(dict.fromkeys(m for r in results.values() for m in r["metrics"]))
        print(f"{'metric (trace)' if trace else 'metric':<36} {'unit':<6}"
              + "".join(f"{name:>16}" for name in WORKLOADS))
        for metric in names + ["failed_frac"]:
            unit = next((r["metrics"][metric]["unit"] for r in results.values()
                         if metric in r["metrics"]), "ratio")
            cells = []
            for result in results.values():
                value = result["failed_frac"] if metric == "failed_frac" else (
                    result["metrics"].get(metric, {}).get("value"))
                cells.append(f"{value:>16.6g}" if value is not None else f"{'unmeasured':>16}")
            print(f"{metric:<36} {unit:<6}" + "".join(cells))
        for name, result in results.items():
            for layer, reason in result.get("unmeasured", {}).items():
                print(f"UNMEASURED on {name}: {layer}: {reason}")
            for failure in result["failures"]:
                print(f"FAILED on {name}: {failure}")
        print()
    env = results[WORKLOADS[0]]["environment"]
    print("environment: " + json.dumps(env, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
