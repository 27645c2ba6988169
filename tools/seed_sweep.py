"""Run every shipped study config at its shipped seed and at root seeds 2-11,
and print, as JSON, how each acceptance bound fares.

    python3 tools/seed_sweep.py

The bounds are the table in ``tests/acceptance_bounds.py`` that the
acceptance tests c06-c10 assert at the shipped seeds. For each bound it
prints the value and verdict at the shipped seed, which are the acceptance
test's, and over every run, the shipped seed's included, the pass count and
the worst margin: how far inside the bound the value lies, negative outside
it, null where a run gave no value. A change that moves a study's numbers
runs it before and after, and compares the two outputs. The five studies take
a few seconds per seed.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]

from acceptance_bounds import BOUNDS, STUDIES, run_study  # noqa: E402

#: The root seeds each study runs at besides its shipped one.
SEEDS = range(2, 12)


def _number(x: float) -> float | None:
    return x if math.isfinite(x) else None


def sweep() -> dict:
    """Each bound's verdict at the shipped seed, and its pass count and worst margin over all runs."""
    runs: dict[str, dict[int, object]] = {}
    shipped: dict[str, int] = {}
    for study in STUDIES:
        report = run_study(study)
        shipped[study] = report.seed
        runs[study] = {report.seed: report}
        for seed in SEEDS:
            if seed not in runs[study]:
                runs[study][seed] = run_study(study, seed)
    rows = []
    for bound in BOUNDS:
        values = {seed: bound.value(report) for seed, report in runs[bound.study].items()}
        margins = {seed: bound.margin(value) for seed, value in values.items()}
        worst = min(margins, key=lambda seed: -math.inf if math.isnan(margins[seed]) else margins[seed])
        at_shipped = values[shipped[bound.study]]
        rows.append({
            "criterion": bound.criterion,
            "study": bound.study,
            "bound": bound.name,
            "shipped": {"seed": shipped[bound.study], "value": _number(at_shipped),
                        "holds": bound.holds(at_shipped)},
            "runs": len(values),
            "passes": sum(map(bound.holds, values.values())),
            "worst_margin": _number(margins[worst]),
            "worst_seed": worst,
        })
    return {"seeds": list(SEEDS), "bounds": rows}


def main() -> int:
    print(json.dumps(sweep(), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
