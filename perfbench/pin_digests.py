"""Pin the SHA-256 of each study's report for a set of seeds.

    python3 perfbench/pin_digests.py 0-24 42

Writes ``perfbench/digests.json``: the installation it was computed on
(report bytes are reproducible only within one installation) and, per study
workload, a digest per seed. Run it only on a commit whose reports are known
to be right; ``run.py`` then fails any run whose report differs.
"""

from __future__ import annotations

import json
import sys

from run import import_program


def parse_seeds(specs: list[str]) -> list[int]:
    seeds: list[int] = []
    for spec in specs:
        low, _, high = spec.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: list[str]) -> int:
    import_program()
    import workloads

    seeds = parse_seeds(argv or ["1"])
    data = {"installation": workloads.installation()}
    for name in ("reliability", "cost_validity"):
        data[name] = {}
        for seed in seeds:
            config, cost, metric = workloads.load_study(name, seed)
            report = workloads.run_study(name, config, cost, metric)
            data[name][str(seed)] = workloads.sha256(report.encode("utf-8"))
            print(f"{name} seed {seed}: {data[name][str(seed)]}", file=sys.stderr)
    workloads.DIGESTS.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
