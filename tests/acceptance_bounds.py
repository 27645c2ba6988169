"""Every acceptance bound on a shipped study, in one table.

``tests/test_acceptance.py`` asserts the bounds of criteria c06-c10 on the
report of each shipped study config at its shipped seed, and
``tools/seed_sweep.py`` counts how many other root seeds pass each of them.
Both get their reports from :func:`run_study`, which reads and runs a config
as ``demandeval experiment`` does.
A bound reads one number of a report: a metric's correlation r, as it is or
as |r - centre|, or segment reliability's Levene p. A metric without an r
fails every bound on it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path

from demandeval.cli import _EXPERIMENT_RUNNERS
from demandeval.csvio import read_json_config

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

#: The ``experiment`` kind of each shipped study config, by config file stem.
STUDIES = {
    "validity_horizontal": "validity",
    "validity_vertical": "validity",
    "reliability": "reliability",
    "segment_reliability": "segment-reliability",
    "cost_validity": "cost-validity",
}



def run_study(study: str, seed: int | None = None):
    """The report of ``study``'s shipped config, at ``seed`` if given, else its own."""
    parse, run = _EXPERIMENT_RUNNERS[STUDIES[study]]
    data = read_json_config(CONFIG_DIR / f"{study}.json")
    return run(parse(data if seed is None else {**data, "seed": seed}))


_COMPARISONS = {">=": operator.ge, "<=": operator.le, "<": operator.lt}


@dataclass(frozen=True)
class Bound:
    """``criterion``'s bound on the report of ``study``: its value ``comparison`` ``limit``."""

    criterion: str
    study: str
    metric: str  # a scored metric, whose r is bounded, or "levene", whose p is
    comparison: str
    limit: float
    centre: float | None = None  # given, |r - centre| is bounded instead of r

    @property
    def name(self) -> str:
        if self.metric == "levene":
            quantity = "levene p"
        elif self.centre is None:
            quantity = f"{self.metric} r"
        else:
            quantity = f"|{self.metric} r - {self.centre:g}|" if self.centre else f"|{self.metric} r|"
        return f"{quantity} {self.comparison} {self.limit:g}"

    def value(self, report) -> float:
        """The bounded number of ``report``; NaN, which holds no bound, where the metric has no r."""
        if self.metric == "levene":
            return report.levene.p
        r = report.metrics[self.metric].r
        if r is None:
            return math.nan
        return r if self.centre is None else abs(r - self.centre)

    def holds(self, value: float) -> bool:
        return _COMPARISONS[self.comparison](value, self.limit)

    def margin(self, value: float) -> float:
        """How far inside the bound ``value`` lies: negative outside it (a strict
        bound fails at 0 too), NaN without a value."""
        return value - self.limit if self.comparison == ">=" else self.limit - value


BOUNDS = (
    Bound("c06", "validity_horizontal", "spec", ">=", 0.8),
    Bound("c06", "validity_horizontal", "mae", "<=", 0.2, centre=0.0),
    Bound("c06", "validity_horizontal", "rmse", "<=", 0.2, centre=0.0),
    Bound("c06", "validity_horizontal", "mase", "<=", 0.2, centre=0.0),
    Bound("c07", "validity_vertical", "mae", ">=", 0.99),
    Bound("c07", "validity_vertical", "rmse", ">=", 0.99),
    Bound("c07", "validity_vertical", "mase", ">=", 0.99),
    Bound("c07", "validity_vertical", "spec", ">=", 0.99),
    Bound("c08", "reliability", "spec", ">=", 0.9),
    Bound("c09", "segment_reliability", "levene", "<", 0.01),
    Bound("c10", "cost_validity", "spec", "<=", 1e-9, centre=1.0),
    Bound("c10", "cost_validity", "mae", "<=", 0.3, centre=0.0),
)
