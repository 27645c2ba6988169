"""CSV and JSON ingestion/export plus run manifests.

Pair CSVs are the canonical input format: UTF-8, header ``t,actual,forecast``,
decimal point ``.``, 1-based contiguous time index, any newline convention.
Pair values are written with Python's shortest round-trip float repr so a
written pair re-parses to identical values. Metric reports render numbers at
6 significant digits (pinned so golden files stay stable), infinities as
``inf`` and undefined values as ``undef``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO

from .errors import EmptySeries, MalformedRow, NonContiguousTime
from .metrics import ExtendedValue, MetricReport
from .series import DemandSeries, EvaluationPair, ForecastSeries
from .spec import AlphaSweepPoint, CostBreakdown

PAIR_HEADER = ("t", "actual", "forecast")

#: Pinned renderings for non-finite report values.
INF_TEXT = "inf"
UNDEF_TEXT = "undef"

REPORT_SIGNIFICANT_DIGITS = 6


def format_number(x: float) -> str:
    """Render a finite report number at the pinned precision."""
    return format(float(x), f".{REPORT_SIGNIFICANT_DIGITS}g")


def render_value(value: ExtendedValue, digits: int | None = None) -> str:
    """Render an extended metric value as report text."""
    if not value.is_finite:
        return UNDEF_TEXT if math.isnan(value.as_float()) else INF_TEXT
    if digits is None:
        return format_number(value.value)
    return format(value.value, f".{digits}f")


def value_to_json(value: ExtendedValue):
    """JSON form: a number rounded to report precision, or 'inf'/'undef'."""
    text = render_value(value)
    return float(text) if value.is_finite else text


def dump_json(payload) -> str:
    """The JSON text of every report and manifest: sorted keys, 2-space indent."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def parse_pair_csv(source: str | Path | IO[str]) -> EvaluationPair:
    """Read an (actual, forecast) pair from a CSV file, path or text stream."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            try:
                return _parse_pair_stream(handle)
            except UnicodeDecodeError as exc:
                raise MalformedRow(f"{source}: not UTF-8 text ({exc})") from None
    return _parse_pair_stream(source)


def _parse_pair_stream(stream: IO[str]) -> EvaluationPair:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptySeries("input has no header line") from None
    if tuple(cell.strip().lower() for cell in header) != PAIR_HEADER:
        raise MalformedRow(
            f"expected header {','.join(PAIR_HEADER)!r}, got {','.join(header)!r}"
        )
    actual: list[float] = []
    forecast: list[float] = []
    expected_t = 1
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # tolerate blank lines
        if len(row) != 3:
            raise MalformedRow(f"line {line_no}: expected 3 fields, got {len(row)}")
        try:
            t = int(row[0])
            a = float(row[1])
            f = float(row[2])
        except ValueError as exc:
            raise MalformedRow(f"line {line_no}: {exc}") from None
        if t != expected_t:
            raise NonContiguousTime(
                f"line {line_no}: expected t={expected_t}, got t={t} (must run 1..n without gaps)"
            )
        expected_t += 1
        actual.append(a)
        forecast.append(f)
    if not actual:
        raise EmptySeries("input contains a header but no data rows")
    return EvaluationPair(DemandSeries(actual), ForecastSeries(forecast))


def write_pair_csv(pair: EvaluationPair, target: str | Path | IO[str]) -> None:
    """Write a pair with exact (round-trippable) float rendering."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            _write_pair_stream(pair, handle)
        return
    _write_pair_stream(pair, target)


def _write_pair_stream(pair: EvaluationPair, stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(PAIR_HEADER)
    for t, (a, f) in enumerate(zip(pair.actual.values, pair.forecast.values), start=1):
        writer.writerow([t, repr(float(a)), repr(float(f))])


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one command bit for bit."""

    command: str
    version: str
    config: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
    outputs: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return dump_json(self.to_dict())


def report_to_dict(report: MetricReport, manifest: RunManifest | None = None) -> dict:
    """JSON-ready metric report: {metrics, params[, manifest]}."""
    payload: dict = {
        "metrics": {name: value_to_json(value) for name, value in report.entries.items()},
        "params": {"alpha1": report.params.alpha1, "alpha2": report.params.alpha2},
    }
    if manifest is not None:
        payload["manifest"] = manifest.to_dict()
    return payload


def report_to_json(report: MetricReport, manifest: RunManifest | None = None) -> str:
    return dump_json(report_to_dict(report, manifest))


def report_to_csv(report: MetricReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["metric", "value"])
    for name, value in report.entries.items():
        writer.writerow([name, render_value(value)])
    return buffer.getvalue()


def report_to_table(report: MetricReport) -> str:
    """Human-oriented listing; values shown with 3 decimals."""
    lines = []
    width = max(len(name) for name in report.entries)
    for name, value in report.entries.items():
        label = "SPEC" if name == "spec" else name.upper()
        lines.append(f"{label:<{max(width, 5)}} {render_value(value, digits=3)}")
    return "\n".join(lines) + "\n"


def decomposition_to_csv(breakdown: CostBreakdown) -> str:
    """Per-step cost attribution as plot-ready CSV (t, opportunity, stock)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["t", "opportunity", "stock"])
    for t in range(1, breakdown.n + 1):
        writer.writerow(
            [t, format_number(breakdown.opportunity_at(t)), format_number(breakdown.stock_at(t))]
        )
    return buffer.getvalue()


def sweep_to_csv(curves: dict[str, list[AlphaSweepPoint]]) -> str:
    """One row per grid point, one score column per labelled input."""
    labels = list(curves)
    grids = [curve for curve in curves.values()]
    length = len(grids[0])
    if any(len(g) != length for g in grids):
        raise ValueError("all sweep curves must share one grid")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["alpha1", "alpha2"] + [f"spec_{label}" for label in labels])
    for k in range(length):
        row = [format_number(grids[0][k].alpha1), format_number(grids[0][k].alpha2)]
        row.extend(format_number(curve[k].spec_value) for curve in grids)
        writer.writerow(row)
    return buffer.getvalue()


def read_json_config(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # bad syntax, bad UTF-8, over-long integer
            raise MalformedRow(f"{path}: not valid UTF-8 JSON ({exc})") from None
    if not isinstance(data, dict):
        raise MalformedRow(f"{path}: top-level JSON value must be an object")
    return data
