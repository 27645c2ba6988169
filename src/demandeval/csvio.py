"""CSV and JSON ingestion and export.

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
import os
from dataclasses import asdict
from pathlib import Path
from typing import IO

import numpy as np

from .errors import InvalidConfig, MalformedRow, SeriesError
from .series import DemandSeries, EvaluationPair, ForecastSeries
from .spec import AlphaSweepPoint, CostBreakdown, SpecParams

PAIR_HEADER = ("t", "actual", "forecast")
_PAIR_DTYPE = [("t", np.int64), ("a", float), ("f", float)]
#: Suffixes of the files ``np.loadtxt`` decompresses when given their path.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")

#: Rows per joined string when writing a pair CSV.
_WRITE_BLOCK = 65_536

#: Pinned renderings for non-finite report values.
INF_TEXT = "inf"
UNDEF_TEXT = "undef"

REPORT_SIGNIFICANT_DIGITS = 6


def format_number(x: float) -> str:
    """Render a finite report number at the pinned precision."""
    return format(float(x), f".{REPORT_SIGNIFICANT_DIGITS}g")


def json_number(x: float):
    """``x`` when finite, else its pinned text: ``inf`` or ``undef`` (for NaN)."""
    if math.isfinite(x):
        return x
    return UNDEF_TEXT if math.isnan(x) else INF_TEXT


def render_value(value: float, digits: int | None = None) -> str:
    """Report text of a value; with ``digits`` decimals, in exponent form from 1e16."""
    if not math.isfinite(value):
        return json_number(value)
    if digits is None:
        return format_number(value)
    return format(value, f".{digits}{'e' if abs(value) >= 1e16 else 'f'}")


def dump_json(payload) -> str:
    """The JSON text of every report and manifest: sorted keys, 2-space indent."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def parse_pair_csv(source: str | Path | IO[str]) -> EvaluationPair:
    """Read an (actual, forecast) pair from a CSV file, path or text stream."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            # loadtxt reads a path in blocks, but it fetches a path that parses
            # as a URL and decompresses one by its suffix: give it an absolute
            # path, and none with such a suffix
            path = os.path.abspath(source)
            try:
                return _parse_pair_bulk(handle, None if path.endswith(_COMPRESSED) else path)
            except UnicodeDecodeError as exc:
                raise MalformedRow(f"{source}: not UTF-8 text ({exc})") from None
    return _parse_pair_bulk(io.StringIO(source.read(), newline=""))


def _parse_pair_bulk(handle: IO[str], path: str | None = None) -> EvaluationPair:
    """Read the data rows in one ``np.loadtxt`` pass, from ``path`` when given
    (``handle`` is open on it), else streaming from ``handle``.

    ``loadtxt`` reads a path in blocks but a handle line by line, so a file
    is read by path once ``handle`` has checked its header and first row.
    ``loadtxt`` takes a strict subset of what the row loop accepts: no quoted
    fields, no ``_`` in numbers, no whitespace-only lines. Whatever it does
    not take -- and every malformed input -- is read again from the start by
    :func:`_parse_pair_stream`, the one path that reports line-numbered
    errors, so both give the same values or the same error.
    """
    header = handle.readline()
    body = handle.tell()
    # A first non-blank data row means loadtxt never meets an empty body.
    if tuple(cell.strip().lower() for cell in header.split(",")) == PAIR_HEADER and (
        handle.readline().strip()
    ):
        if path is None:
            handle.seek(body)
            source, skiprows = handle, 0
        else:
            source, skiprows = path, 1
        try:
            rows = np.loadtxt(
                source, delimiter=",", comments=None, ndmin=1, dtype=_PAIR_DTYPE,
                skiprows=skiprows, encoding="utf-8-sig",
            )
        except ValueError:  # includes UnicodeDecodeError
            pass
        else:
            if np.array_equal(rows["t"], np.arange(1, rows.size + 1)):
                return EvaluationPair(DemandSeries(rows["a"]), ForecastSeries(rows["f"]))
    handle.seek(0)
    return _parse_pair_stream(handle)


def _parse_pair_stream(stream: IO[str]) -> EvaluationPair:
    reader = csv.reader(stream)
    try:
        actual, forecast = _read_pair_rows(reader)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise MalformedRow(f"line {reader.line_num}: {exc}") from None
    return EvaluationPair(DemandSeries(actual), ForecastSeries(forecast))


def _read_pair_rows(reader) -> tuple[list[float], list[float]]:
    try:
        header = next(reader)
    except StopIteration:
        raise SeriesError("input has no header line") from None
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
            raise MalformedRow(
                f"line {line_no}: expected t={expected_t}, got t={t} (must run 1..n without gaps)"
            )
        expected_t += 1
        actual.append(a)
        forecast.append(f)
    if not actual:
        raise SeriesError("input contains a header but no data rows")
    return actual, forecast


def write_pair_csv(pair: EvaluationPair, target: str | Path | IO[str]) -> None:
    """Write a pair with exact (round-trippable) float rendering."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            _write_pair_stream(pair, handle)
        return
    _write_pair_stream(pair, target)


def _write_pair_stream(pair: EvaluationPair, stream: IO[str]) -> None:
    """Write one joined string per ``_WRITE_BLOCK`` rows, so memory stays flat in n."""
    stream.write(",".join(PAIR_HEADER) + "\n")
    for start in range(0, pair.n, _WRITE_BLOCK):
        stop = min(start + _WRITE_BLOCK, pair.n)
        rows = stop - start
        # each row is t "," actual "," forecast "\n"
        parts = [","] * (6 * rows)
        parts[0::6] = map(str, range(start + 1, stop + 1))
        parts[2::6] = _float_texts(pair.actual.values[start:stop])
        parts[4::6] = _float_texts(pair.forecast.values[start:stop])
        parts[5::6] = ["\n"] * rows
        stream.write("".join(parts))


def _float_texts(values: np.ndarray) -> list[str]:
    """``repr`` of each value; every +0.0 shares one string, so only the rest are rendered."""
    texts = ["0.0"] * values.size
    rendered = np.flatnonzero((values != 0) | np.signbit(values))
    for i, value in zip(rendered.tolist(), values[rendered].tolist()):
        texts[i] = repr(value)
    return texts


def report_to_json(report: dict[str, float], params: SpecParams, manifest: dict) -> str:
    """JSON metric report {metrics, params, manifest}; numbers at report precision."""
    metrics = {name: json_number(float(format_number(value))) for name, value in report.items()}
    return dump_json({"metrics": metrics, "params": asdict(params), "manifest": manifest})


def report_to_csv(report: dict[str, float]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["metric", "value"])
    for name, value in report.items():
        writer.writerow([name, render_value(value)])
    return buffer.getvalue()


def report_to_table(report: dict[str, float]) -> str:
    """Human-oriented listing; values shown with 3 decimals."""
    lines = []
    width = max(len(name) for name in report)
    for name, value in report.items():
        label = "SPEC" if name == "spec" else name.upper()
        lines.append(f"{label:<{max(width, 5)}} {render_value(value, digits=3)}")
    return "\n".join(lines) + "\n"


def decomposition_to_csv(breakdown: CostBreakdown) -> str:
    """Per-step cost attribution as plot-ready CSV (t, opportunity, stock)."""
    rows = map(
        "{},{},{}\n".format,
        range(1, breakdown.n + 1),
        map(format_number, breakdown.per_t_opportunity.tolist()),
        map(format_number, breakdown.per_t_stock.tolist()),
    )
    return "t,opportunity,stock\n" + "".join(rows)


def sweep_to_csv(curves: dict[str, list[AlphaSweepPoint]]) -> str:
    """One row per grid point, one score column per labelled input."""
    labels = list(curves)
    grids = list(curves.values())
    if not grids or any(len(g) != len(grids[0]) for g in grids):
        raise InvalidConfig("sweep curves: need at least one, all on one grid")
    length = len(grids[0])
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
