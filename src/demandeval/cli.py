"""Command line interface.

Subcommands: ``score`` (metric report for one pair CSV), ``decompose``
(per-step cost attribution), ``sweep`` (score along the alpha trade-off
line), ``simulate`` (generate a demand/forecast pair CSV) and ``experiment``
(reliability/validity studies from a JSON config).

Exit codes: 0 success, 2 bad input or configuration, 1 internal error. Every
file-producing command also writes (or embeds) a run manifest sufficient to
reproduce its outputs exactly.
"""

from __future__ import annotations

import argparse
import functools
import secrets
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .csvio import (
    decomposition_to_csv,
    dump_json,
    parse_pair_csv,
    read_json_config,
    report_to_csv,
    report_to_json,
    report_to_table,
    sweep_to_csv,
    write_pair_csv,
)
from .errors import DemandEvalError, InvalidConfig
from .experiments import (
    ReliabilityConfig,
    SegmentReliabilityConfig,
    ValidityConfig,
    _cost_validity_from_dict,
    _load,
    run_cost_validity,
    run_reliability,
    run_segment_reliability_config,
    run_validity,
)
from .metrics import METRIC_NAMES, compute_all
from .simulate import DemandGenConfig, ErrorInjectionConfig, generate_demand, perturb_forecast
from .series import EvaluationPair
from .spec import DEFAULT_PARAMS, MAX_GRID_SIZE, SpecParams, spec_alpha_sweep, spec_decompose
from .svg import render_decomposition_svg, render_sweep_svg


#: Config parser and runner per ``experiment`` kind, in ``--help`` order.
_EXPERIMENT_RUNNERS = {
    "reliability": (ReliabilityConfig.from_dict, run_reliability),
    "segment-reliability": (SegmentReliabilityConfig.from_dict, run_segment_reliability_config),
    "validity": (ValidityConfig.from_dict, run_validity),
    "cost-validity": (_cost_validity_from_dict, lambda parsed: run_cost_validity(*parsed)),
}


def _alpha_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--alpha1", type=float, default=DEFAULT_PARAMS.alpha1, help="opportunity cost weight"
    )
    parser.add_argument(
        "--alpha2", type=float, default=DEFAULT_PARAMS.alpha2, help="stock-keeping cost weight"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demandeval",
        description="Forecast-error evaluation for intermittent and lumpy demand.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score one actual/forecast pair")
    p.add_argument("--input", required=True, help="pair CSV (header t,actual,forecast)")
    _alpha_args(p)
    p.add_argument(
        "--metrics",
        default=None,
        help=f"comma-separated subset of: {','.join(METRIC_NAMES)} (default: all)",
    )
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    p = sub.add_parser("decompose", help="per-time-step cost attribution")
    p.add_argument("--input", required=True)
    _alpha_args(p)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--svg", default=None, help="optional stacked-bar SVG path")

    p = sub.add_parser("sweep", help="score along alpha1 = 0..1, alpha2 = 1-alpha1")
    p.add_argument("--input", action="append", required=True, help="pair CSV (repeatable)")
    p.add_argument("--grid-size", type=int, default=101,
                   help=f"points on the alpha1 grid, 2 to {MAX_GRID_SIZE:,} (default 101)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--svg", default=None, help="optional line-chart SVG path")

    p = sub.add_parser("simulate", help="generate a synthetic demand/forecast pair")
    p.add_argument("--config", required=True, help="JSON generation config")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("experiment", help="run a reliability/validity study")
    p.add_argument("kind", choices=tuple(_EXPERIMENT_RUNNERS))
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out", required=True, help="report JSON path")

    return parser


def _manifest(command: str, config: dict, seeds: dict, outputs) -> dict:
    """Everything needed to reproduce one command bit for bit."""
    return {"command": command, "version": __version__, "config": config, "seeds": seeds,
            "outputs": [str(o) for o in outputs]}


def _write_table_and_chart(args: argparse.Namespace, config: dict, table: str, chart) -> None:
    """Write ``table`` to ``--out``, ``chart()`` to ``--svg`` if given, then a sibling manifest."""
    out_path = Path(args.out)
    out_path.write_text(table, encoding="utf-8")
    outputs = [out_path]
    if args.svg:
        Path(args.svg).write_text(chart(), encoding="utf-8")
        outputs.append(Path(args.svg))
    out_path.with_suffix(out_path.suffix + ".manifest.json").write_text(
        dump_json(_manifest(args.command, config, {}, outputs)), encoding="utf-8"
    )


def _cmd_score(args: argparse.Namespace) -> int:
    pair = parse_pair_csv(args.input)
    params = SpecParams(args.alpha1, args.alpha2)
    metrics = None
    if args.metrics is not None:
        metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    report = compute_all(pair, params, metrics)
    if args.format == "table":
        sys.stdout.write(report_to_table(report))
    elif args.format == "csv":
        sys.stdout.write(report_to_csv(report))
    else:
        manifest = _manifest(
            "score",
            {"input": args.input, "alpha1": params.alpha1, "alpha2": params.alpha2,
             "metrics": list(report)},
            {},
            (),
        )
        sys.stdout.write(report_to_json(report, params, manifest))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    pair = parse_pair_csv(args.input)
    params = SpecParams(args.alpha1, args.alpha2)
    breakdown = spec_decompose(pair, params)
    _write_table_and_chart(
        args,
        {"input": args.input, "alpha1": params.alpha1, "alpha2": params.alpha2},
        decomposition_to_csv(breakdown),
        lambda: render_decomposition_svg(breakdown),
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    curves = {}
    for path in args.input:
        label = stem = Path(path).stem
        suffix = len(curves)
        while label in curves:
            label = f"{stem}_{suffix}"
            suffix += 1
        curves[label] = spec_alpha_sweep(parse_pair_csv(path), args.grid_size)
    _write_table_and_chart(
        args,
        {"inputs": list(args.input), "grid_size": args.grid_size},
        sweep_to_csv(curves),
        lambda: render_sweep_svg(curves),
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    data = read_json_config(args.config)
    error = data.pop("error", {})
    if not isinstance(error, dict):
        raise InvalidConfig(f"field 'error': expected an object, got {type(error).__name__}")
    configs, settings, seeds = {}, {}, {}
    for name, cls, fields, prefix in (
        ("demand", DemandGenConfig, data, ""),
        ("error", ErrorInjectionConfig, error, "field 'error': "),
    ):
        if "seed" not in fields:
            fields = {**fields, "seed": secrets.randbits(63)}
            seeds[f"{name}_seed_source"] = "entropy"
        configs[name] = cfg = _load(cls, fields, prefix)
        settings[name] = {key: value for key, value in asdict(cfg).items() if key != "seed"}
        seeds[f"{name}_seed"] = cfg.seed
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    actual = generate_demand(configs["demand"])
    forecast = perturb_forecast(actual, configs["error"])
    pair = EvaluationPair(actual, forecast)

    pair_path = out_dir / "pair.csv"
    write_pair_csv(pair, pair_path)
    (out_dir / "manifest.json").write_text(
        dump_json(_manifest("simulate", settings, seeds, [pair_path])), encoding="utf-8"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    parse, run = _EXPERIMENT_RUNNERS[args.kind]
    report = run(parse(read_json_config(args.config)))
    out_path = Path(args.out)
    payload = report.to_dict()
    payload["manifest"] = _manifest(
        f"experiment {args.kind}", {"config_file": args.config}, {"seed": report.seed},
        [out_path],
    )
    out_path.write_text(dump_json(payload), encoding="utf-8")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """:func:`build_parser`'s parser, built once per process: building it takes
    longer than parsing, and parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # the handler is looked up by command name on every call, not bound into the parser
    handler = globals()[f"_cmd_{args.command}"]
    try:
        return handler(args)
    except (DemandEvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not bad input
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
