"""Command-line entry point.

Subcommands: simulate one case, analyze an external trajectory CSV,
compare the three structural cases, sweep a config parameter, or render
the two-panel figure from trajectory files. All outputs are deterministic
for identical inputs.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import RisktrajError
from .io_formats import (
    CASE_IDS,
    DEFAULT_CONFIG_PATH,
    ReportDocument,
    TrajectoryTable,
    apply_overrides,
    config_digest,
    format_number,
    parser_to_config,
    read_config_parser,
    read_trajectory,
    report_to_text,
    report_values,
    write_report,
    write_trajectory,
)
from .metrics import BASELINE_MODES, MetricsConfig, assemble_report
from .record import fields

if TYPE_CHECKING:
    import configparser

_COMPARISON_SCHEMA = "risktraj.comparison.v1"
# a number or a range that starts with "-"
_NEGATIVE_VALUE = re.compile(r"-(\d|\.|inf|nan)", re.IGNORECASE)


def compare_cases(config):
    """scenario.compare_cases. The simulator (scenario, dynamics) is imported
    only by the commands that run it, so `analyze` starts without it."""
    from .scenario import compare_cases

    return compare_cases(config)


def emit_plot(tables, destination, labels=None, disturbance_window=None):
    """svgplot.emit_plot. The plotter is imported only by the commands that
    draw, so `analyze` starts without it."""
    from .svgplot import emit_plot

    return emit_plot(tables, destination, labels, disturbance_window)


def _load_parser(config_arg: str, overrides=()) -> configparser.ConfigParser:
    """The named config file ('default': the shipped one) with overrides applied."""
    path = DEFAULT_CONFIG_PATH if config_arg == "default" else config_arg
    return apply_overrides(read_config_parser(path), overrides)


def _resolve_config(args):
    return parser_to_config(_load_parser(args.config, args.set or []))


def _write_case(out_dir: Path, case_id: str, result, digest: str):
    """Write one case's trajectory CSV and report, print the CSV's path, and
    return the table and the report's path."""
    table = TrajectoryTable(
        t=result.energy.times(),
        signals={
            "E": result.energy.values,
            "P_in": result.p_in.values,
            "P_load": result.p_load.values,
            "r": result.risk.values,
        },
    )
    traj_path = out_dir / f"{case_id}_trajectory.csv"
    write_trajectory(table, traj_path)
    report_path = out_dir / f"{case_id}_report.txt"
    doc = ReportDocument.from_report(result.report, case_id, digest)
    write_report(doc, report_path)
    print(f"wrote {traj_path}")
    return table, report_path


def _cmd_simulate(args) -> int:
    from .scenario import run_case

    config = _resolve_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_case(args.case, config)
    table, report_path = _write_case(out_dir, args.case, result, config_digest(config))
    print(f"wrote {report_path}")
    if args.plot:
        plot_path = out_dir / f"{args.case}.svg"
        emit_plot(
            [table],
            plot_path,
            labels=[args.case],
            disturbance_window=config.disturbance.window,
        )
        print(f"wrote {plot_path}")
    return 0


def _cmd_analyze(args) -> int:
    import hashlib  # loads OpenSSL, which only analyze needs here

    digest = hashlib.sha256()
    table = read_trajectory(args.input, digest)
    traj = table.trajectory("r")
    t0 = traj.grid.t_start if args.t0 is None else args.t0
    metrics = MetricsConfig(**{f.name: getattr(args, f.name)
                               for f in fields(MetricsConfig)})
    report = assemble_report(traj, t0, metrics)
    doc = ReportDocument.from_report(
        report, "external", "sha256:" + digest.hexdigest()[:16]
    )
    if args.out is None:
        sys.stdout.write(report_to_text(doc))
    else:
        write_report(doc, args.out)
        print(f"wrote {args.out}")
    return 0


def _comparison_text(comparison, digest: str) -> str:
    lines = [
        f"schema = {_COMPARISON_SCHEMA}",
        f"config_digest = {digest}",
        f"r0_ordering_holds = {'true' if comparison.r0_ordering_holds else 'false'}",
        "impact_ordering_holds = "
        + ("true" if comparison.impact_ordering_holds else "false"),
    ]
    for case_id in CASE_IDS:
        values = report_values(comparison.cases[case_id].report)
        for key in ("r0", "lambda_hat_per_s", "impact_numeric", "impact_closed_form"):
            lines.append(f"{case_id}.{key} = {values[key]}")
    return "\n".join(lines) + "\n"


def _cmd_compare(args) -> int:
    config = _resolve_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    comparison = compare_cases(config)
    digest = config_digest(config)
    tables = [_write_case(out_dir, case_id, comparison.cases[case_id], digest)[0]
              for case_id in CASE_IDS]
    summary_path = out_dir / "comparison.txt"
    summary_path.write_text(_comparison_text(comparison, digest), newline="\n")
    print(f"wrote {summary_path}")
    plot_path = out_dir / "comparison.svg"
    emit_plot(
        tables,
        plot_path,
        labels=list(CASE_IDS),
        disturbance_window=config.disturbance.window,
    )
    print(f"wrote {plot_path}")
    return 0


def _parse_range(spec: str) -> np.ndarray:
    """Sweep values of start:stop:count. Each value runs at least one step
    per case, so the count is held to the step limit MAX_STEPS."""
    from .config import MAX_STEPS

    parts = spec.split(":")
    if len(parts) != 3:
        raise RisktrajError(f"range {spec!r} is not of the form start:stop:count")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise RisktrajError(f"range {spec!r} has non-numeric parts") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise RisktrajError(f"range {spec!r} must have a finite start and stop")
    if not 1 <= count <= MAX_STEPS:
        raise RisktrajError(f"range count must be in [1, {MAX_STEPS}], got {count}")
    if stop < start:
        raise RisktrajError(f"range stop {stop} is below start {start}")
    return np.linspace(start, stop, count) + 0.0  # -0.0 is swept as 0


def _cmd_sweep(args) -> int:
    from .scenario import run_case

    # the config is parsed once; probing the parameter path with 0 makes a
    # bad name fail before any run, and each value then overwrites that key
    parser = _load_parser(args.config, [*(args.set or []), f"{args.param}=0"])
    values = _parse_range(args.range)
    # A [policy.<case>] key reruns that case alone, any other key all three;
    # a case the key leaves alone keeps the first value's report.
    section = args.param.rsplit(".", 1)[0]
    rerun = [case_id for case_id in CASE_IDS
             if not section.startswith("policy.") or section == f"policy.{case_id}"]

    lines = [",".join(["value"] + [f"{case_id}_{key}" for case_id in CASE_IDS
                                   for key in ("r0", "lambda_hat", "impact")])]
    reports = {}
    for value in values:
        apply_overrides(parser, [f"{args.param}={format_number(value)}"])
        config = parser_to_config(parser)
        for case_id in rerun if reports else CASE_IDS:
            reports[case_id] = run_case(case_id, config).report
        cells = [format_number(value)]
        for case_id in CASE_IDS:
            rep = reports[case_id]
            lam = "" if rep.lambda_hat is None else format_number(rep.lambda_hat)
            cells += [format_number(rep.r0), lam, format_number(rep.impact_numeric)]
        lines.append(",".join(cells))
    Path(args.out).write_text("\n".join(lines) + "\n", newline="\n")
    print(f"wrote {args.out}")
    return 0


def _cmd_emit_plot(args) -> int:
    tables = [read_trajectory(path) for path in args.inputs]
    labels = [Path(path).stem for path in args.inputs]
    window = None
    if args.config is not None:
        window = parser_to_config(_load_parser(args.config)).disturbance.window
    emit_plot(tables, args.out, labels=labels, disturbance_window=window)
    print(f"wrote {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risktraj",
        description="Simulate disturbance responses and quantify "
        "trajectory-based resilience.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one case and write its outputs")
    p_sim.add_argument("--case", required=True, choices=CASE_IDS)
    p_sim.add_argument("--config", default="default",
                       help="config file path, or 'default'")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value (repeatable)")
    p_sim.add_argument("--plot", action="store_true", help="also write an SVG")
    p_sim.set_defaults(func=_cmd_simulate)

    p_an = sub.add_parser("analyze", help="report metrics for a trajectory CSV")
    p_an.add_argument("input", help="trajectory CSV with an r column")
    p_an.add_argument("--t0", type=float, default=None,
                      help="disturbance onset (default: trajectory start)")
    p_an.add_argument("--out", default=None, help="report path (default: stdout)")
    # each metric flag stores into the MetricsConfig field of its dest
    p_an.add_argument("--baseline", dest="baseline_mode", choices=BASELINE_MODES)
    p_an.add_argument("--tail-fraction", type=float)
    p_an.add_argument("--fit-floor", dest="fit_floor_ratio", type=float,
                      metavar="FIT_FLOOR")
    p_an.add_argument("--min-fit-samples", type=int)
    p_an.add_argument("--no-tail-correction", dest="tail_correction",
                      action="store_false")
    p_an.add_argument("--horizon", type=float)
    p_an.add_argument("--recovery-band-ratio", type=float)
    p_an.set_defaults(func=_cmd_analyze, **vars(MetricsConfig()))

    p_cmp = sub.add_parser("compare", help="run all three cases and compare")
    p_cmp.add_argument("--config", default="default")
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_cmp.set_defaults(func=_cmd_compare)

    p_sw = sub.add_parser("sweep", help="compare cases across a parameter range")
    p_sw.add_argument("--config", default="default")
    p_sw.add_argument("--param", required=True,
                      metavar="SECTION.KEY", help="config key to sweep")
    p_sw.add_argument("--range", required=True, metavar="START:STOP:COUNT")
    p_sw.add_argument("--out", required=True, help="output CSV path")
    p_sw.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_sw.set_defaults(func=_cmd_sweep)

    p_plot = sub.add_parser("emit-plot", help="render trajectory CSVs to SVG")
    p_plot.add_argument("inputs", nargs="+", help="trajectory CSV paths")
    p_plot.add_argument("--out", required=True, help="SVG path")
    p_plot.add_argument("--config", default=None,
                        help="config providing the disturbance window shading")
    p_plot.set_defaults(func=_cmd_emit_plot)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as "-1e3", "-inf" or "-1:1:3" for an option, so
    # join it to the option before it; after a flag argparse rejects it either way
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1].startswith("--") and _NEGATIVE_VALUE.match(argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = _build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            code = args.func(args)
    except (RisktrajError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # one line per distinct warning, such as integrate's coarse-step advisory
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
