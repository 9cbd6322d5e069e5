"""risktraj benchmark: closed loop, one client, one CLI operation at a time.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload compare_default --seed 1 --seconds 55 --trace 0

--trace 0 times real `risktraj` processes for --seconds and reports the
end-to-end metrics. --trace 1 runs one unit of the workload in-process,
untraced and then traced, and reports the per-layer metrics; it does not
use --seconds. Every operation's output is checked. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans
from checks import check_setup
from harness import (ROOT, HostSpeed, MissingProgram, import_program, require_program, run_cli,
                     run_in_process)
from workloads import SIZES, WORKLOADS, Op, prepare, run_checked

SETUP_PER_UNIT = 2  # set-up runs before each unit of work
SETUP_MIN = 8  # set-up runs per run, at least
SPANS_DIR = ROOT / ".perfbench_out"


class Tally:
    """Counts operations and prints the first failures to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, args: list[str], fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            if self.failed <= 10:
                print(f"FAILED {' '.join(args)}", file=sys.stderr)
                for line in fails[:10]:
                    print(f"  {line}", file=sys.stderr)


def measure_setup(work: Path, tally: Tally, reps: int, host: HostSpeed) -> list[tuple[float, float]]:
    """Fresh interpreter: import the CLI and resolve --config default.

    Returns the raw and the host-scaled wall time of each run.

    `emit-plot` on a two-row table is the CLI path that resolves the config
    and does nothing else of note: no integration, a few hundred bytes out.
    """
    table = work / "setup.csv"
    table.write_text("t,E,r\n0,50,0\n1,50,0\n")
    svg = work / "setup.svg"
    op = Op(["emit-plot", str(table), "--config", "default", "--out", str(svg)],
            0, lambda res: check_setup(res, svg), svg)
    walls = []
    for _ in range(reps):
        res, fails = run_checked(op, lambda args: run_cli(args, work))
        tally.add(op.args, fails)
        walls.append((res.wall_s, host.scale(res.wall_s)))
    return walls


def timed_run(workload: str, size, seed: int, seconds: float, work: Path, tally: Tally) -> dict:
    """End-to-end metrics; every wall time is kept raw and host-scaled."""
    make_unit = prepare(workload, size, seed, work)
    host = HostSpeed()
    setup, units, rss = [], [], []  # units: (work, raw wall, scaled wall, operations)
    deadline = time.perf_counter() + seconds
    while True:
        unit_start = time.perf_counter()
        # Set-up runs go between the units, so that they see the same
        # fast and slow spells of a shared host as the workload does.
        setup += measure_setup(work, tally, SETUP_PER_UNIT, host)
        ops = make_unit(len(units))
        unit = [0, 0.0, 0.0, len(ops)]
        for op in ops:
            res, fails = run_checked(op, lambda args: run_cli(args, work))
            tally.add(op.args, fails)
            rss.append(res.peak_rss_mb)
            unit[0] += op.work
            unit[1] += res.wall_s
            unit[2] += host.scale(res.wall_s)
        units.append(unit)
        now = time.perf_counter()
        if now + (now - unit_start) > deadline:  # the next unit would overrun
            break
    setup += measure_setup(work, tally, max(SETUP_MIN - len(setup), 0), host)
    print(f"samples: {len(rss)} operations in {len(units)} unit(s), {len(setup)} set-up runs")

    def times(i: int) -> dict:  # i = 1 for raw, 2 for scaled walls
        return {
            # per unit (one operation; one pass over all files for
            # analyze_external), median over the run's units
            "wall_s": statistics.median(u[i] / u[3] for u in units),
            "throughput_per_s": statistics.median(u[0] / u[i] for u in units),
            "setup_s": statistics.median(w[i - 1] for w in setup),
        }

    raw, scaled = times(1), times(2)
    factors = sorted(host.factors)
    print("raw: " + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
          + f"; host-speed factor median {statistics.median(factors):.3f}, "
          f"range {factors[0]:.3f}-{factors[-1]:.3f}")
    return {
        "wall_s": (scaled["wall_s"], "s"),
        "throughput_per_s": (scaled["throughput_per_s"], "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (scaled["setup_s"], "s"),
    }


def traced_run(workload: str, size, seed: int, work: Path, tally: Tally) -> dict:
    cli = import_program()
    make_unit = prepare(workload, size, seed, work)

    def run_unit(i: int) -> float:
        wall = 0.0
        for op in make_unit(i):
            # look main up at call time so the traced unit enters the hook
            res, fails = run_checked(op, lambda args: run_in_process(cli.main, args))
            tally.add(op.args, fails)
            wall += res.wall_s
        return wall

    untraced = run_unit(0)
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        traced = run_unit(1)
    finally:
        recorder.remove()
    linear_decay_us = spans.time_linear_decay()
    metrics = spans.layer_metrics(recorder, traced, untraced, linear_decay_us)
    out = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
    recorder.write(out)
    print(f"spans: {len(recorder.spans)} written to {out.relative_to(ROOT)}")
    for what in recorder.absent:
        print(f"absent: {what}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="smoke shrinks every workload for the self-test")
    args = ap.parse_args(argv)
    try:
        require_program()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    size = SIZES[args.size]
    try:
        if args.trace:
            metrics = traced_run(args.workload, size, args.seed, work, tally)
        else:
            metrics = timed_run(args.workload, size, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
