"""The three workloads as sequences of checked CLI operations.

- compare_default: `risktraj compare --config default` into a fresh
  directory. The paper's headline artifact, 3 cases x 28,800 RK4 steps,
  plus three ~1.6 MB trajectory CSVs and an SVG: it shows how much of a
  faster integrator reaches a user who also pays for the write path.
- sweep_gain9: the README's 9-point sweep of the anticipatory gain. 27
  integrations and no trajectory files, so a faster or batched `dynamics`
  shows almost in full; passive and reactive repeat at every point, so
  reusing shared work shows too. Run by hand only: BENCHMARK.json leaves
  it out, because a timed run holds just one or two of its operations.
- analyze_external: `risktraj analyze` over about 1M rows of seeded CSVs.
  No integration at all: it is the read side of `io_formats` plus
  `metrics`, and a change to the integrator must leave it unchanged.

One unit of work is one operation for compare and sweep and one pass over
every generated file for analyze, so a run always covers whole passes.
"""

from __future__ import annotations

import configparser
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import external
from checks import CASES, check_analyze, check_compare, check_sweep, load_reference
from harness import DEFAULT_INI, OpResult

WORKLOADS = ("compare_default", "sweep_gain9", "analyze_external")
SWEEP_PARAM = "policy.anticipatory.gain_W_per_J"


@dataclass(frozen=True)
class Size:
    """Full size is the default run; smoke shrinks it for the self-test."""

    sets: tuple[str, ...]  # extra --set overrides for compare and sweep
    sweep_points: int
    rows_divisor: int  # shrinks the external CSVs


SIZES = {
    "full": Size(sets=(), sweep_points=9, rows_divisor=1),
    # dt 4x coarser keeps the reference checks within tolerance; a shorter
    # t_end would not, because the case orderings need the full recovery.
    "smoke": Size(sets=("integrator.dt_s=0.02",), sweep_points=3, rows_divisor=50),
}


@dataclass
class Op:
    """One CLI invocation, the work it does, and how to check it."""

    args: list[str]
    work: int  # RK4 steps, or CSV data rows analyzed
    check: Callable[[OpResult], list[str]]
    leaves: Path | None = None  # output removed after the check


def steps_per_case(size: Size) -> int:
    """RK4 steps of one case, from the shipped config and the overrides."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read(DEFAULT_INI)
    for item in size.sets:
        path, value = item.split("=", 1)
        section, key = path.rsplit(".", 1)
        parser[section][key] = value
    span = float(parser["integrator"]["t_end_s"]) - float(parser["integrator"]["t_start_s"])
    return round(span / float(parser["integrator"]["dt_s"]))


def prepare(name: str, size: Size, seed: int, work_dir: Path) -> Callable[[int], list[Op]]:
    """Build the workload's inputs and return a maker for unit number i.

    Only analyze_external depends on the seed: the config-driven workloads
    have no inputs but the shipped defaults.
    """
    overrides = [arg for item in size.sets for arg in ("--set", item)]
    if name == "compare_default":
        reference = load_reference()
        steps = steps_per_case(size)

        def compare_unit(i: int) -> list[Op]:
            out = work_dir / f"compare-{i}"
            args = ["compare", "--config", "default", "--out", str(out), *overrides]
            return [Op(args, len(CASES) * steps,
                       lambda res: check_compare(res, out, steps + 1, reference), out)]

        return compare_unit
    if name == "sweep_gain9":
        reference = load_reference()
        steps = steps_per_case(size)
        points = size.sweep_points
        values = [float(v) for v in np.linspace(0.0, 2.0, points)]

        def sweep_unit(i: int) -> list[Op]:
            out = work_dir / f"sweep-{i}.csv"
            args = ["sweep", "--param", SWEEP_PARAM, "--range", f"0:2:{points}",
                    "--out", str(out), *overrides]
            return [Op(args, len(CASES) * points * steps,
                       lambda res: check_sweep(res, out, values, reference), out)]

        return sweep_unit
    if name == "analyze_external":
        data_dir = work_dir / "external"
        manifest = external.generate(data_dir, seed, size.rows_divisor)
        ops = [
            Op(["analyze", str(data_dir / entry["file"]), "--t0", repr(entry["t0"]),
                "--baseline", "steady_state"],
               entry["rows"], lambda res, entry=entry: check_analyze(res, entry))
            for entry in manifest
        ]
        return lambda i: ops
    raise ValueError(f"unknown workload {name!r}")


def run_checked(op: Op, run: Callable[[list[str]], OpResult]) -> tuple[OpResult, list[str]]:
    """Run one operation, check it, and remove what it wrote."""
    res = run(op.args)
    try:
        fails = op.check(res)
    finally:
        if op.leaves is not None:
            if op.leaves.is_dir():
                shutil.rmtree(op.leaves, ignore_errors=True)
            else:
                op.leaves.unlink(missing_ok=True)
    return res, fails
