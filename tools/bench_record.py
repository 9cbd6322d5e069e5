"""Paired benchmark record: a parent commit against the working tree.

Usage, from the root of a source checkout:

    python3 tools/bench_record.py --parent HEAD~1 --out BENCH_<pr>.json \\
        [--workload compare_default --workload analyze_external] \\
        [--pairs 10] [--seconds 55] [--seed 500]

The parent is extracted with `git archive` into a temporary directory; the
change is the working tree as it stands. For each workload, pair i runs
`perfbench/run.py --trace 0` once on each side with seed `--seed + i`,
the parent first on even pairs and the change first on odd ones, so a
drift of the host's speed favours neither side. One `--trace 1` run per
side then gives the per-layer metrics. The JSON record holds every run's
metrics, the per-side medians and quartiles, the pairs each side won, the
traces, the Python and numpy versions and both commits. Nothing else may
run on the machine meanwhile.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_result(stdout: str) -> dict:
    """The JSON object on the last line of a perfbench/run.py output."""
    return json.loads(stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles; a single value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's median, quartiles and IQR, and
    the pairs each side won. `runs` holds one entry per timed run: its
    workload, pair, side and the parsed result; `better` maps a metric name
    to "lower" or "higher". A tie counts for neither side."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
        whole = [pair for pair in pairs.values() if set(pair) == set(SIDES)]
        rows = {"pairs": len(whole),
                "failed": {side: sum(pair[side]["failed"] for pair in whole)
                           for side in SIDES}}
        for name, direction in better.items():
            values = {side: [pair[side]["metrics"][name]["value"] for pair in whole]
                      for side in SIDES}
            row = {}
            for side in SIDES:
                q1, q3 = _quartiles(values[side])
                row[side] = {"median": statistics.median(values[side]),
                             "q1": q1, "q3": q3, "iqr": q3 - q1}
            sign = 1.0 if direction == "lower" else -1.0
            gaps = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
            row["change_wins"] = sum(gap > 0 for gap in gaps)
            row["parent_wins"] = sum(gap < 0 for gap in gaps)
            parent = row["parent"]["median"]
            row["change_vs_parent"] = row["change"]["median"] / parent - 1.0 if parent else None
            rows[name] = row
        summary[workload] = rows
    return summary


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    # run.py requires --seconds even with --trace 1, which does not use it
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    return parse_result(proc.stdout)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _extract(parent: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", parent], cwd=ROOT, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="commit to compare against")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--seed", type=int, default=500)
    args = ap.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}
    record = {
        "commits": {"parent": _git("rev-parse", args.parent),
                    "change": _git("rev-parse", "HEAD"),
                    "change_uncommitted": _git("status", "--porcelain").splitlines()},
        "python": platform.python_version(), "numpy": np.__version__,
        "settings": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                     "order": "parent first on even pairs, change first on odd"},
        "runs": [], "traces": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        _extract(args.parent, trees["parent"])
        for workload in workloads:
            for pair in range(args.pairs):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    result = _run(trees[side], workload, args.seed + pair, args.seconds, 0)
                    record["runs"].append({"workload": workload, "pair": pair,
                                           "side": side, "seed": args.seed + pair,
                                           "result": result})
                    print(workload, pair, side, json.dumps(result["metrics"]), flush=True)
            for side in SIDES:
                record["traces"].append({"workload": workload, "side": side,
                                         "result": _run(trees[side], workload, args.seed,
                                                        args.seconds, 1)})
    record["summary"] = summarise(record["runs"], better)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
