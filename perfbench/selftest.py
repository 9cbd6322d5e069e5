"""Smoke self-test of the benchmark's own code, about a minute on 2 cores.

Runs every workload once at the reduced `smoke` size, untraced and traced,
and requires exit code 0, a passing result (correct, no failed operation)
and exactly the metric names and units that BENCHMARK.json declares. Then
it copies only BENCHMARK.json and perfbench/ into an empty directory and
requires the benchmark to refuse to run there. Usage, from the root of a
checkout:

    python3 perfbench/selftest.py

Do not run it, or the benchmark, while the test suite runs: acceptance C1
asserts a wall-clock limit that two busy cores can break.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from harness import ROOT
from workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_run(workload: str, trace: int) -> list[str]:
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--size", "smoke")
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{label}: last stdout line is not JSON"]
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: {result['failed']} of {result['attempted']} failed\n"
                        f"{proc.stderr[-2000:]}")
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != declared:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(declared.keys() - emitted.keys())}, "
                        f"extra {sorted(emitted.keys() - declared.keys())}, "
                        f"units {[n for n in declared if emitted.get(n, declared[n]) != declared[n]]}")
    if "absent:" in proc.stdout:
        problems.append(f"{label}: hooks absent:\n{proc.stdout}")
    return problems


def check_refuses_without_program() -> list[str]:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", WORKLOADS[0], "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["benchmark ran without the program's sources"]
    return []


def main() -> int:
    problems = check_refuses_without_program()
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_run(workload, trace)
            problems += found
            print(f"{workload} --trace {trace}: {'FAIL' if found else 'ok'}", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
