"""Regenerate reference.json: fine-step values for the output checks.

Runs the shipped `compare` and the 9-point `sweep` once each with the step
size cut 8x (dt = 0.000625 s, 230,400 steps per case) and records each
case's r0 and impact_numeric and the anticipatory r0 at every gain. The
run takes about five minutes on a 2-core machine. Usage, from the root of
a checkout:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import CASES, REFERENCE, parse_sweep
from harness import ROOT, parse_key_values, require_program, run_cli
from workloads import SWEEP_PARAM

FINE_DT = 0.000625
TIMEOUT_S = 1800.0


def main() -> int:
    require_program()
    work = ROOT / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    fine = ["--set", f"integrator.dt_s={FINE_DT}"]
    try:
        cmp_dir = work / "compare"
        res = run_cli(["compare", "--config", "default", "--out", str(cmp_dir), *fine],
                      work, TIMEOUT_S)
        if res.code != 0:
            print(f"compare exit code {res.code}\n{res.stderr}", file=sys.stderr)
            return 1
        summary = parse_key_values((cmp_dir / "comparison.txt").read_text())
        compare = {
            case: {key: float(summary[f"{case}.{key}"]) for key in ("r0", "impact_numeric")}
            for case in CASES
        }
        sweep_csv = work / "sweep.csv"
        res = run_cli(["sweep", "--param", SWEEP_PARAM, "--range", "0:2:9",
                       "--out", str(sweep_csv), *fine], work, TIMEOUT_S)
        if res.code != 0:
            print(f"sweep exit code {res.code}\n{res.stderr}", file=sys.stderr)
            return 1
        rows = parse_sweep(sweep_csv.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = {
        "about": "r0 and impact_numeric of the shipped defaults, integrated with "
                 f"dt_s={FINE_DT}; regenerate with perfbench/make_reference.py",
        "dt_s": FINE_DT,
        "compare": compare,
        "sweep_anticipatory_r0": {row["value"]: float(row["anticipatory_r0"]) for row in rows},
    }
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
