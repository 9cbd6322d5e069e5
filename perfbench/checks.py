"""Output checks. Each returns a list of failure messages; empty means pass.

Every timed operation is checked outside its timed region, and an
operation with any failure counts toward `failed`.

Tolerances:
- REL_TOL (compare and sweep against reference.json, which was integrated
  at an 8x finer step). At the shipped dt the largest gap is 1.7e-3
  (anticipatory impact at gain 0); a converged integrator lands within
  about 1e-4 of the reference. 5e-3 passes both and still catches a wrong
  case, a wrong gain or a broken integrator.
- lambda_hat is not compared for compare_default: its definition is
  expected to change.
- On the pure-exponential external files, r0 and lambda_hat are exact up to
  rounding for any correct estimator; a moment or trapezoid estimator is
  off by about (rate*dt)**2 / 12, below 1e-4 on these files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from harness import OpResult, parse_key_values

CASES = ("passive", "reactive", "anticipatory")
REL_TOL = 5e-3
EXTERNAL_R0_TOL = 1e-6
EXTERNAL_LAMBDA_TOL = 1e-3
REPORT_SCHEMA = "risktraj.report.v1"
TRAJECTORY_HEADER = "t,E,P_in,P_load,r"
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _number(text: str | None) -> float | None:
    try:
        value = float(text)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def _near(label: str, text: str | None, expected: float, tol: float) -> list[str]:
    value = _number(text)
    if value is None or abs(value - expected) > tol * abs(expected):
        return [f"{label} = {text}, expected {expected!r} within {tol:g} relative"]
    return []


def _exit(res: OpResult) -> list[str]:
    if res.code == 0:
        return []
    return [f"exit code {res.code}: {res.stderr.strip()[-400:]}"]


def _read_doc(path: Path) -> dict[str, str]:
    return parse_key_values(path.read_text()) if path.is_file() else {}


def _check_trajectory(path: Path, n_rows: int) -> list[str]:
    lines = path.read_text().splitlines() if path.is_file() else []
    if not lines:
        return [f"{path.name} missing or empty"]
    header, *body = lines
    fails = []
    if header != TRAJECTORY_HEADER:
        fails.append(f"{path.name} header {header!r}")
    if len(body) != n_rows:
        fails.append(f"{path.name} has {len(body)} rows, expected {n_rows}")
    try:
        cells = np.array(",".join(body).split(","), dtype=float)
    except ValueError as exc:
        return fails + [f"{path.name} does not parse: {exc}"]
    if cells.size != len(body) * 5 or not np.all(np.isfinite(cells)):
        fails.append(f"{path.name} has missing or non-finite cells")
    return fails


def check_setup(res: OpResult, svg: Path) -> list[str]:
    """The set-up probe exits cleanly and writes its plot."""
    fails = _exit(res)
    if not fails and not svg.is_file():
        fails.append(f"{svg.name} missing")
    return fails


def check_compare(res: OpResult, out_dir: Path, n_rows: int, reference: dict) -> list[str]:
    """Orderings true; every trajectory and report present and sane."""
    fails = _exit(res)
    if fails:
        return fails
    summary = _read_doc(out_dir / "comparison.txt")
    for key in ("r0_ordering_holds", "impact_ordering_holds"):
        if summary.get(key) != "true":
            fails.append(f"comparison.txt {key} = {summary.get(key)}")
    for case in CASES:
        fails += _check_trajectory(out_dir / f"{case}_trajectory.csv", n_rows)
        report = _read_doc(out_dir / f"{case}_report.txt")
        if report.get("schema") != REPORT_SCHEMA:
            fails.append(f"{case}_report.txt schema {report.get('schema')}")
        for key in ("r0", "impact_numeric"):
            expected = reference["compare"][case][key]
            fails += _near(f"{case}.{key}", report.get(key), expected, REL_TOL)
    svg = out_dir / "comparison.svg"
    if not svg.is_file() or svg.stat().st_size == 0:
        fails.append("comparison.svg missing or empty")
    return fails


def parse_sweep(text: str) -> list[dict[str, str]]:
    header, *rows = text.splitlines()
    names = header.split(",")
    return [dict(zip(names, row.split(","))) for row in rows]


def _constant(rows: list[dict[str, str]], column: str) -> bool:
    cells = [row.get(column) for row in rows]
    if any(cell is None for cell in cells):
        return False
    if all(cell == "" for cell in cells):
        return True  # absent at every point
    values = [_number(cell) for cell in cells]
    if any(value is None for value in values):
        return False
    return max(values) - min(values) <= 1e-9 * max(abs(v) for v in values)


def check_sweep(res: OpResult, csv_path: Path, values: list[float], reference: dict) -> list[str]:
    """One row per value, 10 columns; passive and reactive constant."""
    fails = _exit(res)
    if fails:
        return fails
    text = csv_path.read_text() if csv_path.is_file() else ""
    if not text.strip():
        return [f"{csv_path.name} missing or empty"]
    rows = parse_sweep(text)
    n_cols = len(text.splitlines()[0].split(","))
    if n_cols != 10 or len(rows) != len(values):
        fails.append(f"sweep has {len(rows)} rows x {n_cols} columns, "
                     f"expected {len(values)} x 10")
    for case in ("passive", "reactive"):
        for quantity in ("r0", "lambda_hat", "impact"):
            if not _constant(rows, f"{case}_{quantity}"):
                fails.append(f"{case}_{quantity} varies down the sweep")
    for row, value in zip(rows, values):
        if _number(row.get("value")) != value:
            fails.append(f"sweep value {row.get('value')}, expected {value!r}")
            continue
        expected = reference["sweep_anticipatory_r0"][format(value, ".17g")]
        fails += _near(f"anticipatory_r0 at {value:g}", row.get("anticipatory_r0"),
                       expected, REL_TOL)
    return fails


def check_analyze(res: OpResult, entry: dict) -> list[str]:
    """Known r0 and rate on exponentials; expected absent fields elsewhere."""
    fails = _exit(res)
    if fails:
        return fails
    name = entry["file"]
    report = parse_key_values(res.stdout)
    if report.get("schema") != REPORT_SCHEMA:
        fails.append(f"{name} report schema {report.get('schema')}")
    if "lambda_hat" in entry:
        fails += _near(f"{name} r0", report.get("r0"), entry["r0"], EXTERNAL_R0_TOL)
        fails += _near(f"{name} lambda_hat", report.get("lambda_hat_per_s"),
                       entry["lambda_hat"], EXTERNAL_LAMBDA_TOL)
    for field in entry.get("absent", ()):
        if f"absent.{field}" not in report:
            fails.append(f"{name} lacks absent.{field}")
    return fails
