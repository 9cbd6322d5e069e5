"""Seeded trajectory CSVs for the `analyze_external` workload.

The seed draws only levels, amplitudes, rates and noise. File names, row
counts and column sets are fixed, so every seed asks the program for the
same amount of work and run-to-run spread reflects the machine, not the
inputs. The program receives only the written files; what each file was
generated from is kept in `manifest.json` beside them and used by the
output checks.

All files share dt = 2**-6 s: every time value is exact in binary, so the
reader's uniform-grid check never sees rounding in `t`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

DT = 2.0 ** -6
ONSET_FRACTION = 0.1
# Decay over the part of the record before the reader's default 25 % tail
# window, in e-folds. At 100 or more, the tail equals the baseline exactly in
# double precision, so the steady-state baseline carries no bias.
DECAY_EFOLDS = (100.0, 200.0)
# Fields `assemble_report` marks absent when no recovery can be fitted.
NO_FIT_ABSENT = ("lambda_hat", "fit_quality", "impact_closed_form")

# (name, shape, rows, columns, why this shape and length)
SPECS = (
    ("exp_long", "exp", 400_000, 2,
     "largest input, one long recovery; its parse dominates read time and peak RSS"),
    ("exp_wide", "exp", 150_000, 5,
     "simulator-style 5-column export; four columns are parsed but unused"),
    ("exp_mid", "exp", 30_000, 5,
     "mid-sized recovery, a second known r0 and rate on the 5-column path"),
    ("exp_short", "exp", 20_000, 2,
     "short record where process start weighs about as much as the parse"),
    ("osc_wide", "osc", 120_000, 5,
     "damped oscillation around a non-zero level; the fit stops at the first dip"),
    ("osc_short", "osc", 40_000, 2,
     "the same shape on the 2-column path"),
    ("noise_long", "noise", 100_000, 2,
     "calm measurement: low-amplitude noise around a level, no disturbance"),
    ("noise_wide", "noise", 10_000, 5,
     "smallest file; per-operation overhead only"),
    ("ramp_mid", "ramp", 60_000, 2,
     "never recovers: the peak is the last sample, so the fit fields are absent"),
    ("ramp_wide", "ramp", 30_000, 5,
     "the absent path on the 5-column reader"),
    ("flat_mid", "flat", 50_000, 2,
     "constant signal: r0 is 0 and every fit field is absent"),
    ("flat_wide", "flat", 10_000, 5,
     "the r0 = 0 path on the 5-column reader"),
)
TOTAL_ROWS = sum(spec[2] for spec in SPECS)


def _decay_rate(rng, t_end: float, t0: float) -> float:
    efolds = rng.uniform(*DECAY_EFOLDS)
    return efolds / (0.75 * t_end - t0)


def _shape(kind: str, rng, t: np.ndarray, t0: float) -> tuple[np.ndarray, dict]:
    after = t >= t0
    tau = np.where(after, t - t0, 0.0)
    if kind == "exp":
        base, r0 = rng.uniform(0.05, 0.3), rng.uniform(0.2, 0.8)
        rate = _decay_rate(rng, t[-1], t0)
        r = np.where(after, base + r0 * np.exp(-rate * tau), base)
        return r, {"baseline": base, "r0": r0, "lambda_hat": rate}
    if kind == "osc":
        level, amp = rng.uniform(0.2, 0.5), rng.uniform(0.1, 0.3)
        rate = _decay_rate(rng, t[-1], t0)
        omega = rate * 2.0 * math.pi / rng.uniform(1.0, 3.0)
        wave = amp * np.exp(-rate * tau) * np.cos(omega * tau)
        return np.where(after, level + wave, level), {"baseline": level, "r0": amp}
    if kind == "noise":
        level, sigma = rng.uniform(0.1, 0.4), rng.uniform(5e-4, 2e-3)
        return level + sigma * rng.standard_normal(len(t)), {"baseline": level}
    if kind == "ramp":
        base, rise = rng.uniform(0.05, 0.2), rng.uniform(0.3, 0.6)
        r = base + rise * tau / (t[-1] - t0)
        return r, {"baseline": base, "absent": list(NO_FIT_ABSENT)}
    if kind == "flat":
        level = rng.uniform(0.0, 0.5)
        return np.full(len(t), level), {"baseline": level, "absent": list(NO_FIT_ABSENT)}
    raise ValueError(f"unknown shape {kind!r}")


def _write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    data = np.column_stack([columns[name] for name in names])
    row = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, len(data), 50_000):
            block = data[start:start + 50_000]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def generate(out_dir: Path, seed: int, rows_divisor: int = 1) -> list[dict]:
    """Write the file set for `seed` into out_dir and return its manifest.

    rows_divisor shrinks every file (never below 4,000 rows) for the
    harness self-test.
    """
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, kind, rows, n_cols, _why in SPECS:
        rows = max(rows // rows_divisor, 4_000)
        t = DT * np.arange(rows)
        t0 = float(t[round(ONSET_FRACTION * rows)])
        r, truth = _shape(kind, rng, t, t0)
        if n_cols == 5:
            energy = 45.0 - 30.0 * r
            p_in = 12.0 * np.maximum(np.sin(2.0 * math.pi * t / 6.0), 0.0) ** 2
            columns = {"t": t, "E": energy, "P_in": p_in,
                       "P_load": np.full(rows, 2.75), "r": r}
        else:
            columns = {"t": t, "r": r}
        path = out_dir / f"{name}.csv"
        _write_csv(path, columns)
        manifest.append({"file": path.name, "shape": kind, "rows": rows,
                         "columns": n_cols, "t0": t0, **truth})
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest
