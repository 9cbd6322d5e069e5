"""Span recorder and layer hooks for the traced run.

The traced run calls `risktraj.cli.main(argv)` in-process with timing
wrappers installed on module attributes at the place each is looked up
(for example `risktraj.scenario.integrate`, which `run_case` calls). The
program itself is unchanged. Each call becomes a span (name, start, end,
parent) kept in memory and written out as JSON lines when the run ends.
A layer's self time is its span minus its child spans.

A hooked function that no longer exists, or a counter that no longer fits
what the function returns, is reported as absent; its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_integrate(args, kwargs, result) -> dict:
    project = _arg(args, kwargs, 0, "system").project
    energy = result.states[0].values
    modes = np.asarray(result.modes if result.modes is not None else (), dtype=bool)
    # The projection clips to the storage bounds, so it maps -inf and +inf
    # onto them; a sample on either bound is a clamped sample.
    lo, hi = (-np.inf, np.inf) if project is None else (
        float(project(np.array([v]))[0]) for v in (-np.inf, np.inf))
    return {
        "steps": result.grid.n_samples - 1,
        "shed_switches": int(np.count_nonzero(modes[1:] != modes[:-1])),
        "clamp_samples": int(np.count_nonzero((energy <= lo) | (energy >= hi))),
    }


def _count_report(args, kwargs, result) -> dict:
    return {"samples": len(_arg(args, kwargs, 0, "traj")),
            "lambda_present": int(result.lambda_hat is not None)}


def _count_write(args, kwargs, result) -> dict:
    return {"rows": len(_arg(args, kwargs, 0, "table").t),
            "bytes": os.path.getsize(_arg(args, kwargs, 1, "destination"))}


def _count_read(args, kwargs, result) -> dict:
    return {"rows": len(result.t),
            "bytes": os.path.getsize(_arg(args, kwargs, 0, "source"))}


def _count_plot(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "destination"))}


# (module, attribute, span name, counter). Names are <layer>.<function>.
HOOKS = (
    ("risktraj.cli", "main", "cli.main", None),
    ("risktraj.cli", "compare_cases", "scenario.compare_cases", None),
    ("risktraj.cli", "parser_to_config", "io_formats.parser_to_config", None),
    ("risktraj.cli", "write_trajectory", "io_formats.write_trajectory", _count_write),
    ("risktraj.cli", "read_trajectory", "io_formats.read_trajectory", _count_read),
    ("risktraj.cli", "write_report", "io_formats.write_report", None),
    ("risktraj.cli", "emit_plot", "svgplot.emit_plot", _count_plot),
    ("risktraj.cli", "assemble_report", "metrics.assemble_report", _count_report),
    ("risktraj.scenario", "run_case", "scenario.run_case", None),
    ("risktraj.scenario", "build_case", "scenario.build_case", None),
    ("risktraj.scenario", "integrate", "dynamics.integrate", _count_integrate),
    ("risktraj.scenario", "assemble_report", "metrics.assemble_report", _count_report),
    ("risktraj.metrics", "estimate_steady_state", "trajectory.estimate_steady_state", None),
)


class SpanRecorder:
    """Collects spans from hooked functions; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._open: list[int] = []
        self._installed: list[tuple[object, str, Callable]] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(len(self.spans), name, parent, time.perf_counter())
            self.spans.append(span)
            self._open.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                try:
                    span.counts = count(args, kwargs, result)
                except Exception as exc:  # counters must never fail the program
                    self.note_absent(f"{name} counts ({type(exc).__name__}: {exc})")
            return result

        return traced

    def note_absent(self, what: str) -> None:
        if what not in self.absent:
            self.absent.append(what)

    def install(self, hooks=HOOKS) -> None:
        for module_name, attr, name, count in hooks:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.note_absent(f"{module_name}.{attr}")
                continue
            self._installed.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, count))

    def remove(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        own = [span.end - span.start for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, s (summed spans), self_s, summed counts."""
        totals: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            entry = totals.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += span.end - span.start
            entry["self_s"] += own
            for key, value in span.counts.items():
                entry[key] = entry.get(key, 0) + value
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span, own in zip(self.spans, self.self_times()):
                fh.write(json.dumps({**asdict(span), "self_s": own}) + "\n")


def time_linear_decay(reps: int = 3) -> float | None:
    """µs per RK4 step of acceptance C1's call, or None if the API moved."""
    try:
        from risktraj import DisturbanceSignal, IntegratorConfig, integrate, linear_decay_system

        config = IntegratorConfig(dt=1e-3, t_start=0.0, t_end=40.0)
        walls = []
        for _ in range(reps):
            start = time.perf_counter()
            integrate(linear_decay_system(0.5), np.array([2.0]), DisturbanceSignal(), config)
            walls.append(time.perf_counter() - start)
    except (ImportError, TypeError, AttributeError):
        return None
    return statistics.median(walls) * 1e6 / 40_000


def layer_metrics(recorder: SpanRecorder, traced_wall: float, untraced_wall: float,
                  linear_decay_us: float | None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit); 0 where a layer did no work."""
    totals = recorder.totals()

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    metrics = {}
    integ, report = "dynamics.integrate", "metrics.assemble_report"
    for key in ("calls", "s", "steps"):
        metrics[f"{integ}.{key}"] = (get(integ, key), "count" if key != "s" else "s")
    metrics[f"{integ}.us_per_step"] = (ratio(get(integ, "s"), get(integ, "steps"), 1e6), "us")
    metrics[f"{integ}.shed_switches"] = (get(integ, "shed_switches"), "count")
    metrics[f"{integ}.clamp_samples"] = (get(integ, "clamp_samples"), "count")
    if linear_decay_us is None:
        recorder.note_absent("dynamics.linear_decay (C1 call)")
    metrics["dynamics.linear_decay.us_per_step"] = (linear_decay_us or 0.0, "us")
    metrics["scenario.build_case.s"] = (get("scenario.build_case", "s"), "s")
    metrics["scenario.run_case.self_s"] = (get("scenario.run_case", "self_s"), "s")
    metrics[f"{report}.calls"] = (get(report, "calls"), "count")
    metrics[f"{report}.s"] = (get(report, "s"), "s")
    metrics[f"{report}.us_per_sample"] = (
        ratio(get(report, "s"), get(report, "samples"), 1e6), "us")
    metrics["metrics.lambda_present_ratio"] = (
        ratio(get(report, "lambda_present"), get(report, "calls")), "ratio")
    metrics["trajectory.estimate_steady_state.s"] = (
        get("trajectory.estimate_steady_state", "s"), "s")
    for io in ("io_formats.write_trajectory", "io_formats.read_trajectory"):
        metrics[f"{io}.s"] = (get(io, "s"), "s")
        metrics[f"{io}.rows"] = (get(io, "rows"), "count")
        metrics[f"{io}.bytes"] = (get(io, "bytes"), "bytes")
        metrics[f"{io}.rows_per_s"] = (ratio(get(io, "rows"), get(io, "s")), "1/s")
    metrics["io_formats.parser_to_config.calls"] = (
        get("io_formats.parser_to_config", "calls"), "count")
    metrics["io_formats.parser_to_config.s"] = (get("io_formats.parser_to_config", "s"), "s")
    metrics["io_formats.write_report.s"] = (get("io_formats.write_report", "s"), "s")
    metrics["svgplot.emit_plot.s"] = (get("svgplot.emit_plot", "s"), "s")
    metrics["svgplot.emit_plot.bytes"] = (get("svgplot.emit_plot", "bytes"), "bytes")
    metrics["cli.main.self_s"] = (get("cli.main", "self_s"), "s")
    metrics["bench.traced_wall_s"] = (traced_wall, "s")
    metrics["bench.trace_overhead_s"] = (traced_wall - untraced_wall, "s")
    covered = sum(entry["self_s"] for entry in totals.values())
    metrics["bench.span_coverage"] = (ratio(covered, traced_wall), "ratio")
    metrics["bench.absent_hooks"] = (len(recorder.absent), "count")
    return metrics
