"""Trajectory-based resilience quantities.

Extracts the three structural quantities of a disturbance response —
peak deviation above baseline, effective damping of the recovery, and
cumulative impact (time integral of exposure) — and assembles them into
a single report. Under exponential recovery the cumulative impact has
the closed form peak/damping, which is reported alongside the numeric
quadrature so the two routes can be compared.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import (
    InsufficientRecoveryDataError,
    NoDampingError,
    ParameterError,
)
from .record import Record, fields
from .trajectory import Trajectory, estimate_steady_state

BASELINE_MODES = ("zero", "steady_state")
# The metrics a report may lack, all for the one reason the damping fit gave.
ABSENT_METRICS = ("lambda_hat", "fit_quality", "impact_closed_form")


class MetricsConfig(Record):
    """Knobs the metric definitions leave open.

    baseline_mode "zero" measures deviation from zero; "steady_state"
    measures deviation from the tail mean (systems that settle to an
    operating point rather than to zero). The fit floor excludes the
    far-from-baseline region where a local exponential model is invalid;
    the horizon bounds the impact quadrature (None = trajectory end),
    with an analytic exponential tail added when a damping fit exists.
    """

    baseline_mode: str = "zero"
    tail_fraction: float = 0.25
    fit_floor_ratio: float = 0.05
    min_fit_samples: int = 10
    tail_correction: bool = True
    horizon: float | None = None
    recovery_band_ratio: float = 0.05

    def __post_init__(self):
        if self.baseline_mode not in BASELINE_MODES:
            raise ParameterError(f"unknown baseline_mode {self.baseline_mode!r}")
        if not 0.0 < self.fit_floor_ratio < 1.0:
            raise ParameterError(
                f"fit_floor_ratio must be in (0, 1), got {self.fit_floor_ratio}"
            )
        if self.min_fit_samples < 3:
            raise ParameterError(
                f"min_fit_samples must be >= 3, got {self.min_fit_samples}"
            )
        if not 0.0 < self.tail_fraction <= 1.0:
            raise ParameterError(
                f"tail_fraction must be in (0, 1], got {self.tail_fraction}"
            )
        if not 0.0 < self.recovery_band_ratio < math.inf:
            raise ParameterError(
                f"recovery_band_ratio must be finite and > 0, "
                f"got {self.recovery_band_ratio}"
            )
        if self.horizon is not None and not math.isfinite(self.horizon):
            raise ParameterError(f"horizon must be finite, got {self.horizon}")


class ResilienceReport(Record):
    """Concrete realization of the resilience functional for one trajectory.

    Metrics that could not be computed are None, with the reason recorded
    in `absent` (keyed by field name). recovery_time None means the
    deviation never settled inside the recovery band. Every report, built
    by assemble_report or read back from text, holds finite numbers,
    recovered exactly when recovery_time is set, each of ABSENT_METRICS
    None exactly when absent names it, absent naming nothing else, and
    tail_corrected false when lambda_hat is None.
    """

    t0: float
    r0: float
    t_peak: float
    lambda_hat: float | None
    fit_quality: float | None
    impact_numeric: float
    impact_closed_form: float | None
    steady_state: float
    recovery_time: float | None
    recovered: bool
    tail_corrected: bool
    absent: Mapping[str, str] = MappingProxyType({})

    def __post_init__(self):
        for f in fields(self):
            if f.annotation in ("float", "float | None"):  # the number fields
                value = getattr(self, f.name)
                if value is not None and not math.isfinite(value):
                    raise ParameterError(f"{f.name} must be finite, got {value}")
        if self.recovered != (self.recovery_time is not None):
            raise ParameterError(
                f"recovered={self.recovered} contradicts "
                f"recovery_time={self.recovery_time}"
            )
        for name in self.absent:
            if name not in ABSENT_METRICS:
                raise ParameterError(f"absent names {name!r}, which may not be absent")
        for name in ABSENT_METRICS:
            if (getattr(self, name) is None) != (name in self.absent):
                raise ParameterError(
                    f"{name} must be absent exactly when absent.{name} gives a reason"
                )
        if self.tail_corrected and self.lambda_hat is None:
            raise ParameterError("tail_corrected needs lambda_hat")


def peak_deviation(
    traj: Trajectory, t0: float, baseline: float
) -> tuple[float, float]:
    """Maximum deviation above baseline at or after t0, clamped at zero.

    Returns (r0, t_peak); ties break to the earliest sample.
    """
    i0 = traj.grid.index_at_or_after(t0)
    devs = traj.values[i0:] - baseline
    j = int(np.argmax(devs))
    r0 = max(float(devs[j]), 0.0)
    return r0, traj.grid.time_at(i0 + j)


def estimate_damping(
    traj: Trajectory, t_peak: float, baseline: float, config: MetricsConfig
) -> tuple[float, float]:
    """Effective damping of the recovery from t_peak onward.

    Ordinary least squares of ln(value - baseline) against time over the
    segment where the deviation still exceeds fit_floor_ratio times the
    peak; the fitted decay rate is -slope. Returns (lambda_hat, R^2).
    """
    i_pk = traj.grid.index_at_or_after(t_peak)
    dev = traj.values[i_pk:] - baseline
    r0 = float(dev[0])
    if r0 <= 0.0:
        raise InsufficientRecoveryDataError(
            f"no positive deviation at t_peak={t_peak}"
        )
    floor = config.fit_floor_ratio * r0
    below = np.flatnonzero(dev <= floor)
    stop = int(below[0]) if below.size else len(dev)
    if stop < config.min_fit_samples:
        raise InsufficientRecoveryDataError(
            f"recovery segment has {stop} sample(s) above the fit floor; "
            f"need {config.min_fit_samples}"
        )
    seg = dev[:stop]
    t_seg = traj.grid.times(i_pk, i_pk + stop)
    y = np.log(seg)
    tc = t_seg - np.mean(t_seg)
    # numpy's pairwise sums: no BLAS, so no bit follows the thread count
    slope = float(np.sum(tc * (y - np.mean(y))) / np.sum(tc * tc))
    lambda_hat = -slope
    if lambda_hat <= 0.0:
        raise NoDampingError(
            f"fitted decay rate {lambda_hat:.6g} is not positive; risk is not decaying"
        )
    pred = np.mean(y) + slope * tc
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    fit_quality = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return lambda_hat, max(fit_quality, 0.0)


def cumulative_impact(
    traj: Trajectory,
    t0: float,
    baseline: float,
    config: MetricsConfig,
    lambda_hat: float | None = None,
) -> float:
    """Trapezoidal integral of max(value - baseline, 0) from t0 to the horizon.

    When tail correction is enabled and a positive lambda_hat is supplied,
    the exponential remainder beyond the horizon, deviation(horizon) /
    lambda_hat, is added. Undershoot below baseline never subtracts.
    """
    grid = traj.grid
    i0 = grid.index_at_or_after(t0)
    horizon = grid.t_end if config.horizon is None else config.horizon
    if horizon < t0:
        raise ParameterError(f"horizon {horizon} precedes t0 {t0}")
    i1 = max(grid.index_at_or_before(min(horizon, grid.t_end)), i0)
    integrand = np.clip(traj.values[i0:i1 + 1] - baseline, 0.0, None)
    impact = float(np.trapezoid(integrand, dx=grid.dt)) if i1 > i0 else 0.0
    if config.tail_correction and lambda_hat is not None and lambda_hat > 0.0:
        impact += max(float(traj.values[i1]) - baseline, 0.0) / lambda_hat
    return impact


def closed_form_impact(r0: float, lam: float) -> float:
    """Cumulative impact of an exponential recovery: peak / damping."""
    if r0 < 0.0:
        raise ParameterError(f"peak deviation must be >= 0, got {r0}")
    if lam <= 0.0:
        raise ParameterError(f"damping must be > 0, got {lam}")
    return r0 / lam


def recovery_time(
    traj: Trajectory, t_peak: float, baseline: float, band: float
) -> float | None:
    """First time at or after t_peak from which |value - baseline| stays
    within the band through the trajectory end; None if it never settles."""
    if band <= 0.0:
        raise ParameterError(f"band must be > 0, got {band}")
    i_pk = traj.grid.index_at_or_after(t_peak)
    outside = np.abs(traj.values[i_pk:] - baseline) > band
    violations = np.flatnonzero(outside)
    if violations.size == 0:
        return t_peak
    last = int(violations[-1])
    if last == len(outside) - 1:
        return None
    return traj.grid.time_at(i_pk + last + 1)


# Values near the float limit overflow the reductions; the report's
# finiteness check then rejects the result, so numpy need not warn.
@np.errstate(over="ignore", invalid="ignore")
def assemble_report(
    traj: Trajectory, t0: float, config: MetricsConfig
) -> ResilienceReport:
    """Run the full metric pipeline on one trajectory.

    Baseline is resolved per config, then peak, damping fit, impact
    quadrature (with analytic tail when the fit succeeded) and recovery
    time are extracted in that order. Metric failures do not abort; they
    are recorded as absent fields with a reason.
    """
    baseline = (0.0 if config.baseline_mode == "zero"
                else estimate_steady_state(traj, config.tail_fraction))

    r0, t_peak = peak_deviation(traj, t0, baseline)

    lambda_hat = fit_quality = impact_closed_form = None
    reason = "no positive peak deviation"
    if r0 > 0.0:
        try:
            lambda_hat, fit_quality = estimate_damping(traj, t_peak, baseline, config)
            impact_closed_form = closed_form_impact(r0, lambda_hat)
        except (InsufficientRecoveryDataError, NoDampingError) as exc:
            reason = str(exc)
    absent = {} if lambda_hat is not None else dict.fromkeys(ABSENT_METRICS, reason)

    impact_numeric = cumulative_impact(traj, t0, baseline, config, lambda_hat)
    tail_corrected = bool(config.tail_correction and lambda_hat is not None)

    if r0 > 0.0:
        # a band that rounds to 0 is read as the least positive double
        band = max(config.recovery_band_ratio * r0, 5e-324)
        rec = recovery_time(traj, t_peak, baseline, band)
    else:
        rec = t_peak

    return ResilienceReport(
        t0=t0,
        r0=r0,
        t_peak=t_peak,
        lambda_hat=lambda_hat,
        fit_quality=fit_quality,
        impact_numeric=impact_numeric,
        impact_closed_form=impact_closed_form,
        steady_state=baseline,
        recovery_time=rec,
        recovered=rec is not None,
        tail_corrected=tail_corrected,
        absent=absent,
    )
