"""The config types: a scenario and its integrator window. Building a
config loads neither the integrator nor the scenario model."""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, ParameterError
from .io_formats import CASE_IDS
from .metrics import MetricsConfig
from .record import Record
from .trajectory import tail_length

# Most steps one run may take; a sweep may also visit at most this many
# values, since each value runs at least one step per case.
MAX_STEPS = 10_000_000


class DisturbanceSignal(Record):
    """Exogenous disturbance d(t): a rectangular pulse or nothing.

    The pulse is active on the half-open window [onset, onset + duration).
    Outside the window (and always for kind="none") d is 1: the
    disturbance multiplies the input it attenuates.
    """

    kind: str = "none"  # "none" | "pulse"
    onset: float = 0.0
    duration: float = 0.0
    magnitude: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "pulse"):
            raise ParameterError(f"unknown disturbance kind {self.kind!r}")
        if self.kind == "pulse":
            if not math.isfinite(self.onset):
                raise ParameterError(f"pulse onset must be finite, got {self.onset}")
            if not self.duration >= 0:
                raise ParameterError(f"pulse duration must be >= 0, got {self.duration}")

    @property
    def window(self) -> tuple[float, float] | None:
        """The pulse's window (onset, onset + duration), or None without a pulse."""
        if self.kind != "pulse":
            return None
        return (self.onset, self.onset + self.duration)

    def sample(self, times: np.ndarray) -> np.ndarray:
        """d at each of the given times, as a float array."""
        if self.window is None:
            return np.ones(times.shape)
        start, end = self.window
        return np.where((times >= start) & (times < end), self.magnitude, 1.0)


class IntegratorConfig(Record):
    """Fixed-step classical RK4 integration window: a whole number of steps,
    at most MAX_STEPS."""

    dt: float
    t_start: float
    t_end: float

    def __post_init__(self):
        span = self.t_end - self.t_start
        if not (self.dt > 0 and self.dt <= span):
            raise ConfigurationError(
                f"need 0 < dt <= t_end - t_start, got dt={self.dt}, span={span}"
            )
        ratio = span / self.dt
        if ratio > MAX_STEPS:
            raise ConfigurationError(
                f"{ratio:.3g} steps exceed the limit {MAX_STEPS}"
            )
        if abs(ratio - round(ratio)) > 1e-6:
            raise ConfigurationError(
                f"(t_end - t_start)/dt = {ratio} is not a whole number of steps"
            )

    def n_steps(self) -> int:
        return round((self.t_end - self.t_start) / self.dt)


class EnergyParams(Record):
    E_max: float   # storage capacity (J)
    E_min: float   # critical floor where risk saturates at 1 (J)
    E_init: float  # initial stored energy (J)
    E_ref: float   # reference level below which risk starts rising (J)

    def __post_init__(self):
        if not 0.0 <= self.E_min < self.E_ref <= self.E_max:
            raise ParameterError(
                f"need 0 <= E_min < E_ref <= E_max, got "
                f"E_min={self.E_min}, E_ref={self.E_ref}, E_max={self.E_max}"
            )
        if not self.E_min <= self.E_init <= self.E_max:
            raise ParameterError(
                f"E_init={self.E_init} outside [{self.E_min}, {self.E_max}]"
            )


class SolarProfile(Record):
    """Periodic clamped-sine input: P_peak * max(0, sin(2*pi*t/period))**shape.

    shape_exponent >= 1 sharpens the daily bump; the special value 0
    selects a constant input at P_peak (degenerate flat profile used by
    balance/equilibrium tests).
    """

    P_peak: float          # W
    period: float          # s
    shape_exponent: float  # dimensionless

    def __post_init__(self):
        if not self.P_peak > 0.0:
            raise ParameterError(f"P_peak must be > 0, got {self.P_peak}")
        if self.P_peak == math.inf:
            raise ParameterError(f"P_peak must be finite, got {self.P_peak}")
        if not 0.0 < self.period < math.inf:
            raise ParameterError(f"period must be finite and > 0, got {self.period}")
        if self.shape_exponent != 0.0 and not 1.0 <= self.shape_exponent < math.inf:
            raise ParameterError(
                f"shape_exponent must be finite and >= 1 (or 0 for flat), "
                f"got {self.shape_exponent}"
            )


class RiskMap(Record):
    """Piecewise-linear normalized risk: 1 at E_min, 0 at E_ref."""

    E_ref: float
    E_min: float

    def __post_init__(self):
        if not self.E_min < self.E_ref:
            raise ParameterError(
                f"need E_min < E_ref, got E_min={self.E_min}, E_ref={self.E_ref}"
            )


class LoadPolicy(Record):
    """One load law; the three structural cases are points of it.

    The load is P0, or floor = P0*(1 - shed_fraction) while shedding, less
    gain per J of shortfall below E_target, held in [floor, P0]. Shedding
    follows a hysteresis band (engage below E_on, release above E_off) or
    a forecast: the level projected over horizon, on the undisturbed input
    and base load, falls below E_target. Each default leaves its term
    inert, so LoadPolicy(P0) is passive (constant load); the reactive case
    sets a band, the anticipatory one a horizon and feedback.
    """

    P0: float                     # base load (W)
    shed_fraction: float = 0.0    # fraction of P0 dropped while shedding
    E_on: float = -math.inf       # shed-engage threshold (J)
    E_off: float = -math.inf      # shed-release threshold (J)
    horizon: float | None = None  # forecast horizon (s)
    E_target: float = -math.inf   # projected-energy and feedback target (J)
    gain: float = 0.0             # proportional feedback gain (W per J of shortfall)

    def __post_init__(self):
        if not self.P0 > 0.0:
            raise ParameterError(f"P0 must be > 0, got {self.P0}")
        if self.E_on != -math.inf and not self.E_on < self.E_off:
            raise ParameterError(
                f"hysteresis band requires E_on < E_off, got "
                f"E_on={self.E_on}, E_off={self.E_off}"
            )
        if self.horizon is not None:
            if not self.horizon > 0.0:
                raise ParameterError(f"horizon must be > 0, got {self.horizon}")
            if self.E_on != -math.inf:
                raise ParameterError(
                    f"a policy sheds on a band or on a forecast, not both; got "
                    f"E_on={self.E_on}, horizon={self.horizon}"
                )
        if not 0.0 <= self.shed_fraction < 1.0:
            raise ParameterError(
                f"shed_fraction must be in [0, 1), got {self.shed_fraction}"
            )
        if not 0.0 <= self.gain < math.inf:
            raise ParameterError(f"gain must be finite and >= 0, got {self.gain}")
        if not self.E_target < math.inf:
            raise ParameterError(f"E_target must be finite or -inf, got {self.E_target}")

    @property
    def floor(self) -> float:
        return self.P0 * (1.0 - self.shed_fraction)


class ScenarioConfig(Record):
    """Full parameterization of one scenario family.

    Carries one policy per case so that single-case runs and three-way
    comparisons share the identical energy/solar/disturbance/integrator
    settings. The disturbance acts multiplicatively on the solar input
    (magnitude in [0, 1]: a cloud event attenuates, never amplifies).
    """

    energy: EnergyParams
    solar: SolarProfile
    policies: Mapping[str, LoadPolicy]
    disturbance: DisturbanceSignal
    integrator: IntegratorConfig
    metrics: MetricsConfig

    def __post_init__(self):
        for case_id in self.policies:
            if case_id not in CASE_IDS:
                raise ConfigurationError(f"unknown case id {case_id!r}")
        d = self.disturbance
        if d.window is not None:
            if not 0.0 <= d.magnitude <= 1.0:
                raise ConfigurationError(
                    f"disturbance magnitude must be in [0, 1], got {d.magnitude}"
                )
            start, end = d.window
            if start < self.integrator.t_start or end > self.integrator.t_end:
                raise ConfigurationError(
                    "disturbance window must lie inside the integration window"
                )
        horizon = self.metrics.horizon
        if horizon is not None and horizon < self.t0:
            raise ConfigurationError(f"horizon {horizon} precedes t0 {self.t0}")
        if self.metrics.baseline_mode == "steady_state":
            tail_length(self.metrics.tail_fraction, self.integrator.n_steps() + 1)
        # the solar phase 2*pi*t/period must stay finite on the whole grid
        t_far = max(abs(self.integrator.t_start), abs(self.integrator.t_end))
        if not math.isfinite(2.0 * math.pi * t_far / self.solar.period):
            raise ConfigurationError(
                f"[solar] period_s = {self.solar.period} is too small: the phase "
                f"2*pi*t/period_s overflows at t = {t_far}"
            )

    @property
    def t0(self) -> float:
        """Where the metrics start: the pulse's onset, else the run's start."""
        window = self.disturbance.window
        return self.integrator.t_start if window is None else window[0]
