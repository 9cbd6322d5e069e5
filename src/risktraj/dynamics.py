"""Fixed-step RK4 integration of disturbance-driven dynamics.

The state is one Python float, stepped without numpy so a step costs a
few microseconds of interpreter time; samples are written into
preallocated arrays. A system is described by its right-hand side
f(t, x, d) plus an optional observable; systems that carry a discrete
companion mode (e.g. a load-shedding flag) declare a mode_update hook,
which is applied once per full step so the RK4 substeps always see a
frozen mode.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ConfigurationError, IntegrationDivergedError, ParameterError
from .trajectory import TimeGrid, Trajectory


@dataclass(frozen=True)
class DisturbanceSignal:
    """Exogenous disturbance d(t): a rectangular pulse or nothing.

    The pulse is active on the half-open window [onset, onset + duration).
    Outside the window (and always for kind="none") evaluation returns the
    neutral value declared by the consuming system: 0 for additive
    coupling, 1 for multiplicative coupling.
    """

    kind: str = "none"  # "none" | "pulse"
    onset: float = 0.0
    duration: float = 0.0
    magnitude: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "pulse"):
            raise ParameterError(f"unknown disturbance kind {self.kind!r}")
        if self.kind == "pulse" and self.duration < 0:
            raise ParameterError(f"pulse duration must be >= 0, got {self.duration}")


def evaluate_disturbance(signal: DisturbanceSignal, t: float, neutral: float) -> float:
    if signal.kind == "none":
        return neutral
    if signal.onset <= t < signal.onset + signal.duration:
        return signal.magnitude
    return neutral


@dataclass(frozen=True)
class DynamicalSystem:
    """Right-hand side bundle handed to integrate(); the state is one float.

    rhs(t, x, d) must be a pure function returning dx/dt as a float. When
    mode_update is set, rhs receives the current mode as a fourth argument
    and mode_update(t, x, mode) is called once at the start of every step
    (never inside substeps) and once at the end time. project, when set,
    maps the state to the admissible set after every step (state
    constraints such as storage saturation) and must let NaN through so
    divergence is still reported. output_map(times, states), when set, is
    called once on the recorded arrays and returns the observable array.
    """

    rhs: Callable[..., float]
    output_map: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    mode_update: Callable[[float, float, Any], Any] | None = None
    mode_init: Any = None
    project: Callable[[float], float] | None = None
    disturbance_neutral: float = 0.0


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classical RK4 integration window."""

    dt: float
    t_start: float
    t_end: float
    max_steps: int = 10_000_000

    def __post_init__(self):
        span = self.t_end - self.t_start
        if not (self.dt > 0 and self.dt <= span):
            raise ConfigurationError(
                f"need 0 < dt <= t_end - t_start, got dt={self.dt}, span={span}"
            )
        if span / self.dt > self.max_steps:
            raise ConfigurationError(
                f"{span / self.dt:.3g} steps exceed the configured limit {self.max_steps}"
            )

    def n_steps(self) -> int:
        ratio = (self.t_end - self.t_start) / self.dt
        n = round(ratio)
        if abs(ratio - n) > 1e-6:
            raise ConfigurationError(
                f"(t_end - t_start)/dt = {ratio} is not a whole number of steps"
            )
        return n


@dataclass(frozen=True)
class IntegrationResult:
    """Recorded state (a 1-tuple), optional observable, optional mode track."""

    grid: TimeGrid
    states: tuple[Trajectory, ...]
    observable: Trajectory | None
    modes: tuple | None


def integrate(
    system: DynamicalSystem,
    x0: float | np.ndarray,
    disturbance: DisturbanceSignal,
    config: IntegratorConfig,
) -> IntegrationResult:
    """Classical RK4 with the disturbance sampled at the substep times.

    x0 is a float or a length-1 array. The disturbance is evaluated at
    (t, t+dt/2, t+dt/2, t+dt) and held fixed within each substep; pulse
    edges are not located sub-step, so keep dt small relative to the
    pulse duration.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape not in ((), (1,)):
        raise ParameterError(f"x0 must hold one value, got shape {x0.shape}")
    x = x0.item()
    if not math.isfinite(x):
        raise ParameterError("x0 must be finite")
    if (
        disturbance.kind == "pulse"
        and disturbance.duration < 10 * config.dt
    ):
        warnings.warn(
            f"pulse duration {disturbance.duration} is below 10*dt={10 * config.dt}; "
            "edge errors may dominate",
            stacklevel=2,
        )

    n_steps = config.n_steps()
    grid = TimeGrid(config.t_start, config.dt, n_steps + 1)
    t_start = config.t_start
    dt = config.dt
    half = 0.5 * dt
    sixth = dt / 6.0

    neutral = system.disturbance_neutral
    if disturbance.kind == "none":
        def dist(_t: float) -> float:
            return neutral
    else:
        onset = disturbance.onset
        offset = disturbance.onset + disturbance.duration
        magnitude = disturbance.magnitude

        def dist(t: float) -> float:
            return magnitude if onset <= t < offset else neutral

    mode_update = system.mode_update
    mode = system.mode_init
    if mode_update is None:
        plain = system.rhs

        def rhs(t: float, x: float, d: float, _mode: Any) -> float:
            return plain(t, x, d)
    else:
        rhs = system.rhs
    project = system.project
    if project is not None:
        x = project(x)

    states = np.empty(n_steps + 1)
    states[0] = x
    modes = None if mode_update is None else np.empty(n_steps + 1, dtype=object)

    t1 = grid.time_at(0)
    for k in range(n_steps):
        t = t1
        tm = t + half
        t1 = t_start + (k + 1) * dt  # grid.time_at(k + 1), inlined
        if mode_update is not None:
            mode = mode_update(t, x, mode)
            modes[k] = mode
        dm = dist(tm)
        k1 = rhs(t, x, dist(t), mode)
        k2 = rhs(tm, x + half * k1, dm, mode)
        k3 = rhs(tm, x + half * k2, dm, mode)
        k4 = rhs(t1, x + dt * k3, dist(t1), mode)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if project is not None:
            x = project(x)
        if not math.isfinite(x):
            raise IntegrationDivergedError(
                f"non-finite state at t={t1}", time=t1
            )
        states[k + 1] = x

    if mode_update is not None:
        modes[n_steps] = mode_update(grid.t_end, x, mode)

    observable = None
    if system.output_map is not None:
        observable = Trajectory(grid, system.output_map(grid.times(), states))

    return IntegrationResult(
        grid=grid,
        states=(Trajectory(grid, states),),
        observable=observable,
        modes=None if modes is None else tuple(modes),
    )


def linear_decay_system(lam: float) -> DynamicalSystem:
    """One-dimensional dr/dt = -lam*r with identity observable.

    The canonical exponential-recovery test system; the disturbance input
    is ignored. lam must be strictly positive (it is the local stability
    rate of a stable equilibrium).
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise ParameterError(f"decay rate must be > 0, got {lam}")

    def rhs(_t: float, x: float, _d: float) -> float:
        return -lam * x

    return DynamicalSystem(rhs=rhs, output_map=lambda _t, x: x)
