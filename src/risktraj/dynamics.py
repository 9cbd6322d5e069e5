"""Fixed-step RK4 integration of disturbance-driven dynamics.

The state is one Python float, stepped without numpy so a step costs a
few microseconds of interpreter time. Everything that depends on time
only (the disturbance and the system's forcing) is sampled with numpy
once per block of steps, so the step loop reads plain floats from lists.
A system is described by its right-hand side f(t, x, u) plus an optional
observable; systems that carry a discrete companion mode (e.g. a
load-shedding flag) declare a mode_update hook, which is applied once
per full step so the RK4 substeps always see a frozen mode.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ConfigurationError, IntegrationDivergedError, ParameterError
from .trajectory import TimeGrid, Trajectory

# Steps whose substep inputs are sampled at once: bounds the sampled
# arrays and lists to a few hundred kB whatever the run length.
_BLOCK_STEPS = 4096


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

    def sample(self, times: np.ndarray, neutral: float) -> np.ndarray:
        """d at each of the given times, as a float array."""
        if self.kind == "none":
            return np.full(times.shape, neutral, dtype=float)
        window = (times >= self.onset) & (times < self.onset + self.duration)
        return np.where(window, self.magnitude, neutral)


@dataclass(frozen=True)
class DynamicalSystem:
    """Right-hand side bundle handed to integrate(); the state is one float.

    rhs(t, x, u) must be a pure function returning dx/dt as a float; u is
    the forcing value at that substep time. forcing(times, d), when set,
    maps an array of substep times and the disturbance sampled there to
    the array of u values; it must be vectorised and depend on time only.
    Unset, u is the disturbance value d itself. integrate() calls it once
    per block of steps, never inside the step loop. When
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
    forcing: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None


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
    """Classical RK4 with the input sampled at the substep times.

    x0 is a float or a length-1 array. The disturbance d, mapped through
    system.forcing when that is set, is evaluated at (t, t+dt/2, t+dt/2,
    t+dt) and held fixed within each substep; pulse edges are not located
    sub-step, so keep dt small relative to the pulse duration. The input
    is sampled once per block of steps, at each substep time exactly once.
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
    forcing = system.forcing

    def inputs(times: np.ndarray) -> list[float]:
        d = disturbance.sample(times, neutral)
        return (d if forcing is None else forcing(times, d)).tolist()

    mode_update = system.mode_update
    mode = system.mode_init
    if mode_update is None:
        plain = system.rhs

        def rhs(t: float, x: float, u: float, _mode: Any) -> float:
            return plain(t, x, u)
    else:
        rhs = system.rhs
    project = system.project
    if project is not None:
        x = project(x)
    isfinite = math.isfinite

    states = np.empty(n_steps + 1)
    states[0] = x
    modes = None if mode_update is None else []

    # t_start + dt*k is grid.time_at(k) bit for bit, on arrays as on floats.
    u1 = inputs(t_start + dt * np.arange(1))[0]
    for lo in range(0, n_steps, _BLOCK_STEPS):
        hi = min(lo + _BLOCK_STEPS, n_steps)
        times = t_start + dt * np.arange(lo, hi + 1)
        mids = times[:-1] + half
        us = inputs(np.concatenate((mids, times[1:])))
        u_mid, u_end = us[:hi - lo], us[hi - lo:]
        ts = times.tolist()
        out = []
        push = out.append
        # u1 enters holding the input at times[0] and leaves holding the
        # input at times[-1], which opens the next block.
        for t, tm, t1, u0, um, u1 in zip(
            ts, mids.tolist(), ts[1:], [u1] + u_end, u_mid, u_end
        ):
            if mode_update is not None:
                mode = mode_update(t, x, mode)
                modes.append(mode)
            k1 = rhs(t, x, u0, mode)
            k2 = rhs(tm, x + half * k1, um, mode)
            k3 = rhs(tm, x + half * k2, um, mode)
            k4 = rhs(t1, x + dt * k3, u1, mode)
            x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if project is not None:
                x = project(x)
            if not isfinite(x):
                raise IntegrationDivergedError(
                    f"non-finite state at t={t1}", time=t1
                )
            push(x)
        states[lo + 1:hi + 1] = out

    if mode_update is not None:
        modes.append(mode_update(grid.t_end, x, mode))

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
