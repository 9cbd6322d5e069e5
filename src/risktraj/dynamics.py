"""Fixed-step RK4 integration of disturbance-driven dynamics.

The state is one Python float, stepped without numpy so a step costs a
few microseconds of interpreter time. Everything that depends on time
only (the disturbance and the system's forcing) is sampled with numpy
once per block of steps, so the step loop reads plain floats from lists.
A system is described by its right-hand side f(t, x, u) plus an optional
observable; systems that carry a discrete companion mode (e.g. a
load-shedding flag) declare a mode_update hook, which is applied once
per full step so the RK4 substeps always see a frozen mode.

A system may also declare where its dynamics are free of the state
(FreeFlight): per mode a constant load L and an open interval on which
f(t, x, u) == u - L bit for bit. A stretch of steps that stays inside
that interval without a mode change is stepped in one numpy pass, its
states taken with one cumulative sum; the result equals the scalar
loop's bit for bit, because both evaluate the same floating-point
expressions in the same order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Mapping

import numpy as np

from .errors import ConfigurationError, IntegrationDivergedError, ParameterError
from .trajectory import TimeGrid, Trajectory

# Steps whose substep inputs are sampled at once: bounds the sampled
# arrays and lists to a few hundred kB whatever the run length.
_BLOCK_STEPS = 4096
# Fewest steps a free-flight pass covers. The first pass covers a whole
# block; after a pass that was free throughout the span doubles, and
# after one that stopped short it is twice the steps that pass kept. A
# pass thus computes at most about twice the steps it keeps plus this
# many, which keeps the array work linear in the run length.
_MIN_SPAN = 64
# Most steps one run may take; a sweep may also visit at most this many
# values, since each value runs at least one step per case.
MAX_STEPS = 10_000_000


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
class FreeFlight:
    """Where a system's right-hand side does not depend on the state.

    flight maps each mode to (load, lo, hi): for every lo < x < hi,
    rhs(t, x, u, mode) must equal u - load bit for bit, and project(x)
    must be x itself. modes(steps, x, mode) is the system's mode_update
    over arrays: x holds the states at the grid indices in the slice
    steps, and the result holds the mode each would switch to from mode
    (a scalar where the mode cannot change).
    """

    flight: Mapping[Any, tuple[float, float, float]]
    modes: Callable[[slice, np.ndarray, Any], Any]


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
    free_flight, when set, declares where rhs is u - load (see
    FreeFlight); integrate() then steps such stretches in numpy passes,
    with the same states and modes as the scalar loop, bit for bit.
    """

    rhs: Callable[..., float]
    output_map: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    mode_update: Callable[[float, float, Any], Any] | None = None
    mode_init: Any = None
    project: Callable[[float], float] | None = None
    disturbance_neutral: float = 0.0
    forcing: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    free_flight: FreeFlight | None = None


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classical RK4 integration window of at most MAX_STEPS steps."""

    dt: float
    t_start: float
    t_end: float

    def __post_init__(self):
        span = self.t_end - self.t_start
        if not (self.dt > 0 and self.dt <= span):
            raise ConfigurationError(
                f"need 0 < dt <= t_end - t_start, got dt={self.dt}, span={span}"
            )
        if span / self.dt > MAX_STEPS:
            raise ConfigurationError(
                f"{span / self.dt:.3g} steps exceed the limit {MAX_STEPS}"
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


def _flight(x, mode, free, steps, u0, um, u1, dt):
    """Free-flight pass in mode over the steps whose inputs are u0, um, u1.

    x is the state at the first step; steps is the slice of their grid
    indices. Returns (p, states): the first p steps are free, and
    states[i] is the state after i of them, computed as the scalar loop
    computes it.
    """
    load, lo, hi = free.flight[mode]
    half, sixth = 0.5 * dt, dt / 6.0
    k1, k2, k4 = u0 - load, um - load, u1 - load
    states = np.empty(len(k1) + 1)
    states[0] = x
    states[1:] = sixth * (k1 + 2.0 * (k2 + k2) + k4)
    # add.accumulate adds in order, so each state is x + inc as in the loop
    np.cumsum(states, out=states)
    x = states[:-1]
    sub = (x + half * k1, x + half * k2, x + dt * k2)
    low = np.minimum(np.minimum(x, sub[0]), np.minimum(sub[1], sub[2]))
    high = np.maximum(np.maximum(x, sub[0]), np.maximum(sub[1], sub[2]))
    # NaN fails both comparisons, so a diverging step is never free
    ok = (lo < low) & (high < hi) & (free.modes(steps, x, mode) == mode)
    p = int(np.argmin(ok))
    return (p if not ok[p] else len(ok)), states


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
    When the system declares free flight, each step that starts strictly
    inside a declared interval opens a numpy pass over the following
    steps of its block; the pass keeps the steps up to the first one that
    leaves its mode's interval (with any substep state), changes the mode
    or is not finite, and that step falls to the scalar loop.
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

    def inputs(times: np.ndarray) -> np.ndarray:
        d = disturbance.sample(times, neutral)
        return d if forcing is None else forcing(times, d)

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
    free = system.free_flight
    # A pass opens only inside the hull of the intervals, so a step
    # outside all of them costs one comparison.
    free_lo, free_hi = (math.inf, -math.inf) if free is None else (
        min(lo for _, lo, _ in free.flight.values()),
        max(hi for _, _, hi in free.flight.values()))
    span = _BLOCK_STEPS

    states = np.empty(n_steps + 1)
    states[0] = x
    modes = None if mode_update is None else []

    # t_start + dt*k is grid.time_at(k) bit for bit, on arrays as on floats.
    u1 = inputs(t_start + dt * np.arange(1))[0].item()
    for lo in range(0, n_steps, _BLOCK_STEPS):
        hi = min(lo + _BLOCK_STEPS, n_steps)
        m = hi - lo
        times = t_start + dt * np.arange(lo, hi + 1)
        mids = times[:-1] + half
        sampled = inputs(np.concatenate((mids, times[1:])))
        a_mid = sampled[:m]
        # the input at each of times: a step starts on the one that ended
        # the step before it
        a_edge = np.concatenate(([u1], sampled[m:]))
        out = []  # states of scalar steps not yet written to states
        push = out.append
        steps = None  # the scalar loop's per-step floats, built on first use
        j = 0  # steps of this block done
        while j < m:
            if free_lo < x < free_hi:
                e = min(j + span, m)
                p, run = _flight(x, mode, free, slice(lo + j, lo + e),
                                 a_edge[j:e], a_mid[j:e], a_edge[j + 1:e + 1], dt)
                if p:
                    x = run[p].item()
                    if project is not None:
                        x = project(x)
                    if not isfinite(x):
                        t1 = times[j + p].item()
                        raise IntegrationDivergedError(
                            f"non-finite state at t={t1}", time=t1
                        )
                    first = lo + j + 1  # where the state after step j goes
                    states[first - len(out):first] = out
                    out.clear()
                    states[first:first + p - 1] = run[1:p]
                    states[first + p - 1] = x
                    if modes is not None:
                        modes += [mode] * p
                whole = p == e - j
                j += p
                if whole:
                    span = min(2 * span, _BLOCK_STEPS)
                    continue
                span = max(2 * p, _MIN_SPAN)
            # scalar steps from j until one ends where a pass may open
            if steps is None:
                ts, us = times.tolist(), a_edge.tolist()
                steps = zip(ts, mids.tolist(), ts[1:], us, a_mid.tolist(), us[1:])
                done = 0  # steps drawn from steps
            next(islice(steps, j - done, j - done), None)
            pushed = len(out)
            for t, tm, t1, u0, um, u1 in steps:
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
                if free_lo < x < free_hi:
                    break
            j = done = j + len(out) - pushed
        states[hi + 1 - len(out):hi + 1] = out
        u1 = a_edge[-1].item()

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
