"""Fixed-step RK4 integration of disturbance-driven dynamics.

The state is one Python float, stepped without numpy so a step costs a
few microseconds of interpreter time. Everything that depends on time
only (the disturbance and the system's forcing) is sampled with numpy
once per run, and the step loop reads Python floats from memoryviews.
Time reaches a system only through its input: it is described by its
right-hand side f(x, u, mode), where the mode is a discrete companion
state (e.g. a load-shedding flag) that its mode_update hook applies once
per full step, so the RK4 substeps always see a frozen mode. Every hook
but the right-hand side has a neutral default, so every system takes
the one stepping path.

A system may also declare free flight: per mode a constant load L and
an open interval on which f(x, u, mode) == u - L bit for bit. A stretch of
steps that stays inside that interval without a mode change is stepped
in one numpy pass, its states taken with one cumulative sum; the result
equals the scalar loop's bit for bit, because both evaluate the same
floating-point expressions in the same order. The mode update takes the
grid index of the step rather than its time, so one law serves both
paths: the scalar loop calls it with an int and a float, a pass with a
slice of indices and a view of the states, which it must not write.
"""

from __future__ import annotations

import math
import warnings
from types import MappingProxyType
from typing import Any, Callable, Mapping

import numpy as np

from .config import DisturbanceSignal, IntegratorConfig
from .errors import IntegrationDivergedError, ParameterError
from .record import Record
from .trajectory import TimeGrid, Trajectory

# Most steps a free-flight pass covers: bounds its temporary arrays to a
# few hundred kB whatever the run length.
_MAX_SPAN = 4096
# Fewest steps a free-flight pass covers. The first pass may cover the
# most; after a pass that was free throughout the span doubles, and
# after one that stopped short it is twice the steps that pass kept. A
# pass thus computes at most about twice the steps it keeps plus this
# many, which keeps the array work linear in the run length.
_MIN_SPAN = 64
_NO_FLIGHT = (0.0, 0.0, 0.0)  # the free-flight entry of a mode without one


class DynamicalSystem(Record):
    """Right-hand side bundle handed to integrate(); the state is one float.

    rhs(x, u, mode) must be a pure function returning dx/dt as a float;
    u is the forcing value at the substep's time and mode the step's
    mode. forcing(times, d) maps an array of substep times and the
    disturbance sampled there (1 outside a pulse) to the array of u
    values; it must be vectorised and depend on time only, and by default
    u is d itself. integrate() calls it once per run, on the grid times
    followed by the step midpoints, and refuses a result of another
    shape. mode_update(k, x, mode) is called with the grid index k and
    the state there, once at the start of every step (never inside
    substeps) and once with k = n_steps at the end time; by default it
    keeps mode_init. project maps the state to the admissible set after
    every step (state constraints such as storage saturation) and must
    let NaN through so divergence is still reported. output_map(states)
    is called once on the recorded state array and returns the
    observable array. Both are the identity by default. free_flight maps
    each (hashable) mode to (load, lo, hi): for every lo < x < hi,
    rhs(x, u, mode) must equal u - load bit for bit and project(x) must
    be x itself. integrate() then steps such stretches in numpy passes,
    calling mode_update(steps, x, mode) with the slice of grid indices
    and a view of the states there, which it must not write to; so the
    law must accept arrays too (a scalar result means the mode cannot
    change). States and modes equal the scalar loop's, bit for bit. A
    mode without an entry never flies; by default the table is empty.
    A hook passed as None is refused; leave it out for its default.
    """

    rhs: Callable[[float, float, Any], float]
    output_map: Callable[[np.ndarray], np.ndarray] = lambda states: states
    mode_update: Callable[[Any, Any, Any], Any] = lambda _k, _x, mode: mode
    mode_init: Any = None
    project: Callable[[float], float] = lambda x: x
    forcing: Callable[[np.ndarray, np.ndarray], np.ndarray] = lambda _times, d: d
    free_flight: Mapping[Any, tuple[float, float, float]] = MappingProxyType({})

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is None and name != "mode_init":
                raise ParameterError(f"{name} must not be None; a hook left out takes its default")


class IntegrationResult(Record):
    """Recorded state (a 1-tuple), observable, mode track and grid-time input."""

    grid: TimeGrid
    states: tuple[Trajectory, ...]
    observable: Trajectory
    modes: tuple
    inputs: Trajectory


def _flight(states, j, e, mode, free, mode_update, inputs, mid, dt):
    """Free-flight pass in mode over the steps j to e, exclusive.

    From states[j], it writes the state after each step into
    states[j + 1:e + 1], computed as the scalar loop computes it, and
    returns p: the first p steps are free. free is the mode's (load, lo,
    hi) entry; inputs and mid are the run's sampled input.
    """
    load, lo, hi = free
    half, sixth = 0.5 * dt, dt / 6.0
    run = states[j:e + 1]
    # Steps that overflow are not free and go to the scalar loop, so the
    # array arithmetic on them is discarded without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        k1, k2, k4 = inputs[j:e] - load, mid[j:e] - load, inputs[j + 1:e + 1] - load
        run[1:] = sixth * (k1 + 2.0 * (k2 + k2) + k4)
        # add.accumulate adds in order, so each state is x + inc as in the loop
        np.cumsum(run, out=run)
        x = run[:-1]
        sub = (x + half * k1, x + half * k2, x + dt * k2)
        low = np.minimum(np.minimum(x, sub[0]), np.minimum(sub[1], sub[2]))
        high = np.maximum(np.maximum(x, sub[0]), np.maximum(sub[1], sub[2]))
        # NaN fails both comparisons, so a diverging step is never free
        ok = (lo < low) & (high < hi) & (mode_update(slice(j, e), x, mode) == mode)
    p = int(np.argmin(ok))
    return p if not ok[p] else len(ok)


def integrate(
    system: DynamicalSystem,
    x0: float | np.ndarray,
    disturbance: DisturbanceSignal,
    config: IntegratorConfig,
) -> IntegrationResult:
    """Classical RK4 with the input sampled at the substep times.

    x0 is a float or a length-1 array. The disturbance d (1 outside a
    pulse), mapped through system.forcing, is evaluated
    at (t, t+dt/2, t+dt/2, t+dt) and held fixed within each substep; pulse
    edges are not located sub-step, so keep dt small relative to the
    pulse duration. The input is sampled once per run, at each substep
    time exactly once; the midpoints add 8 bytes per step to the memory a
    run holds. Each step that starts strictly inside its mode's
    free-flight interval opens a numpy pass over at most _MAX_SPAN
    following steps; the pass keeps the steps up to the first one that
    leaves its mode's interval (with any substep state), changes the mode
    or is not finite, and that step falls to the scalar loop. The input at
    each grid time is returned too, so it must be finite there.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape not in ((), (1,)):
        raise ParameterError(f"x0 must hold one value, got shape {x0.shape}")
    x = x0.item()
    if not math.isfinite(x):
        raise ParameterError("x0 must be finite")
    if disturbance.window is not None and 0.0 < disturbance.duration < 10 * config.dt:
        warnings.warn(
            f"pulse duration {disturbance.duration} is below 10*dt={10 * config.dt}; "
            "edge errors may dominate",
            stacklevel=2,
        )

    n_steps = config.n_steps()
    grid = config.grid()
    dt = config.dt
    half, sixth = 0.5 * dt, dt / 6.0
    # the input at each grid time, then at each step's midpoint
    times = grid.times()
    times = np.concatenate((times, times[:-1] + half))
    sampled = np.asarray(system.forcing(times, disturbance.sample(times)), dtype=float)
    if sampled.shape != times.shape:
        raise ParameterError(
            f"forcing returned shape {sampled.shape} for times of shape {times.shape}")
    inputs, mid = sampled[:n_steps + 1], sampled[n_steps + 1:]
    u_grid, u_mid = memoryview(inputs), memoryview(mid)  # read as Python floats

    rhs, mode_update, mode = system.rhs, system.mode_update, system.mode_init
    project = system.project
    isfinite = math.isfinite
    states = np.empty(n_steps + 1)

    def store(k: int, x: float) -> float:
        """Project x, check it and record it as the state at grid index k."""
        x = project(x)
        if not isfinite(x):
            t = grid.time_at(k)
            raise IntegrationDivergedError(f"non-finite state at t={t}", time=t)
        states[k] = x
        return x

    x = store(0, x)
    modes = []
    flight = system.free_flight
    flies = bool(flight)  # a system without a table never hashes its mode
    free = flight.get(mode, _NO_FLIGHT) if flies else _NO_FLIGHT  # the mode's entry
    span = _MAX_SPAN
    j = 0  # steps done
    while j < n_steps:
        if free[1] < x < free[2]:
            e = min(j + span, n_steps)
            p = _flight(states, j, e, mode, free, mode_update, inputs, mid, dt)
            if p:
                x = store(j + p, states.item(j + p))
                modes += [mode] * p
            j += p
            if j == e:
                span = min(2 * span, _MAX_SPAN)
                continue
            span = max(2 * p, _MIN_SPAN)
        # one scalar step; the next turn opens a pass if it ends where one may
        mode = mode_update(j, x, mode)
        free = flight.get(mode, _NO_FLIGHT) if flies else _NO_FLIGHT
        modes.append(mode)
        um = u_mid[j]
        k1 = rhs(x, u_grid[j], mode)
        k2 = rhs(x + half * k1, um, mode)
        k3 = rhs(x + half * k2, um, mode)
        k4 = rhs(x + dt * k3, u_grid[j + 1], mode)
        j += 1
        x = store(j, x + sixth * (k1 + 2.0 * (k2 + k3) + k4))

    modes.append(mode_update(n_steps, x, mode))
    return IntegrationResult(
        grid=grid,
        states=(Trajectory(grid, states),),
        observable=Trajectory(grid, system.output_map(states)),
        modes=tuple(modes),
        inputs=Trajectory(grid, inputs),
    )


def linear_decay_system(lam: float) -> DynamicalSystem:
    """One-dimensional dr/dt = -lam*r with identity observable.

    The canonical exponential-recovery test system; the disturbance input
    is ignored. lam must be strictly positive (it is the local stability
    rate of a stable equilibrium).
    """
    if not (lam > 0 and math.isfinite(lam)):
        raise ParameterError(f"decay rate must be > 0, got {lam}")

    def rhs(x: float, _d: float, _mode: None) -> float:
        return -lam * x

    return DynamicalSystem(rhs=rhs)
