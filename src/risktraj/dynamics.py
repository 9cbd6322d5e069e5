"""Fixed-step RK4 integration of disturbance-driven dynamics.

The state is one Python float, stepped without numpy so a step costs a
few microseconds of interpreter time. Everything that depends on time
only (the disturbance and the system's forcing) is sampled with numpy
once per block of steps, so the step loop reads plain floats from lists.
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
slice of indices and the array of states.
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

# Steps whose substep inputs are sampled at once: bounds the sampled
# arrays and lists to a few hundred kB whatever the run length.
_BLOCK_STEPS = 4096
# Fewest steps a free-flight pass covers. The first pass covers a whole
# block; after a pass that was free throughout the span doubles, and
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
    u is d itself. integrate() calls it once per block of steps, never
    inside the step loop. mode_update(k, x, mode) is called with the grid
    index k and the state there, once at the start of every step (never
    inside substeps) and once with k = n_steps at the end time; by
    default it keeps mode_init. project maps the state to the admissible
    set after every step (state constraints such as storage saturation)
    and must let NaN through so divergence is still reported.
    output_map(states) is called once on the recorded state array and
    returns the observable array. Both are the identity by default.
    free_flight maps each (hashable) mode to (load, lo, hi): for every
    lo < x < hi, rhs(x, u, mode) must equal u - load bit for bit and
    project(x) must be x itself. integrate() then steps such stretches in
    numpy passes, calling mode_update(steps, x, mode) with the slice of
    grid indices and the array of states there, so the law must accept
    arrays too (a scalar result means the mode cannot change). States and
    modes equal the scalar loop's, bit for bit. A mode without an entry
    never flies; by default the table is empty.
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
    """Recorded state (a 1-tuple), the observable and the mode track."""

    grid: TimeGrid
    states: tuple[Trajectory, ...]
    observable: Trajectory
    modes: tuple


def _flight(x, mode, free, mode_update, steps, u0, um, u1, dt):
    """Free-flight pass in mode over the steps whose inputs are u0, um, u1.

    x is the state at the first step; steps is the slice of their grid
    indices. Returns (p, states): the first p steps are free, and
    states[i] is the state after i of them, computed as the scalar loop
    computes it. free is the mode's (load, lo, hi) entry.
    """
    load, lo, hi = free
    half, sixth = 0.5 * dt, dt / 6.0
    # Steps that overflow are not free and go to the scalar loop, so the
    # array arithmetic on them is discarded without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
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
        ok = (lo < low) & (high < hi) & (mode_update(steps, x, mode) == mode)
    p = int(np.argmin(ok))
    return (p if not ok[p] else len(ok)), states


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
    pulse duration. The input is sampled once per block of steps, at each
    substep time exactly once. Each step that starts strictly inside its
    mode's free-flight interval opens a numpy pass over the following
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
    if disturbance.window is not None and disturbance.duration < 10 * config.dt:
        warnings.warn(
            f"pulse duration {disturbance.duration} is below 10*dt={10 * config.dt}; "
            "edge errors may dominate",
            stacklevel=2,
        )

    n_steps = config.n_steps()
    grid = TimeGrid(config.t_start, config.dt, n_steps + 1)
    t_start, dt = config.t_start, config.dt
    half, sixth = 0.5 * dt, dt / 6.0

    def inputs(times: np.ndarray) -> np.ndarray:
        return system.forcing(times, disturbance.sample(times))

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
    span = _BLOCK_STEPS

    # t_start + dt*k is grid.time_at(k) bit for bit, on arrays as on floats.
    u1 = inputs(t_start + dt * np.arange(1))[0].item()
    for lo in range(0, n_steps, _BLOCK_STEPS):
        m = min(_BLOCK_STEPS, n_steps - lo)
        times = t_start + dt * np.arange(lo, lo + m + 1)
        sampled = inputs(np.concatenate((times[:-1] + half, times[1:])))
        # the input at each grid time of the block (a step starts on the
        # one that ended the step before it) and at each step's midpoint
        edge = np.concatenate(([u1], sampled[m:]))
        mid = sampled[:m]
        a_edge, a_mid = edge.tolist(), mid.tolist()
        j = 0  # steps of this block done
        while j < m:
            if free[1] < x < free[2]:
                e = min(j + span, m)
                k = lo + j
                p, run = _flight(x, mode, free, mode_update, slice(k, lo + e),
                                 edge[j:e], mid[j:e], edge[j + 1:e + 1], dt)
                if p:
                    states[k + 1:k + p] = run[1:p]
                    x = store(k + p, run[p].item())
                    modes += [mode] * p
                j += p
                if j == e:
                    span = min(2 * span, _BLOCK_STEPS)
                    continue
                span = max(2 * p, _MIN_SPAN)
            # one scalar step; the next turn opens a pass if it ends where one may
            mode = mode_update(lo + j, x, mode)
            free = flight.get(mode, _NO_FLIGHT) if flies else _NO_FLIGHT
            modes.append(mode)
            um = a_mid[j]
            k1 = rhs(x, a_edge[j], mode)
            k2 = rhs(x + half * k1, um, mode)
            k3 = rhs(x + half * k2, um, mode)
            k4 = rhs(x + dt * k3, a_edge[j + 1], mode)
            x = store(lo + j + 1, x + sixth * (k1 + 2.0 * (k2 + k3) + k4))
            j += 1
        u1 = a_edge[-1]

    modes.append(mode_update(n_steps, x, mode))
    return IntegrationResult(
        grid=grid,
        states=(Trajectory(grid, states),),
        observable=Trajectory(grid, system.output_map(states)),
        modes=tuple(modes),
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
