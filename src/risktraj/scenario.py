"""Energy-constrained disturbance-response scenario.

A storage with state E(t) is fed by a periodic solar-like input and
drained by a controllable load; dE/dt = P_in(t)*d(t) - P_load. An input
pulse d(t) < 1 models a cloud event. Risk is a normalized, monotonically
decreasing map of the energy level. Three structural configurations of
the load policy are compared: passive (constant load), reactive
(hysteresis load shedding on low energy) and anticipatory (forecast-based
shedding plus proportional feedback).
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

from .config import LoadPolicy, RiskMap, ScenarioConfig, SolarProfile
from .dynamics import DynamicalSystem, integrate
from .errors import ConfigurationError
from .io_formats import CASE_IDS, DEFAULT_CONFIG_PATH, read_scenario_config
from .metrics import ResilienceReport, assemble_report
from .record import Record
from .trajectory import TimeGrid, Trajectory


def input_power(
    profile: SolarProfile, times: np.ndarray, d: np.ndarray | float
) -> np.ndarray:
    """Disturbed input P_in(t)*d(t) at each time: the one input law.

    The integrator steps it, the P_in column records it and the forecast
    integrates it with d = 1. The power is numpy's: s**2 is s*s, other
    shapes take its vectorised pow, and s**0 is exactly 1.
    """
    s = np.maximum(np.sin(2.0 * np.pi * times / profile.period), 0.0)
    return profile.P_peak * s ** profile.shape_exponent * d


@np.errstate(over="ignore")  # a subnormal ramp width overflows; the clip holds it
def risk_of_energy(E, risk_map: RiskMap):
    """Normalized risk for a stored-energy value or array, clamped to [0, 1]."""
    r = (risk_map.E_ref - E) / (risk_map.E_ref - risk_map.E_min)
    return np.clip(r, 0.0, 1.0)


def _inflow(profile: SolarProfile, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Energy of the undisturbed profile over [t1, t2], elementwise.

    One period is integrated once by trapezoids on 4096 panels; each end
    is then read by periodic decomposition plus linear interpolation.
    """
    n = 4096
    xs = np.linspace(0.0, profile.period, n + 1)
    p = input_power(profile, xs, 1.0)
    dx = profile.period / n
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * dx)))

    def cumulative(t):
        periods, frac = np.divmod(t, profile.period)
        return periods * float(cum[-1]) + np.interp(frac, xs, cum)

    return cumulative(t2) - cumulative(t1)


def _shed_law(policy: LoadPolicy, config: ScenarioConfig):
    """Shedding-flag update (k, E, prev) -> bool of one policy.

    k is a grid index and E the level there, or a slice of indices and
    the array of levels at them (free flight); each rule serves both.
    The forecast adds the undisturbed input energy over [t, t + horizon],
    looked up once on the grid and read at k.
    """
    if policy.horizon is None:
        E_on, E_off = policy.E_on, policy.E_off

        def hysteresis(_k, E, prev):
            # True below E_on, False above E_off, prev in between
            return (E < E_on) | (prev & (E <= E_off))

        return hysteresis
    spent = policy.P0 * policy.horizon
    E_target = policy.E_target
    integ = config.integrator
    times = TimeGrid(integ.t_start, integ.dt, integ.n_steps() + 1).times()
    with np.errstate(over="ignore", invalid="ignore"):
        inflow = _inflow(config.solar, times, times + policy.horizon)
    # inf - inf would make the forecast NaN, which never sheds
    if not (math.isfinite(spent) and np.isfinite(inflow).all()):
        raise ConfigurationError(
            "the energy forecast over [policy.anticipatory] horizon_s = "
            f"{policy.horizon} is not finite; lower it, P0_W or [solar] P_peak_W"
        )

    def forecast_short(k, E, _prev):
        return E + inflow[k] - spent < E_target

    return forecast_short


def _rhs_law(policy: LoadPolicy, E_max: float) -> Callable[[float, float, bool], float]:
    """RK4 right-hand side (E, u, shed) -> dE/dt of one policy, u being the
    sampled input P_in*d. Net inflow is zeroed at the saturated bounds."""
    P0, floor, gain, E_target = policy.P0, policy.floor, policy.gain, policy.E_target

    def rhs(E: float, u: float, shed: bool) -> float:
        # min/max spelled as comparisons: same values, half the call cost
        short = E_target - E
        load = (floor if shed else P0) - gain * (short if short > 0.0 else 0.0)
        load = floor if floor > load else load
        net = u - (P0 if P0 < load else load)
        if (E >= E_max and net > 0.0) or (E <= 0.0 and net < 0.0):
            return 0.0
        return net

    return rhs


def _load_series(policy: LoadPolicy, E: np.ndarray, shed: np.ndarray) -> np.ndarray:
    """_rhs_law's load over recorded arrays; the same values, sample by sample."""
    base = np.where(shed, policy.floor, policy.P0)
    # a huge gain overflows to -inf, which clips to the floor as in the law
    with np.errstate(over="ignore"):
        raw = base - policy.gain * np.maximum(0.0, policy.E_target - E)
    return np.clip(raw, policy.floor, policy.P0)


def build_case(case_id: str, config: ScenarioConfig) -> DynamicalSystem:
    """One-dimensional energy system for the requested case.

    dE/dt = P_in(t)*d(t) - P_load, with the state clamped to [0, E_max]
    (net inflow is zeroed at the saturated bounds) and risk as the
    observable. The shedding flag evolves as a discrete companion state
    updated once per integration step. Each shedding state declares free
    flight: its load and the open level interval on which the right-hand
    side is the input minus that load.
    """
    if case_id not in CASE_IDS:
        raise ConfigurationError(f"unknown case id {case_id!r}")
    policy = config.policies.get(case_id)
    if policy is None:
        raise ConfigurationError(f"config carries no policy for case {case_id!r}")

    solar = config.solar
    E_max = config.energy.E_max
    rmap = RiskMap(E_ref=config.energy.E_ref, E_min=config.energy.E_min)
    # Inside (0, E_max) nothing clamps, so dE/dt = u - load: shedding, floor less
    # a term >= 0 clips to floor; else the term is 0 above E_target or at gain 0.
    lo = 0.0 if policy.gain == 0.0 else max(0.0, policy.E_target)
    flight = {False: (policy.P0, lo, E_max), True: (policy.floor, 0.0, E_max)}

    def project(E):
        # E is a float or a length-1 array (clipped elementwise); NaN
        # passes through to the divergence check.
        if 0.0 <= E <= E_max:
            return E
        if isinstance(E, np.ndarray):
            return np.clip(E, 0.0, E_max)
        return 0.0 if E < 0.0 else E_max if E > E_max else E

    return DynamicalSystem(
        rhs=_rhs_law(policy, E_max),
        output_map=lambda E: risk_of_energy(E, rmap),
        mode_update=_shed_law(policy, config),
        mode_init=False,
        project=project,
        forcing=lambda times, d: input_power(solar, times, d),
        free_flight=flight,
    )


class CaseResult(Record):
    """Recorded signals and the resilience report for one case run."""

    case_id: str
    energy: Trajectory
    p_in: Trajectory
    p_load: Trajectory
    risk: Trajectory
    shed: tuple
    report: ResilienceReport


class ComparisonResult(Record):
    """Three case results plus the qualitative ordering checks."""

    cases: Mapping[str, CaseResult]
    r0_ordering_holds: bool       # r0 passive >= reactive >= anticipatory
    impact_ordering_holds: bool   # impact passive > reactive > anticipatory


def run_case(case_id: str, config: ScenarioConfig) -> CaseResult:
    """Integrate one case and extract its resilience report.

    Records E, P_in (the disturbed input the integrator stepped), P_load
    and r on the integration grid; the report is computed on the risk
    trajectory with t0 at the disturbance onset.
    """
    system = build_case(case_id, config)
    result = integrate(
        system, config.energy.E_init, config.disturbance, config.integrator
    )
    grid = result.grid
    times = grid.times()
    energy = result.states[0]
    risk = result.observable

    p_in = Trajectory(grid, system.forcing(times, config.disturbance.sample(times)))

    shed = np.array(result.modes, dtype=bool)
    p_load = Trajectory(grid, _load_series(config.policies[case_id], energy.values, shed))

    report = assemble_report(risk, config.t0, config.metrics)
    return CaseResult(
        case_id=case_id,
        energy=energy,
        p_in=p_in,
        p_load=p_load,
        risk=risk,
        shed=result.modes,
        report=report,
    )


def compare_cases(config: ScenarioConfig) -> ComparisonResult:
    """Run all three cases on shared settings and check the orderings."""
    cases = {case_id: run_case(case_id, config) for case_id in CASE_IDS}
    r = {cid: cases[cid].report for cid in CASE_IDS}
    r0_ok = (
        r["passive"].r0 >= r["reactive"].r0 >= r["anticipatory"].r0
    )
    impact_ok = (
        r["passive"].impact_numeric
        > r["reactive"].impact_numeric
        > r["anticipatory"].impact_numeric
    )
    return ComparisonResult(
        cases=cases, r0_ordering_holds=r0_ok, impact_ordering_holds=impact_ok,
    )


def default_config() -> ScenarioConfig:
    """Shipped default parameterization, read from DEFAULT_CONFIG_PATH.

    Tuned so that, under the default cloud event, the three cases exhibit
    the expected peak and impact orderings, no run saturates the storage,
    and every case recovers to the calm operating cycle well before the
    steady-state tail window.
    """
    return read_scenario_config(DEFAULT_CONFIG_PATH)
