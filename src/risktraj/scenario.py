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
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Mapping, Union

import numpy as np

from .dynamics import (
    DisturbanceSignal,
    DynamicalSystem,
    IntegratorConfig,
    integrate,
)
from .errors import ConfigurationError, ParameterError
from .io_formats import CASE_IDS, DEFAULT_CONFIG_PATH, read_scenario_config
from .metrics import MetricsConfig, ResilienceReport, assemble_report
from .trajectory import TimeGrid, Trajectory


@dataclass(frozen=True)
class EnergyParams:
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


@dataclass(frozen=True)
class SolarProfile:
    """Periodic clamped-sine input: P_peak * max(0, sin(2*pi*t/period))**shape.

    shape_exponent >= 1 sharpens the daily bump; the special value 0
    selects a constant input at P_peak (degenerate flat profile used by
    balance/equilibrium tests).
    """

    P_peak: float          # W
    period: float          # s
    shape_exponent: float  # dimensionless

    def __post_init__(self):
        if self.P_peak <= 0.0:
            raise ParameterError(f"P_peak must be > 0, got {self.P_peak}")
        if self.period <= 0.0:
            raise ParameterError(f"period must be > 0, got {self.period}")
        if self.shape_exponent != 0.0 and self.shape_exponent < 1.0:
            raise ParameterError(
                f"shape_exponent must be >= 1 (or 0 for flat), got {self.shape_exponent}"
            )


@dataclass(frozen=True)
class RiskMap:
    """Piecewise-linear normalized risk: 1 at E_min, 0 at E_ref."""

    E_ref: float
    E_min: float

    def __post_init__(self):
        if not self.E_min < self.E_ref:
            raise ParameterError(
                f"need E_min < E_ref, got E_min={self.E_min}, E_ref={self.E_ref}"
            )


@dataclass(frozen=True)
class PassivePolicy:
    """Case 1: constant consumption, no stabilisation mechanism."""

    P0: float  # base load (W)

    def __post_init__(self):
        if self.P0 <= 0.0:
            raise ParameterError(f"P0 must be > 0, got {self.P0}")


@dataclass(frozen=True)
class ReactivePolicy:
    """Case 2: hysteresis load shedding once energy has already declined.

    Shedding engages when E drops below E_on and releases when E rises
    above E_off; the separated thresholds prevent chattering under the
    oscillating input.
    """

    P0: float             # base load (W)
    E_on: float           # shed-engage threshold (J)
    E_off: float          # shed-release threshold (J)
    shed_fraction: float  # fraction of P0 dropped while shedding (0 = no-op)

    def __post_init__(self):
        if self.P0 <= 0.0:
            raise ParameterError(f"P0 must be > 0, got {self.P0}")
        if not self.E_on < self.E_off:
            raise ParameterError(
                f"hysteresis band requires E_on < E_off, got "
                f"E_on={self.E_on}, E_off={self.E_off}"
            )
        if not 0.0 <= self.shed_fraction < 1.0:
            raise ParameterError(
                f"shed_fraction must be in [0, 1), got {self.shed_fraction}"
            )


@dataclass(frozen=True)
class AnticipatoryPolicy:
    """Case 3: forecast-based early shedding plus proportional feedback.

    The controller projects the energy level over the horizon assuming the
    undisturbed input profile and base load; it sheds proactively when the
    projection falls below E_target and additionally reduces load in
    proportion to the current shortfall below E_target. Delivered load is
    always within [P0*(1-shed_fraction), P0].
    """

    P0: float             # base load (W)
    horizon: float        # forecast horizon (s)
    E_target: float       # projected-energy target (J)
    shed_fraction: float  # maximum fractional reduction (0 = no-op)
    gain: float           # proportional feedback gain (W per J of shortfall)

    def __post_init__(self):
        if self.P0 <= 0.0:
            raise ParameterError(f"P0 must be > 0, got {self.P0}")
        if self.horizon <= 0.0:
            raise ParameterError(f"horizon must be > 0, got {self.horizon}")
        if not 0.0 <= self.shed_fraction < 1.0:
            raise ParameterError(
                f"shed_fraction must be in [0, 1), got {self.shed_fraction}"
            )
        if not 0.0 <= self.gain < math.inf:
            raise ParameterError(f"gain must be finite and >= 0, got {self.gain}")


LoadPolicy = Union[PassivePolicy, ReactivePolicy, AnticipatoryPolicy]

_POLICY_TYPES = {
    "passive": PassivePolicy,
    "reactive": ReactivePolicy,
    "anticipatory": AnticipatoryPolicy,
}


@dataclass(frozen=True)
class ScenarioConfig:
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
        for case_id, policy in self.policies.items():
            expected = _POLICY_TYPES.get(case_id)
            if expected is None:
                raise ConfigurationError(f"unknown case id {case_id!r}")
            if not isinstance(policy, expected):
                raise ConfigurationError(
                    f"policy for case {case_id!r} is {type(policy).__name__}, "
                    f"expected {expected.__name__}"
                )
        d = self.disturbance
        if d.kind == "pulse":
            if not 0.0 <= d.magnitude <= 1.0:
                raise ConfigurationError(
                    f"disturbance magnitude must be in [0, 1], got {d.magnitude}"
                )
            if d.onset < self.integrator.t_start or (
                d.onset + d.duration > self.integrator.t_end
            ):
                raise ConfigurationError(
                    "disturbance window must lie inside the integration window"
                )
        # the solar phase 2*pi*t/period must stay finite on the whole grid
        t_far = max(abs(self.integrator.t_start), abs(self.integrator.t_end))
        if not math.isfinite(2.0 * math.pi * t_far / self.solar.period):
            raise ConfigurationError(
                f"[solar] period_s = {self.solar.period} is too small: the phase "
                f"2*pi*t/period_s overflows at t = {t_far}"
            )

    def risk_map(self) -> RiskMap:
        return RiskMap(E_ref=self.energy.E_ref, E_min=self.energy.E_min)


def _daylight(profile: SolarProfile, times: np.ndarray) -> np.ndarray:
    """max(0, sin(2*pi*t/period)) at each time."""
    return np.maximum(np.sin(2.0 * np.pi * times / profile.period), 0.0)


def _clear_sky_power(profile: SolarProfile, times: np.ndarray) -> np.ndarray:
    """Undisturbed input power at each time, raised with numpy's power.

    This is the recorded P_in before the disturbance and the forecast's
    integrand; see input_power for the input the integrator steps.
    """
    if profile.shape_exponent == 0.0:
        return np.full(len(times), profile.P_peak)
    return profile.P_peak * _daylight(profile, times) ** profile.shape_exponent


def input_power(
    profile: SolarProfile, times: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Disturbed input P_in(t)*d(t) at each time, as the integrator steps it.

    The power is taken per element with Python's float pow (libm), not
    numpy's: numpy computes s**2.0 as s*s, which differs from pow in the
    last bit on some samples.
    """
    if profile.shape_exponent == 0.0:
        return profile.P_peak * d
    s = _daylight(profile, times)
    lit = s > 0.0
    power = np.zeros(len(times))
    power[lit] = list(map(pow, s[lit].tolist(), repeat(profile.shape_exponent)))
    return profile.P_peak * power * d


def risk_of_energy(E, risk_map: RiskMap):
    """Normalized risk for a stored-energy value or array, clamped to [0, 1]."""
    r = (risk_map.E_ref - E) / (risk_map.E_ref - risk_map.E_min)
    return np.clip(r, 0.0, 1.0)


class SolarEnergyTable:
    """Cumulative energy of the undisturbed profile, for forecast queries.

    One period of the profile is integrated once on a fine grid; arbitrary
    intervals are then evaluated by periodic decomposition plus linear
    interpolation. Times may be floats or arrays.
    """

    _SAMPLES_PER_PERIOD = 4096

    def __init__(self, profile: SolarProfile):
        self.profile = profile
        n = self._SAMPLES_PER_PERIOD
        xs = np.linspace(0.0, profile.period, n + 1)
        p = _clear_sky_power(profile, xs)
        dx = profile.period / n
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * dx)))
        self._xs = xs
        self._cum = cum
        self._per_period = float(cum[-1])

    def cumulative(self, t):
        """Integral of the profile from 0 to t."""
        periods, frac = np.divmod(t, self.profile.period)
        return periods * self._per_period + np.interp(frac, self._xs, self._cum)

    def between(self, t1, t2):
        return self.cumulative(t2) - self.cumulative(t1)


def _shed_law(policy: LoadPolicy, config: ScenarioConfig):
    """Shedding-flag update (k, E, prev) -> bool of one policy.

    k is a grid index and E the level there, or a slice of indices and
    the array of levels at them (free flight); each policy writes its
    rule once, for floats and arrays alike.

    The anticipatory policy forecasts the energy level from the
    undisturbed input energy over [t, t + horizon]. The flag is only
    updated at grid times, so that inflow is computed once on the grid
    with one vectorised table lookup and read at the grid index.
    """
    if isinstance(policy, PassivePolicy):
        def never(_k, _E, _prev):
            return False

        return never
    if isinstance(policy, ReactivePolicy):
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
        inflow = SolarEnergyTable(config.solar).between(times, times + policy.horizon)
    # inf - inf would make the forecast NaN, which never sheds
    if not (math.isfinite(spent) and np.isfinite(inflow).all()):
        raise ConfigurationError(
            "the energy forecast over [policy.anticipatory] horizon_s = "
            f"{policy.horizon} is not finite; lower it, P0_W or [solar] P_peak_W"
        )

    def forecast_short(k, E, _prev):
        return E + inflow[k] - spent < E_target

    return forecast_short


def _load_floor(policy: LoadPolicy) -> float:
    """Load while shedding; a passive policy never sheds."""
    if isinstance(policy, PassivePolicy):
        return policy.P0
    return policy.P0 * (1.0 - policy.shed_fraction)


def _rhs_law(policy: LoadPolicy, E_max: float) -> Callable[..., float]:
    """RK4 right-hand side (E, u, shed) -> dE/dt for one policy.

    u is the sampled input P_in*d; the load law is inlined, so a substep
    costs one call. Net inflow is zeroed at the saturated bounds.
    """
    P0, floor = policy.P0, _load_floor(policy)
    if not isinstance(policy, AnticipatoryPolicy):
        def rhs(E: float, u: float, shed: bool) -> float:
            net = u - (floor if shed else P0)
            if (E >= E_max and net > 0.0) or (E <= 0.0 and net < 0.0):
                return 0.0
            return net

        return rhs
    gain, E_target = policy.gain, policy.E_target

    def rhs_anticipatory(E: float, u: float, shed: bool) -> float:
        # min/max spelled as comparisons: same values, half the call cost
        short = E_target - E
        load = (floor if shed else P0) - gain * (short if short > 0.0 else 0.0)
        load = floor if floor > load else load
        net = u - (P0 if P0 < load else load)
        if (E >= E_max and net > 0.0) or (E <= 0.0 and net < 0.0):
            return 0.0
        return net

    return rhs_anticipatory


def _load_series(policy: LoadPolicy, E: np.ndarray, shed: np.ndarray) -> np.ndarray:
    """_rhs_law's load over recorded arrays; the same values, sample by sample."""
    P0, floor = policy.P0, _load_floor(policy)
    base = np.where(shed, floor, P0)
    if not isinstance(policy, AnticipatoryPolicy):
        return base
    # a huge gain overflows to -inf, which clips to the floor as in the law
    with np.errstate(over="ignore"):
        raw = base - policy.gain * np.maximum(0.0, policy.E_target - E)
    return np.clip(raw, floor, P0)


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
    if not isinstance(policy, _POLICY_TYPES[case_id]):
        raise ConfigurationError(
            f"policy for case {case_id!r} is {type(policy).__name__}"
        )

    solar = config.solar
    E_max = config.energy.E_max
    rmap = config.risk_map()
    # Inside (lo, E_max) nothing clamps and, for the anticipatory policy,
    # E > E_target zeroes the proportional term, so dE/dt = u - load.
    lo = max(0.0, policy.E_target) if isinstance(policy, AnticipatoryPolicy) else 0.0
    flight = {
        shed: (load, lo, E_max)
        for shed, load in ((False, policy.P0), (True, _load_floor(policy)))
    }

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
        disturbance_neutral=1.0,
        forcing=lambda times, d: input_power(solar, times, d),
        free_flight=flight,
    )


@dataclass(frozen=True)
class CaseResult:
    """Recorded signals and the resilience report for one case run."""

    case_id: str
    energy: Trajectory
    p_in: Trajectory
    p_load: Trajectory
    risk: Trajectory
    shed: tuple
    report: ResilienceReport


@dataclass(frozen=True)
class ComparisonResult:
    """Three case results plus the qualitative ordering checks."""

    cases: Mapping[str, CaseResult]
    r0_ordering_holds: bool       # r0 passive >= reactive >= anticipatory
    impact_ordering_holds: bool   # impact passive > reactive > anticipatory
    config: ScenarioConfig


def run_case(case_id: str, config: ScenarioConfig) -> CaseResult:
    """Integrate one case and extract its resilience report.

    Records E, P_in (disturbed), P_load and r on the integration grid;
    the report is computed on the risk trajectory with t0 at the
    disturbance onset.
    """
    system = build_case(case_id, config)
    result = integrate(
        system, config.energy.E_init, config.disturbance, config.integrator
    )
    grid = result.grid
    times = grid.times()
    energy = result.states[0]
    risk = result.observable

    d = config.disturbance
    p_in = Trajectory(
        grid,
        _clear_sky_power(config.solar, times)
        * d.sample(times, system.disturbance_neutral),
    )

    shed = np.array(result.modes, dtype=bool)
    p_load = Trajectory(
        grid, _load_series(config.policies[case_id], energy.values, shed)
    )

    t0 = d.onset if d.kind == "pulse" else config.integrator.t_start
    report = assemble_report(risk, t0, config.metrics)
    return CaseResult(
        case_id=case_id,
        energy=energy,
        p_in=p_in,
        p_load=p_load,
        risk=risk,
        shed=result.modes,
        report=report,
    )


def _case_slice(case_id: str, config: ScenarioConfig) -> str:
    """What a run of case_id reads of config: all but the other policies.

    Compared by repr, which tells -0.0 from 0.0 where == does not.
    """
    return repr((config.energy, config.solar, config.disturbance,
                 config.integrator, config.metrics, config.policies.get(case_id)))


def compare_cases(
    config: ScenarioConfig, reuse: ComparisonResult | None = None
) -> ComparisonResult:
    """Run all three cases on shared settings and check the orderings.

    A case whose slice of config is the same in the earlier comparison
    reuse is taken from it instead of being run again.
    """
    cases = {
        case_id: reuse.cases[case_id]
        if reuse is not None
        and _case_slice(case_id, reuse.config) == _case_slice(case_id, config)
        else run_case(case_id, config)
        for case_id in CASE_IDS
    }
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
        config=config,
    )


def default_config() -> ScenarioConfig:
    """Shipped default parameterization, read from DEFAULT_CONFIG_PATH.

    Tuned so that, under the default cloud event, the three cases exhibit
    the expected peak and impact orderings, no run saturates the storage,
    and every case recovers to the calm operating cycle well before the
    steady-state tail window.
    """
    return read_scenario_config(DEFAULT_CONFIG_PATH)
