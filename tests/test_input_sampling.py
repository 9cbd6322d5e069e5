"""The run-sampled input against the per-step loop it replaced.

`integrate` samples the disturbance and the system's forcing once per
run, and the scenario's right-hand side reads the sampled input. The
reference below is a self-contained copy of the loop that evaluated the
input inside every substep, with the scenario laws it stepped (scalar
`math.sin`, a closure per input); the two must agree bit for bit, on
runs shorter and longer than a free-flight pass may be. The reference
raises to the shape with numpy's power on a one-element array, as the
scenario does on the whole run's times: numpy computes s**2 as s*s, and
its pow on one element gives the same bits as on many.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risktraj.config import (
    DisturbanceSignal,
    EnergyParams,
    IntegratorConfig,
    LoadPolicy,
    ScenarioConfig,
    SolarProfile,
)
from risktraj.dynamics import DynamicalSystem, integrate
from risktraj.errors import IntegrationDivergedError
from risktraj.metrics import MetricsConfig
from risktraj.record import replace
from risktraj.scenario import CASE_IDS, build_case, default_config, run_case

# Step counts on both sides of the 4,096-step cap on a free-flight pass.
STEP_COUNTS = (4095, 4096, 4097, 8193)


def reference_integrate(rhs, x0, disturbance, t_start, dt, n_steps,
                        mode_update=None, mode_init=None, project=None):
    """RK4 with the disturbance evaluated at every substep; (states, modes)."""
    half = 0.5 * dt
    sixth = dt / 6.0
    if disturbance.kind == "none":
        def dist(_t):
            return 1.0
    else:
        onset = disturbance.onset
        offset = disturbance.onset + disturbance.duration
        magnitude = disturbance.magnitude

        def dist(t):
            return magnitude if onset <= t < offset else 1.0

    mode = mode_init
    x = x0 if project is None else project(x0)
    states, modes = [x], []
    t1 = t_start + 0 * dt
    for k in range(n_steps):
        t = t1
        tm = t + half
        t1 = t_start + (k + 1) * dt
        if mode_update is not None:
            mode = mode_update(t, x, mode)
            modes.append(mode)
        dm = dist(tm)
        k1 = rhs(t, x, dist(t), mode)
        k2 = rhs(tm, x + half * k1, dm, mode)
        k3 = rhs(tm, x + half * k2, dm, mode)
        k4 = rhs(t1, x + dt * k3, dist(t1), mode)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if project is not None:
            x = project(x)
        if not math.isfinite(x):
            raise IntegrationDivergedError(f"non-finite state at t={t1}", time=t1)
        states.append(x)
    if mode_update is not None:
        modes.append(mode_update(t_start + n_steps * dt, x, mode))
        return states, tuple(modes)
    return states, None


def reference_case(case_id, config):
    """(rhs, mode_update, project) of a case with per-substep input laws."""
    solar, policy = config.solar, config.policies[case_id]
    E_max, P0 = config.energy.E_max, policy.P0
    P_peak, period, shape = solar.P_peak, solar.period, solar.shape_exponent
    two_pi = 2.0 * math.pi

    def solar_power(t):
        if shape == 0.0:
            return P_peak
        s = math.sin(two_pi * t / period)
        return P_peak * (np.array([s]) ** shape)[0] if s > 0.0 else 0.0

    if case_id == "passive":
        def load(_E, _shed):
            return P0

        def shed_law(_t, _E, _prev):
            return False
    elif case_id == "reactive":
        floor = P0 * (1.0 - policy.shed_fraction)

        def load(_E, shed):
            return floor if shed else P0

        def shed_law(_t, E, prev):
            return True if E < policy.E_on else False if E > policy.E_off else prev
    else:
        floor = P0 * (1.0 - policy.shed_fraction)

        def load(E, shed):
            short = policy.E_target - E
            raw = (floor if shed else P0) - policy.gain * (short if short > 0.0 else 0.0)
            raw = floor if floor > raw else raw
            return P0 if P0 < raw else raw

        # Cumulative energy of one profile period, trapezoid on 4,096 panels.
        xs = np.linspace(0.0, period, 4097)
        if shape == 0.0:
            p = np.full(4097, P_peak)
        else:
            p = P_peak * np.maximum(np.sin(2.0 * np.pi * xs / period), 0.0) ** shape
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * (period / 4096))))

        def cumulative(t):
            periods, frac = np.divmod(t, period)
            return periods * float(cum[-1]) + np.interp(frac, xs, cum)

        integ = config.integrator
        times = integ.t_start + integ.dt * np.arange(integ.n_steps() + 1)
        inflow = (cumulative(times + policy.horizon) - cumulative(times)).tolist()
        spent = P0 * policy.horizon

        def shed_law(t, E, _prev):
            k = round((t - integ.t_start) / integ.dt)
            return E + inflow[k] - spent < policy.E_target

    def rhs(t, E, d, shed):
        net = solar_power(t) * d - load(E, shed)
        if (E >= E_max and net > 0.0) or (E <= 0.0 and net < 0.0):
            net = 0.0
        return net

    def project(E):
        return 0.0 if E < 0.0 else E_max if E > E_max else E

    return rhs, shed_law, project


def _edge_time(draw, t_start, dt, lo, hi):
    """(k, t): a time on the grid, on a half step, or between, at a step k in [lo, hi]."""
    k = draw(st.integers(lo, hi))
    grid_t = t_start + k * dt
    return k, draw(st.sampled_from([
        grid_t, grid_t + 0.5 * dt, grid_t + draw(st.floats(0.0, 1.0)) * dt]))


@st.composite
def windows(draw):
    """(t_start, dt, n_steps, disturbance) with pulse edges on and off the grid."""
    n_steps = draw(st.sampled_from(STEP_COUNTS))
    dt = draw(st.sampled_from([0.005, 0.02, 0.01, 0.0025, 1 / 128])
              | st.floats(1e-3, 2e-2))
    t_start = draw(st.sampled_from([0.0, -3.0]) | st.floats(-100.0, 100.0))
    if draw(st.integers(0, 4)) == 0:
        return t_start, dt, n_steps, DisturbanceSignal()
    # The offset's step follows the onset's, so its range is never empty.
    # An onset a whole step past its grid time may round past an offset
    # on the next grid time; that pulse has no length.
    k, onset = _edge_time(draw, t_start, dt, 0, n_steps - 3)
    _, offset = _edge_time(draw, t_start, dt, k + 1, n_steps - 2)
    magnitude = draw(st.sampled_from([0.0, 0.15, 1.0]) | st.floats(0.0, 1.0))
    return t_start, dt, n_steps, DisturbanceSignal(
        kind="pulse", onset=onset, duration=max(offset - onset, 0.0),
        magnitude=magnitude)


@st.composite
def scenario_runs(draw):
    t_start, dt, n_steps, disturbance = draw(windows())
    P0 = draw(st.floats(0.5, 15.0))
    shed_fraction = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.9))
    config = ScenarioConfig(
        energy=EnergyParams(
            E_max=100.0, E_min=0.0, E_ref=45.0,
            E_init=draw(st.sampled_from([0.0, 50.0, 100.0]) | st.floats(0.0, 100.0))),
        solar=SolarProfile(
            P_peak=draw(st.floats(0.5, 30.0)), period=draw(st.floats(0.3, 40.0)),
            shape_exponent=draw(st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0]))),
        policies={
            "passive": LoadPolicy(P0=P0),
            "reactive": LoadPolicy(
                P0=P0, E_on=draw(st.floats(5.0, 45.0)), E_off=draw(st.floats(50.0, 95.0)),
                shed_fraction=shed_fraction),
            "anticipatory": LoadPolicy(
                P0=P0, horizon=draw(st.floats(0.5, 12.0)),
                E_target=draw(st.floats(10.0, 90.0)), shed_fraction=shed_fraction,
                gain=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 3.0))),
        },
        disturbance=disturbance,
        integrator=IntegratorConfig(dt=dt, t_start=t_start, t_end=t_start + n_steps * dt),
        metrics=MetricsConfig(),
    )
    return draw(st.sampled_from(CASE_IDS)), config


@pytest.mark.filterwarnings("ignore:pulse duration")
@settings(max_examples=60, deadline=None)
@given(scenario_runs())
def test_scenario_matches_per_step_reference(run):
    case_id, config = run
    result = integrate(build_case(case_id, config), config.energy.E_init,
                       config.disturbance, config.integrator)
    rhs, shed_law, project = reference_case(case_id, config)
    integ = config.integrator
    states, modes = reference_integrate(
        rhs, config.energy.E_init, config.disturbance, integ.t_start,
        integ.dt, integ.n_steps(), shed_law, False, project)
    assert result.states[0].values.tobytes() == np.array(states).tobytes()
    assert result.modes == modes


@pytest.mark.filterwarnings("ignore:pulse duration")
@settings(max_examples=60, deadline=None)
@given(windows(), st.floats(0.2, 2.0))
def test_forcing_and_divergence_match_per_step_reference(window, blowup):
    # dx/dt ~ u*x^2 blows up near t_start + blowup*span, so some runs
    # diverge in the first 4,096 steps, some later and some not at all.
    t_start, dt, n_steps, disturbance = window
    x0 = 1.0 / (blowup * n_steps * dt)

    def forcing(times, d):
        return (0.5 + d) * (1.0 + 1e-3 * (times - t_start))

    def rhs(x, u, mode):
        return (u if mode else 0.5 * u) * x * x

    def mode_update(_t, x, _mode):
        return x > 2.0 * x0

    def reference_rhs(t, x, d, mode):
        return rhs(x, (0.5 + d) * (1.0 + 1e-3 * (t - t_start)), mode)

    config = IntegratorConfig(dt=dt, t_start=t_start, t_end=t_start + n_steps * dt)
    system = DynamicalSystem(rhs=rhs, mode_update=mode_update, mode_init=False,
                             forcing=forcing)
    try:
        states, modes = reference_integrate(
            reference_rhs, x0, disturbance, t_start, dt, config.n_steps(),
            mode_update, False)
    except IntegrationDivergedError as exc:
        with pytest.raises(IntegrationDivergedError) as got:
            integrate(system, x0, disturbance, config)
        assert got.value.time == exc.time
        return
    result = integrate(system, x0, disturbance, config)
    assert result.states[0].values.tobytes() == np.array(states).tobytes()
    assert result.modes == modes


def _probed_run(free_flight):
    """Counted rhs/mode_update/project/forcing calls, the forcing's times
    and the types of the inputs rhs was handed."""
    config = replace(
        default_config(), integrator=IntegratorConfig(dt=0.02, t_start=0.0, t_end=144.0))
    integ = config.integrator
    system = build_case("anticipatory", config)
    calls, seen, kinds = Counter(), [], set()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    def forcing(times, d):
        seen.extend(times.tolist())
        return system.forcing(times, d)

    def rhs(x, u, mode):
        kinds.add(type(u))
        return system.rhs(x, u, mode)

    probe = replace(
        system, rhs=counted("rhs", rhs),
        mode_update=counted("mode_update", system.mode_update),
        project=counted("project", system.project), forcing=counted("forcing", forcing),
        free_flight=system.free_flight if free_flight else {})
    integrate(probe, config.energy.E_init, config.disturbance, integ)
    return calls, seen, kinds, integ


def _assert_sampled_once(seen, integ):
    n = integ.n_steps()
    assert len(seen) == len(set(seen)) == 2 * n + 1
    grid = integ.t_start + integ.dt * np.arange(n + 1)
    assert set(seen) == set(grid.tolist()) | set((grid[:-1] + 0.5 * integ.dt).tolist())


def test_each_substep_input_sampled_once():
    # A structural guard, not a timing: a step costs four rhs calls, one
    # mode update and one projection, and each substep time reaches the
    # forcing exactly once, in one call, over a run longer than a pass may be.
    # Free flight is off, so every step takes the scalar path.
    calls, seen, _, integ = _probed_run(free_flight=False)
    n = integ.n_steps()
    assert n > 4096
    assert calls == {"rhs": 4 * n, "mode_update": n + 1, "project": n + 1, "forcing": 1}
    _assert_sampled_once(seen, integ)


def test_each_substep_input_sampled_once_in_free_flight():
    calls, seen, _, integ = _probed_run(free_flight=True)
    assert 0 < calls["rhs"] < 4 * integ.n_steps()
    assert calls["forcing"] == 1
    _assert_sampled_once(seen, integ)


@pytest.mark.parametrize("free_flight", [False, True])
def test_scalar_loop_hands_rhs_python_floats(free_flight):
    # the step reads the sampled arrays as Python floats, never numpy scalars
    calls, _, kinds, _ = _probed_run(free_flight)
    assert calls["rhs"] > 0
    assert kinds == {float}


@pytest.mark.parametrize("shape, dt", [
    *((shape, 0.02) for shape in (0.0, 1.0, 2.0, 2.5, 3.0)), (2.0, None)])
@pytest.mark.parametrize("case_id", CASE_IDS)
def test_recorded_input_is_the_stepped_input(case_id, shape, dt):
    # The P_in column holds, bit for bit, the input that reached the
    # right-hand side at each grid time. dt None keeps the shipped step.
    config = default_config()
    config = replace(
        config, solar=replace(config.solar, shape_exponent=shape))
    if dt is not None:
        config = replace(
            config, integrator=replace(config.integrator, dt=dt))
    system = build_case(case_id, config)
    stepped = {}

    def forcing(times, d):
        u = system.forcing(times, d)
        stepped.update(zip(times.tolist(), u.tolist()))
        return u

    integrate(replace(system, forcing=forcing), config.energy.E_init,
              config.disturbance, config.integrator)
    recorded = run_case(case_id, config).p_in
    expected = np.array([stepped[t] for t in recorded.times().tolist()])
    differ = np.count_nonzero(expected != recorded.values)
    assert differ == 0, f"{differ} of {len(expected)} samples differ"
