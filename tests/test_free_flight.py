"""Free flight: the numpy passes against the scalar loop they stand in for.

A system that declares free flight has the stretches where its
right-hand side is `u - load` stepped in numpy passes. The passes must
give the scalar loop's states, modes and divergence times bit for bit,
must carry most of a default run, and must not redo array work when a
run sits on a storage bound.
"""

import math

import numpy as np
import pytest

from risktraj.config import DisturbanceSignal, IntegratorConfig, LoadPolicy
from risktraj.dynamics import _BLOCK_STEPS, DynamicalSystem, integrate
from risktraj.errors import IntegrationDivergedError, ParameterError
from risktraj.io_formats import apply_overrides, config_to_parser, parser_to_config
from risktraj.record import replace
from risktraj.scenario import CASE_IDS, build_case, default_config

COARSE = "integrator.dt_s=0.02"
# The two runs of test_compare_digests.py that sit on a storage bound.
CLAMPED = {
    "full": ["solar.P_peak_W=40"],
    "empty": ["policy.passive.P0_W=6"],
}
# A load of 1e308 overflows the passes' increments: those steps are not
# free and fall to the scalar loop, and numpy must not warn about them.
OVERFLOW = ["integrator.dt_s=0.5", "policy.passive.P0_W=1e308"]


def _config(overrides):
    return parser_to_config(apply_overrides(config_to_parser(default_config()), overrides))


def _run(system, config):
    return integrate(system, config.energy.E_init, config.disturbance, config.integrator)


def _probed(case_id, config):
    """(result, scalar steps, free-flight passes, states the passes computed)."""
    system = build_case(case_id, config)
    counts = {"rhs": 0, "passes": 0, "computed": 0}

    def rhs(*args):
        counts["rhs"] += 1
        return system.rhs(*args)

    def mode_update(k, x, mode):
        # a pass calls the law once, on the array of its states
        if isinstance(x, np.ndarray):
            counts["passes"] += 1
            counts["computed"] += len(x)
        return system.mode_update(k, x, mode)

    probe = replace(system, rhs=rhs, mode_update=mode_update)
    result = _run(probe, config)
    return result, counts["rhs"] // 4, counts["passes"], counts["computed"]


def _switches(modes):
    flags = np.asarray(modes, dtype=bool)
    return int(np.count_nonzero(flags[1:] != flags[:-1]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("overrides", [[], [COARSE], *(
    [COARSE, "integrator.t_end_s=48", *extra] for extra in CLAMPED.values()), OVERFLOW])
@pytest.mark.parametrize("case_id", CASE_IDS)
def test_same_states_and_modes_as_scalar_loop(case_id, overrides):
    config = _config(overrides)
    system = build_case(case_id, config)
    fast = _run(system, config)
    slow = _run(replace(system, free_flight={}), config)
    assert fast.states[0].values.tobytes() == slow.states[0].values.tobytes()
    assert fast.modes == slow.modes


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_engages_on_shipped_defaults(case_id):
    # A structural guard, not a timing: on the shipped run the scalar
    # loop takes fewer than 15 % of the steps.
    config = default_config()
    _, scalar, _, _ = _probed(case_id, config)
    assert scalar < 0.15 * config.integrator.n_steps()


@pytest.mark.parametrize("name", sorted(CLAMPED))
def test_array_work_linear_when_held_on_a_bound(name):
    config = _config([COARSE, "integrator.t_end_s=48", *CLAMPED[name]])
    result, scalar, passes, computed = _probed("passive", config)
    n = config.integrator.n_steps()
    energy = result.states[0].values
    assert np.count_nonzero((energy == 0.0) | (energy == config.energy.E_max)) > 400
    blocks = -(-n // _BLOCK_STEPS)
    assert passes <= scalar + blocks + _switches(result.modes)
    assert computed <= 3 * n


def _ramp(forcing, project=lambda x: x):
    """dx/dt = u - 1 with free flight on (-10, 10) and no mode."""
    return DynamicalSystem(
        rhs=lambda _x, u, _mode: u - 1.0,
        forcing=forcing,
        project=project,
        free_flight={None: (1.0, -10.0, 10.0)},
    )


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_divergence_raised_at_the_scalar_loop_time(bad):
    # The input turns non-finite at t = 3, well inside free flight.
    system = _ramp(lambda times, d: np.where(times < 3.0, 1.5, bad) * d)
    config = IntegratorConfig(dt=0.01, t_start=0.0, t_end=60.0)
    times = []
    for candidate in (system, replace(system, free_flight={})):
        with pytest.raises(IntegrationDivergedError) as err:
            integrate(candidate, 0.0, DisturbanceSignal(), config)
        times.append(err.value.time)
    assert times[0] == times[1] == pytest.approx(3.0)


def test_leaves_the_interval_into_the_scalar_loop():
    # x climbs at 0.5 per unit time and crosses the interval's upper end
    # at t = 20; the steps after it are taken by the scalar loop.
    system = _ramp(lambda times, d: 1.5 * d)
    config = IntegratorConfig(dt=0.01, t_start=0.0, t_end=60.0)
    fast = integrate(system, 0.0, DisturbanceSignal(), config)
    slow = integrate(replace(system, free_flight={}), 0.0,
                     DisturbanceSignal(), config)
    assert fast.states[0].values.tobytes() == slow.states[0].values.tobytes()
    assert fast.states[0].values[-1] == pytest.approx(30.0)


def test_step_that_leaves_is_projected():
    # The input jumps at t = 10, a grid time: the step ending there has
    # its start and substeps inside the interval and its end far outside,
    # so the projection must act on the last state a pass accepts.
    system = _ramp(lambda times, d: np.where(times < 10.0, 1.5, 1e4) * d,
                   project=lambda x: min(max(x, -10.0), 10.0))
    config = IntegratorConfig(dt=0.01, t_start=0.0, t_end=20.0)
    fast = integrate(system, 0.0, DisturbanceSignal(), config)
    slow = integrate(replace(system, free_flight={}), 0.0,
                     DisturbanceSignal(), config)
    assert fast.states[0].values.tobytes() == slow.states[0].values.tobytes()
    assert fast.states[0].values.max() == 10.0


@pytest.mark.parametrize("gain", [math.inf, math.nan])
def test_anticipatory_gain_must_be_finite(gain):
    # inf * 0 is NaN, so an infinite gain would break rhs == u - load
    with pytest.raises(ParameterError, match="gain"):
        LoadPolicy(P0=2.0, horizon=6.0, E_target=40.0, shed_fraction=0.5,
                   gain=gain)
