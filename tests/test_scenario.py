import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from risktraj.config import (
    DisturbanceSignal,
    EnergyParams,
    IntegratorConfig,
    LoadPolicy,
    RiskMap,
    ScenarioConfig,
    SolarProfile,
)
from risktraj.errors import (
    ConfigurationError,
    IntegrationDivergedError,
    ParameterError,
    RisktrajError,
)
from risktraj.io_formats import config_to_text
from risktraj.metrics import BASELINE_MODES, MetricsConfig
from risktraj.scenario import (
    CASE_IDS,
    _load_series,
    build_case,
    compare_cases,
    default_config,
    input_power,
    risk_of_energy,
    run_case,
)

SOLAR_K1 = SolarProfile(P_peak=10.0, period=24.0, shape_exponent=1.0)
NO_DIST = DisturbanceSignal(kind="none")


def with_policies(config, **replacements):
    policies = dict(config.policies)
    for case_id, policy in replacements.items():
        policies[case_id] = policy
    return dataclasses.replace(config, policies=policies)


def solar_input(t, profile, disturbance):
    """Disturbed input power at one time, as the integrator samples it."""
    times = np.array([t])
    return input_power(profile, times, disturbance.sample(times, 1.0))[0]


def load_power(k, E, prev_shedding, policy, solar):
    """Delivered load and updated shedding flag of one policy at grid index k;
    any case runs any policy."""
    config = with_policies(
        dataclasses.replace(default_config(), solar=solar), passive=policy)
    shed = build_case("passive", config).mode_update(k, E, prev_shedding)
    load = _load_series(policy, np.array([E]), np.array([shed]))
    return float(load[0]), shed


class TestRiskMap:
    MAP = RiskMap(E_ref=45.0, E_min=15.0)

    def test_anchor_points_exact(self):
        assert risk_of_energy(45.0, self.MAP) == 0.0
        assert risk_of_energy(15.0, self.MAP) == 1.0
        assert risk_of_energy(30.0, self.MAP) == 0.5

    def test_clamped_outside_ramp(self):
        assert risk_of_energy(200.0, self.MAP) == 0.0
        assert risk_of_energy(-50.0, self.MAP) == 1.0

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            e1, e2 = sorted(rng.uniform(-20.0, 120.0, size=2))
            r1, r2 = risk_of_energy(e1, self.MAP), risk_of_energy(e2, self.MAP)
            assert r1 >= r2
            assert 0.0 <= r1 <= 1.0 and 0.0 <= r2 <= 1.0

    def test_requires_band(self):
        with pytest.raises(ParameterError):
            RiskMap(E_ref=10.0, E_min=10.0)


class TestSolarInput:
    def test_peak_at_quarter_period(self):
        assert solar_input(6.0, SOLAR_K1, NO_DIST) == pytest.approx(10.0)

    def test_night_half_cycle_is_zero(self):
        assert solar_input(18.0, SOLAR_K1, NO_DIST) == 0.0

    def test_pulse_attenuates(self):
        sig = DisturbanceSignal(kind="pulse", onset=5.0, duration=4.0, magnitude=0.2)
        assert solar_input(6.0, SOLAR_K1, sig) == pytest.approx(2.0)

    def test_flat_profile(self):
        flat = SolarProfile(P_peak=4.0, period=24.0, shape_exponent=0.0)
        for t in (0.0, 5.0, 18.0):
            assert solar_input(t, flat, NO_DIST) == 4.0

    def test_shape_validation(self):
        with pytest.raises(ParameterError):
            SolarProfile(P_peak=1.0, period=10.0, shape_exponent=0.5)
        with pytest.raises(ParameterError):
            SolarProfile(P_peak=0.0, period=10.0, shape_exponent=2.0)


class TestLoadPower:
    def test_passive_always_base_load(self):
        policy = LoadPolicy(P0=4.0)
        for E, prev in ((0.0, True), (100.0, False)):
            assert load_power(0, E, prev, policy, SOLAR_K1) == (4.0, False)

    def test_reactive_two_step_trace(self):
        policy = LoadPolicy(P0=4.0, E_on=35.0, E_off=48.0, shed_fraction=0.5)
        # engage below E_on
        p1, shed1 = load_power(0, 30.0, False, policy, SOLAR_K1)
        assert (p1, shed1) == (2.0, True)
        # hold inside the band
        p2, shed2 = load_power(1, 40.0, shed1, policy, SOLAR_K1)
        assert (p2, shed2) == (2.0, True)
        # release above E_off
        p3, shed3 = load_power(2, 50.0, shed2, policy, SOLAR_K1)
        assert (p3, shed3) == (4.0, False)
        # un-shed inside the band stays un-shed
        p4, shed4 = load_power(3, 40.0, shed3, policy, SOLAR_K1)
        assert (p4, shed4) == (4.0, False)

    def test_anticipatory_inactive_in_good_conditions(self):
        policy = LoadPolicy(
            P0=2.0, horizon=24.0, E_target=40.0, shed_fraction=0.5, gain=0.5
        )
        # full-period forecast: mean input (10/pi) exceeds P0, E well above target
        p, shed = load_power(0, 80.0, False, policy, SOLAR_K1)
        assert p == 2.0 and not shed

    def test_anticipatory_proportional_reduction_clamped(self):
        policy = LoadPolicy(
            P0=2.0, horizon=24.0, E_target=40.0, shed_fraction=0.5, gain=0.5
        )
        p_mid, _ = load_power(0, 39.0, False, policy, SOLAR_K1)
        assert p_mid == pytest.approx(1.5)  # 2.0 - 0.5*1.0
        p_floor, _ = load_power(0, 10.0, False, policy, SOLAR_K1)
        assert p_floor == 1.0  # clamped at P0*(1-s)

    def test_policy_validation(self):
        with pytest.raises(ParameterError):
            LoadPolicy(P0=4.0, E_on=50.0, E_off=40.0, shed_fraction=0.5)
        with pytest.raises(ParameterError):
            LoadPolicy(P0=4.0, E_on=30.0, E_off=40.0, shed_fraction=1.0)
        with pytest.raises(ParameterError):
            LoadPolicy(P0=4.0, horizon=0.0, E_target=40.0,
                       shed_fraction=0.5, gain=0.1)
        with pytest.raises(ParameterError):
            LoadPolicy(P0=4.0, horizon=6.0, E_target=40.0,
                       shed_fraction=0.5, gain=-0.1)
        with pytest.raises(ParameterError):
            LoadPolicy(P0=0.0)
        with pytest.raises(ParameterError, match="not both"):
            LoadPolicy(P0=4.0, E_on=30.0, E_off=40.0, horizon=6.0)


# The defaults over 48 s: the law does not depend on the run's length.
SHORT_DEFAULTS = dataclasses.replace(
    default_config(), integrator=IntegratorConfig(dt=0.01, t_start=0.0, t_end=48.0))
E_MAX = SHORT_DEFAULTS.energy.E_max


@st.composite
def law_cases(draw):
    """(policy, E): one policy that sheds on a band, on a forecast or never,
    with a gain of 0, moderate or near the float limit, any E_target, and
    a level E in (0, E_max)."""
    P0 = draw(st.floats(0.01, 100.0))
    shed_fraction = draw(st.floats(0.0, 1.0, exclude_max=True))
    E = draw(st.floats(0.0, E_MAX, exclude_min=True, exclude_max=True))
    trigger = draw(st.sampled_from(["band", "forecast", "never"]))
    if trigger == "band":
        E_on = draw(st.floats(0.0, E_MAX))
        sheds = {"E_on": E_on, "E_off": E_on + draw(st.floats(0.01, 50.0))}
    elif trigger == "forecast":
        sheds = {"horizon": draw(st.floats(0.1, 24.0))}
    else:
        sheds = {}
    gain = draw(st.sampled_from([0.0, 1e308]) | st.floats(0.0, 1e3))
    E_target = draw(st.just(-np.inf) | st.floats(-50.0, 150.0))
    if gain and draw(st.booleans()):
        # a shortfall under P0*shed_fraction/gain: the proportional band,
        # where an unshed load lies strictly between floor and P0
        E_target = E + draw(st.floats(0.0, 1.0)) * min(P0 * shed_fraction / gain, 50.0)
    return LoadPolicy(P0=P0, shed_fraction=shed_fraction, E_target=E_target,
                      gain=gain, **sheds), E


def _anticipatory(gain):
    return LoadPolicy(P0=2.75, horizon=3.0, E_target=48.0, shed_fraction=0.5,
                      gain=gain)


class TestOneLoadLaw:
    """The rhs, the recorded load and the free-flight table are one law."""

    @settings(max_examples=300, deadline=None)
    @given(law_cases(), st.floats(-1e3, 1e3), st.booleans())
    # inside the proportional band (load 2.25 W), and an overflow to -inf
    # that clips to the floor
    @example((_anticipatory(1.0), 47.5), 1.0, False)
    @example((_anticipatory(1e308), 40.0), 1.0, False)
    def test_rhs_load_series_and_flight_agree(self, drawn, u, shed):
        policy, E = drawn
        # any case runs any policy
        system = build_case("reactive", with_policies(SHORT_DEFAULTS, reactive=policy))
        load = _load_series(policy, np.array([E]), np.array([shed]))[0]
        # with no input, inside (0, E_max) the rhs is minus the load, bit for bit
        assert (-system.rhs(E, 0.0, shed)).hex() == float(load).hex()
        flight_load, lo, hi = system.free_flight[shed]
        if lo < E < hi:
            assert system.rhs(E, u, shed).hex() == (u - flight_load).hex()
            assert flight_load == load


class TestEnergyParams:
    def test_threshold_ordering(self):
        with pytest.raises(ParameterError):
            EnergyParams(E_max=100.0, E_min=50.0, E_init=60.0, E_ref=40.0)
        with pytest.raises(ParameterError):
            EnergyParams(E_max=100.0, E_min=10.0, E_init=150.0, E_ref=40.0)


class TestScenarioConfigValidation:
    def test_policy_field_its_section_lacks(self):
        # each record runs, but its [policy.<case>] section cannot hold it
        unlisted = {"passive": {"shed_fraction": 0.5}, "reactive": {"gain": 0.5},
                    "anticipatory": {"E_off": 60.0}}
        for case_id, field in unlisted.items():
            policy = dataclasses.replace(SHORT_DEFAULTS.policies[case_id], **field)
            config = with_policies(SHORT_DEFAULTS, **{case_id: policy})
            assert run_case(case_id, config).report.r0 > 0.0
            with pytest.raises(ConfigurationError,
                               match=rf"^\[policy\.{case_id}\] lacks a key"):
                config_to_text(config)

    def test_magnitude_range(self):
        config = default_config()
        with pytest.raises(ConfigurationError):
            dataclasses.replace(config, disturbance=DisturbanceSignal(
                kind="pulse", onset=27.0, duration=12.0, magnitude=1.5))

    def test_window_inside_run(self):
        config = default_config()
        with pytest.raises(ConfigurationError):
            dataclasses.replace(config, disturbance=DisturbanceSignal(
                kind="pulse", onset=140.0, duration=12.0, magnitude=0.5))

    def test_metrics_horizon_before_t0(self):
        config = default_config()
        assert config.t0 == 27.0  # the pulse onset
        with pytest.raises(ConfigurationError, match=r"^horizon 20.0 precedes t0 27.0$"):
            dataclasses.replace(config, metrics=dataclasses.replace(
                config.metrics, horizon=20.0))
        calm = dataclasses.replace(config, disturbance=NO_DIST)
        assert calm.t0 == 0.0  # the run's start
        assert dataclasses.replace(calm, metrics=dataclasses.replace(
            config.metrics, horizon=20.0)).metrics.horizon == 20.0

    def test_tail_window_of_one_sample(self):
        # 0.001% of the 28,801 samples rounds up to 1, too few for a mean level
        config = default_config()
        few = dataclasses.replace(config.metrics, tail_fraction=1e-5)
        with pytest.raises(ParameterError, match="tail window has 1 sample"):
            dataclasses.replace(config, metrics=few)  # the shipped steady_state
        # a zero baseline takes no tail mean
        dataclasses.replace(config, metrics=dataclasses.replace(few, baseline_mode="zero"))

    def test_missing_policy_rejected_by_build(self):
        config = default_config()
        trimmed = dataclasses.replace(
            config, policies={"passive": config.policies["passive"]})
        with pytest.raises(ConfigurationError):
            run_case("reactive", trimmed)

    def test_unknown_case(self):
        with pytest.raises(ConfigurationError):
            run_case("bogus", default_config())


def balanced_flat_config():
    """P_in == P0 exactly and E starting at E_ref: a true equilibrium."""
    return ScenarioConfig(
        energy=EnergyParams(E_max=100.0, E_min=15.0, E_init=45.0, E_ref=45.0),
        solar=SolarProfile(P_peak=2.75, period=6.0, shape_exponent=0.0),
        policies={"passive": LoadPolicy(P0=2.75)},
        disturbance=NO_DIST,
        integrator=IntegratorConfig(dt=0.01, t_start=0.0, t_end=30.0),
        metrics=MetricsConfig(),
    )


class TestRunCase:
    def test_flat_balanced_equilibrium(self):
        result = run_case("passive", balanced_flat_config())
        assert np.all(result.energy.values == 45.0)
        assert np.all(result.risk.values == 0.0)

    def test_passive_pulse_rises_then_recovers(self, default_comparison):
        result = default_comparison.cases["passive"]
        onset = 27.0
        i0 = result.risk.grid.index_at_or_after(onset)
        assert np.all(result.risk.values[:i0] == 0.0)
        assert result.report.r0 > 0.2
        assert result.report.recovered
        # calm again over the final stretch
        assert np.all(result.risk.values[-2000:] == 0.0)

    def test_anticipatory_peak_below_passive(self, default_comparison):
        r_passive = default_comparison.cases["passive"].report.r0
        r_anticip = default_comparison.cases["anticipatory"].report.r0
        assert r_anticip < r_passive

    def test_case_reports_ordering(self, default_comparison):
        assert default_comparison.r0_ordering_holds
        assert default_comparison.impact_ordering_holds

    def test_policy_bounds_on_recorded_load(self, default_comparison):
        assert np.all(default_comparison.cases["passive"].p_load.values == 2.75)
        for case_id in ("reactive", "anticipatory"):
            loads = default_comparison.cases[case_id].p_load.values
            assert np.all(loads >= 2.75 * 0.5 - 1e-12)
            assert np.all(loads <= 2.75 + 1e-12)

    def test_recorded_load_and_shed_match_scalar_policy(self, default_comparison):
        # run_case records P_load with array operations; the stepped
        # right-hand side is the per-sample law and must agree exactly, shed
        # flag included. With zero input and E > 0, rhs returns -load.
        config = default_config()
        for case_id in CASE_IDS:
            system = build_case(case_id, config)
            result = default_comparison.cases[case_id]
            t = result.energy.times()
            E, loads = result.energy.values, result.p_load.values
            for k in range(1, len(t), 211):
                shed = system.mode_update(k, E[k], result.shed[k - 1])
                assert shed == result.shed[k]
                assert -system.rhs(E[k], 0.0, shed) == loads[k]

    def test_hysteresis_no_chattering(self, default_comparison):
        result = default_comparison.cases["reactive"]
        shed = np.array(result.shed, dtype=bool)
        flips = np.flatnonzero(shed[1:] != shed[:-1])
        assert len(flips) == 2  # one engage, one release
        engage, release = flips
        policy = default_config().policies["reactive"]
        assert result.energy.values[engage + 1] < policy.E_on + 0.01
        assert result.energy.values[release + 1] > policy.E_off - 0.01

    def test_no_saturation_under_defaults(self, default_comparison):
        for result in default_comparison.cases.values():
            E = result.energy.values
            assert E.min() > 0.0
            assert E.max() < 100.0

    def test_recorded_columns_shapes(self, default_comparison):
        result = default_comparison.cases["passive"]
        n = result.energy.grid.n_samples
        assert len(result.p_in) == len(result.p_load) == len(result.risk) == n
        assert len(result.shed) == n

    def test_case1_invariance_bit_identical(self):
        config = default_config()
        short = dataclasses.replace(
            config,
            integrator=IntegratorConfig(dt=0.01, t_start=0.0, t_end=48.0),
        )
        varied = with_policies(
            short,
            reactive=LoadPolicy(P0=2.75, E_on=20.0, E_off=90.0,
                                shed_fraction=0.9),
            anticipatory=LoadPolicy(P0=2.75, horizon=12.0, E_target=10.0,
                                    shed_fraction=0.9, gain=3.0),
        )
        a = run_case("passive", short)
        b = run_case("passive", varied)
        assert np.array_equal(a.energy.values, b.energy.values)
        assert np.array_equal(a.risk.values, b.risk.values)


class TestMechanismCoverage:
    """On the defaults, each mechanism of a shipped policy is dropped in turn."""

    @pytest.mark.parametrize("case_id, dropped, moves_E", [
        ("reactive", {"E_on": -np.inf, "E_off": -np.inf}, True),  # the band
        ("anticipatory", {"gain": 0.0}, True),  # the feedback
        # Expected inert: with horizon_s = period_s = 6 the forecast's inflow
        # is a constant 18 J, so it sheds below 46.5 J, where the feedback
        # (below 46.625 J) already holds the load at its floor.
        ("anticipatory", {"horizon": None}, False),
    ])
    def test_dropped_mechanism(self, default_comparison, case_id, dropped, moves_E):
        config = default_config()
        policy = dataclasses.replace(config.policies[case_id], **dropped)
        result = run_case(case_id, with_policies(config, **{case_id: policy}))
        base = default_comparison.cases[case_id]
        same_E = np.array_equal(result.energy.values, base.energy.values)
        if moves_E:
            assert not same_E
        else:
            assert same_E
            assert np.array_equal(result.p_load.values, base.p_load.values)
            assert result.shed != base.shed  # only the shed flags move


class TestCompareCases:
    def test_degenerate_identical_policies(self):
        config = default_config()
        p0 = 2.75
        degenerate = with_policies(
            config,
            reactive=LoadPolicy(P0=p0, E_on=35.0, E_off=48.0,
                                shed_fraction=0.0),
            anticipatory=LoadPolicy(P0=p0, horizon=6.0, E_target=48.0,
                                    shed_fraction=0.0, gain=0.0),
        )
        degenerate = dataclasses.replace(
            degenerate,
            integrator=IntegratorConfig(dt=0.01, t_start=0.0, t_end=72.0),
        )
        comp = compare_cases(degenerate)
        reports = [comp.cases[c].report for c in CASE_IDS]
        assert reports[0] == reports[1] == reports[2]
        assert comp.r0_ordering_holds          # ties satisfy >=
        assert not comp.impact_ordering_holds  # strict ordering degenerates

    def test_no_event_zero_peaks(self):
        config = dataclasses.replace(
            default_config(),
            disturbance=DisturbanceSignal(kind="pulse", onset=27.0,
                                          duration=12.0, magnitude=1.0),
            integrator=IntegratorConfig(dt=0.01, t_start=0.0, t_end=72.0),
        )
        comp = compare_cases(config)
        for case_id in CASE_IDS:
            assert comp.cases[case_id].report.r0 == 0.0

    def test_periodic_calm_tail(self):
        config = dataclasses.replace(
            default_config(),
            disturbance=NO_DIST,
            integrator=IntegratorConfig(dt=0.01, t_start=0.0, t_end=72.0),
        )
        for case_id in CASE_IDS:
            result = run_case(case_id, config)
            r = result.risk.values
            period_samples = round(6.0 / 0.01)
            tail = r[-2 * period_samples:]
            assert np.max(np.abs(tail[period_samples:] - tail[:period_samples])) \
                <= 1e-3

    def test_energy_balance_recorded_signals(self, default_comparison):
        for result in default_comparison.cases.values():
            dE = result.energy.values[-1] - result.energy.values[0]
            q = np.trapezoid(result.p_in.values - result.p_load.values,
                             dx=result.energy.grid.dt)
            assert abs(dE - q) <= 1e-6 * 100.0


@st.composite
def bounded_configs(draw):
    """Accepted ScenarioConfigs of short runs: dt in [0.02, 0.1], 24-96 s,
    all three cases, and every section drawn. A draw the constructors
    refuse is rejected, so only accepted configs reach the test."""
    def unit():
        return draw(st.floats(0.0, 1.0, exclude_max=True))

    def level():
        return draw(st.floats(-10.0, 210.0))

    dt = draw(st.floats(0.02, 0.1))
    t_start = draw(st.floats(-100.0, 100.0))
    t_end = t_start + dt * draw(st.integers(math.ceil(24.0 / dt), math.floor(96.0 / dt)))
    span = t_end - t_start
    onset = t_start + span * unit()
    e_min, e_ref, e_max = sorted(draw(st.lists(st.floats(0.0, 200.0), min_size=3,
                                               max_size=3, unique=True)))
    e_on, e_off = sorted(draw(st.lists(st.floats(-10.0, 210.0), min_size=2,
                                       max_size=2, unique=True)))
    try:
        return ScenarioConfig(
            energy=EnergyParams(E_max=e_max, E_min=e_min, E_ref=e_ref,
                                E_init=draw(st.floats(e_min, e_max))),
            solar=SolarProfile(P_peak=draw(st.floats(0.01, 50.0)),
                               period=draw(st.floats(0.5, 100.0)),
                               shape_exponent=draw(st.just(0.0) | st.floats(1.0, 8.0))),
            policies={
                "passive": LoadPolicy(P0=draw(st.floats(0.01, 50.0))),
                "reactive": LoadPolicy(P0=draw(st.floats(0.01, 50.0)), E_on=e_on,
                                       E_off=e_off, shed_fraction=unit()),
                "anticipatory": LoadPolicy(P0=draw(st.floats(0.01, 50.0)),
                                           horizon=draw(st.floats(0.01, 100.0)),
                                           E_target=level(), shed_fraction=unit(),
                                           gain=draw(st.floats(0.0, 100.0))),
            },
            disturbance=DisturbanceSignal(
                kind=draw(st.sampled_from(["none", "pulse"])), onset=onset,
                duration=(t_end - onset) * unit(), magnitude=draw(st.floats(0.0, 1.0))),
            integrator=IntegratorConfig(dt=dt, t_start=t_start, t_end=t_end),
            metrics=MetricsConfig(
                baseline_mode=draw(st.sampled_from(BASELINE_MODES)),
                tail_fraction=draw(st.floats(0.0, 1.0, exclude_min=True)),
                fit_floor_ratio=draw(st.floats(0.0, 1.0, exclude_min=True,
                                               exclude_max=True)),
                min_fit_samples=draw(st.integers(3, 2000)),
                tail_correction=draw(st.booleans()),
                horizon=draw(st.none() | st.floats(t_start - span, t_end + span)),
                recovery_band_ratio=draw(st.floats(0.0, 10.0, exclude_min=True)),
            ),
        )
    except RisktrajError:
        reject()


class TestEveryAcceptedConfigRuns:
    @pytest.mark.filterwarnings("ignore:pulse duration")  # the coarse-step advisory
    @settings(max_examples=150, deadline=None)
    @given(bounded_configs())
    # a recovery band that rounds to 0
    @example(dataclasses.replace(SHORT_DEFAULTS, metrics=dataclasses.replace(
        SHORT_DEFAULTS.metrics, recovery_band_ratio=5e-324)))
    # a risk ramp so narrow that the risk map's division overflows
    @example(dataclasses.replace(SHORT_DEFAULTS, energy=EnergyParams(
        E_max=100.0, E_min=0.0, E_init=50.0, E_ref=1e-320)))
    def test_compare_runs_or_diverges(self, config):
        # a run may diverge, and the forecast may be refused; nothing else fails
        try:
            compare_cases(config)
        except IntegrationDivergedError:
            pass
        except ConfigurationError as exc:
            assert "energy forecast" in str(exc)
