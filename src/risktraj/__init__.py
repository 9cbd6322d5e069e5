"""Risk-trajectory resilience toolkit.

Treats risk as a dynamic state variable: simulate the disturbance
response of an energy-constrained system under three structural control
configurations, then quantify resilience as peak deviation, effective
damping and cumulative impact of the resulting risk trajectory.

Each exported name is imported from its submodule on first use, so a
program that reads and analyzes trajectories never loads the simulator,
and one that builds a config loads its types (`config`) alone.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "DisturbanceSignal", "EnergyParams", "IntegratorConfig", "LoadPolicy",
        "RiskMap", "ScenarioConfig", "SolarProfile",
    ), "config"),
    **dict.fromkeys((
        "DynamicalSystem", "IntegrationResult", "integrate", "linear_decay_system",
    ), "dynamics"),
    **dict.fromkeys((
        "ConfigurationError", "InsufficientRecoveryDataError",
        "IntegrationDivergedError", "NoDampingError", "ParameterError",
        "RisktrajError", "TableParseError",
    ), "errors"),
    **dict.fromkeys((
        "MetricsConfig", "ResilienceReport", "assemble_report", "closed_form_impact",
        "cumulative_impact", "estimate_damping", "peak_deviation", "recovery_time",
    ), "metrics"),
    "CASE_IDS": "io_formats",
    **dict.fromkeys((
        "CaseResult", "ComparisonResult", "build_case", "compare_cases",
        "default_config", "risk_of_energy", "run_case",
    ), "scenario"),
    **dict.fromkeys((
        "SteadyStateEstimate", "TimeGrid", "Trajectory", "estimate_steady_state",
    ), "trajectory"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
