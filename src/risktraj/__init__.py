"""Risk-trajectory resilience toolkit.

Treats risk as a dynamic state variable: simulate the disturbance
response of an energy-constrained system under three structural control
configurations, then quantify resilience as peak deviation, effective
damping and cumulative impact of the resulting risk trajectory.
"""

from .dynamics import (
    DisturbanceSignal,
    DynamicalSystem,
    IntegrationResult,
    IntegratorConfig,
    integrate,
    linear_decay_system,
)
from .errors import (
    ConfigurationError,
    InsufficientRecoveryDataError,
    IntegrationDivergedError,
    NoDampingError,
    ParameterError,
    RisktrajError,
    TableParseError,
)
from .metrics import (
    MetricsConfig,
    ResilienceReport,
    assemble_report,
    closed_form_impact,
    cumulative_impact,
    estimate_damping,
    peak_deviation,
    recovery_time,
)
from .scenario import (
    CASE_IDS,
    AnticipatoryPolicy,
    CaseResult,
    ComparisonResult,
    EnergyParams,
    PassivePolicy,
    ReactivePolicy,
    RiskMap,
    ScenarioConfig,
    SolarProfile,
    build_case,
    compare_cases,
    default_config,
    risk_of_energy,
    run_case,
)
from .trajectory import (
    SteadyStateEstimate,
    TimeGrid,
    Trajectory,
    estimate_steady_state,
)

__version__ = "0.1.0"

__all__ = [
    "AnticipatoryPolicy",
    "CASE_IDS",
    "CaseResult",
    "ComparisonResult",
    "ConfigurationError",
    "DisturbanceSignal",
    "DynamicalSystem",
    "EnergyParams",
    "InsufficientRecoveryDataError",
    "IntegrationDivergedError",
    "IntegrationResult",
    "IntegratorConfig",
    "MetricsConfig",
    "NoDampingError",
    "ParameterError",
    "PassivePolicy",
    "ReactivePolicy",
    "ResilienceReport",
    "RiskMap",
    "RisktrajError",
    "ScenarioConfig",
    "SolarProfile",
    "SteadyStateEstimate",
    "TableParseError",
    "TimeGrid",
    "Trajectory",
    "assemble_report",
    "build_case",
    "closed_form_impact",
    "compare_cases",
    "cumulative_impact",
    "default_config",
    "estimate_damping",
    "estimate_steady_state",
    "integrate",
    "linear_decay_system",
    "peak_deviation",
    "recovery_time",
    "risk_of_energy",
    "run_case",
]
