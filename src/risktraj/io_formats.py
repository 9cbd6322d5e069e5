"""Deterministic, round-trippable file formats.

Trajectory tables are plain CSV with a `t` column and one column per
recorded signal; report documents and scenario configs are flat
key-value text. All numbers are written with 17 significant digits so
that write -> read -> write is byte-identical for double precision.
Writers never embed timestamps; identical inputs give identical bytes.

When a trajectory CSV is read, each cell accepts what Python `float`
accepts (surrounding whitespace included), blank lines are skipped, and
a bad row is reported by its line number in the file.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .dynamics import DisturbanceSignal, IntegratorConfig
from .errors import ParameterError, TableParseError
from .metrics import MetricsConfig, ResilienceReport
from .scenario import (
    AnticipatoryPolicy,
    EnergyParams,
    PassivePolicy,
    ReactivePolicy,
    ScenarioConfig,
    SolarProfile,
)
from .trajectory import TimeGrid, Trajectory

ARTIFACT_VERSION = "0.1.0"
REPORT_SCHEMA = "risktraj.report.v1"


NUMBER_FORMAT = "%.17g"  # format_number and the trajectory writer both use it


def format_number(x: float) -> str:
    """17-significant-digit decimal form; lossless for binary doubles."""
    return NUMBER_FORMAT % float(x)


# ---------------------------------------------------------------------------
# trajectory tables


@dataclass(frozen=True)
class TrajectoryTable:
    """Columnar table: strictly increasing uniform t plus named signals."""

    t: np.ndarray
    signals: Mapping[str, np.ndarray]

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ParameterError("need at least two rows")
        if not np.all(np.isfinite(t)):
            raise ParameterError("non-finite time value")
        diffs = np.diff(t)
        if np.any(diffs <= 0):
            raise ParameterError("t must be strictly increasing")
        spread = float(np.max(diffs) - np.min(diffs))
        mean_dt = float(np.mean(diffs))
        if spread > 1e-9 * mean_dt:
            raise ParameterError(
                f"t is not uniformly spaced (relative spread {spread / mean_dt:.3g})"
            )
        if not self.signals:
            raise ParameterError("table needs at least one signal column")
        sig = {}
        for name, col in self.signals.items():
            col = np.asarray(col, dtype=float)
            if col.shape != t.shape:
                raise ParameterError(
                    f"column {name!r} has {len(col)} rows, expected {len(t)}"
                )
            if not np.all(np.isfinite(col)):
                raise ParameterError(f"non-finite value in column {name!r}")
            col = col.copy()
            col.setflags(write=False)
            sig[name] = col
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "signals", sig)

    @property
    def column_names(self) -> tuple[str, ...]:
        return ("t", *self.signals.keys())

    def grid(self) -> TimeGrid:
        dt = float(np.mean(np.diff(self.t)))
        return TimeGrid(t_start=float(self.t[0]), dt=dt, n_samples=len(self.t))

    def trajectory(self, name: str) -> Trajectory:
        if name not in self.signals:
            raise ParameterError(
                f"table has no column {name!r} (columns: {', '.join(self.column_names)})"
            )
        return Trajectory(self.grid(), self.signals[name])


_BLOCK_ROWS = 4096  # rows formatted per `%` operation; bounds peak memory


def _table_chunks(table: TrajectoryTable):
    """CSV text of `table`: the header line, then blocks of formatted rows."""
    yield ",".join(table.column_names) + "\n"
    columns = [table.t, *table.signals.values()]
    row = ",".join([NUMBER_FORMAT] * len(columns)) + "\n"
    for start in range(0, len(table.t), _BLOCK_ROWS):
        block = np.column_stack([col[start:start + _BLOCK_ROWS] for col in columns])
        yield (row * len(block)) % tuple(block.ravel().tolist())


def table_to_text(table: TrajectoryTable) -> str:
    return "".join(_table_chunks(table))


def write_trajectory(table: TrajectoryTable, destination) -> None:
    with open(destination, "w", newline="\n") as fh:
        fh.writelines(_table_chunks(table))


# Line breaks that str.splitlines() honours but numpy's reader does not (it
# takes "\n" and "\r\n" as line ends and refuses a lone "\r"). Text holding
# any of them is parsed line by line, so that rows keep today's boundaries.
_SPLITLINES_ONLY_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                           "\u2028", "\u2029")


def _load_rows(text: str, n_columns: int) -> np.ndarray | None:
    """Parse the body below the header in one C-level pass.

    Returns the rows only when they are certain to equal what `_scan_rows`
    gives and pass every check of `table_from_text`; otherwise None, and
    the line scan decides (and words any error).
    """
    if any(brk in text for brk in _SPLITLINES_ONLY_BREAKS):
        return None
    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError:  # lone surrogates
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on a body with no rows
        try:
            data = np.loadtxt(io.BytesIO(raw), delimiter=",", skiprows=1, ndmin=2,
                              comments=None, encoding="utf-8")
        except ValueError:
            return None
    if (data.shape[1] != n_columns or len(data) < 2
            or not np.isfinite(data).all() or not (np.diff(data[:, 0]) > 0).all()):
        return None
    return data


def _scan_rows(text: str, n_columns: int) -> tuple[list[list[float]], list[int]]:
    """Parse the body line by line: the rows and the line number of each.

    Blank lines are skipped. A row with the wrong number of cells, a cell
    Python `float` rejects or a non-finite value raises, naming its line.
    """
    rows, line_nos = [], []
    for idx, line in enumerate(text.splitlines()[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != n_columns:
            raise TableParseError(
                f"expected {n_columns} cells, found {len(cells)}", line_no=idx
            )
        try:
            values = [float(c) for c in cells]
        except ValueError as exc:
            raise TableParseError(str(exc), line_no=idx) from None
        if not all(math.isfinite(v) for v in values):
            raise TableParseError("non-finite value", line_no=idx)
        rows.append(values)
        line_nos.append(idx)
    return rows, line_nos


def table_from_text(text: str) -> TrajectoryTable:
    if not text:
        raise TableParseError("empty file")
    # The first line as splitlines() would cut it, without splitting the rest.
    first_line = (text.partition("\n")[0].splitlines() or [""])[0]
    header = [h.strip() for h in first_line.split(",")]
    if len(header) < 2 or header[0] != "t":
        raise TableParseError(
            f"header must be 't,<signal>[,...]', got {first_line!r}", line_no=1
        )
    if len(set(header)) != len(header):
        raise TableParseError("duplicate column names", line_no=1)
    data = _load_rows(text, len(header))
    if data is None:
        rows, line_nos = _scan_rows(text, len(header))
        if len(rows) < 2:
            raise TableParseError(f"need at least 2 data rows, found {len(rows)}")
        data = np.array(rows)
        steps = np.diff(data[:, 0])
        if np.any(steps <= 0):
            bad = int(np.flatnonzero(steps <= 0)[0])
            raise TableParseError("t not strictly increasing", line_no=line_nos[bad + 1])
    try:
        return TrajectoryTable(
            t=data[:, 0],
            signals={name: data[:, j] for j, name in enumerate(header) if j > 0},
        )
    except ParameterError as exc:
        raise TableParseError(str(exc)) from None


def read_trajectory(source) -> TrajectoryTable:
    try:
        text = Path(source).read_text()
    except UnicodeDecodeError as exc:
        raise TableParseError(
            f"{source}: not a text file ({exc.reason} at byte {exc.start})"
        ) from None
    return table_from_text(text)


# ---------------------------------------------------------------------------
# report documents

_ABSENT = "absent"
_NOT_RECOVERED = "not_recovered"


@dataclass(frozen=True)
class ReportDocument:
    """Serializable mirror of a ResilienceReport plus provenance."""

    case_id: str
    config_digest: str
    t0: float
    r0: float
    t_peak: float
    lambda_hat: float | None
    fit_quality: float | None
    impact_numeric: float
    impact_closed_form: float | None
    steady_state: float
    recovery_time: float | None
    recovered: bool
    tail_corrected: bool
    absent: Mapping[str, str] = field(default_factory=dict)
    artifact_version: str = ARTIFACT_VERSION

    @classmethod
    def from_report(
        cls, report: ResilienceReport, case_id: str, config_digest: str
    ) -> "ReportDocument":
        return cls(
            case_id=case_id,
            config_digest=config_digest,
            t0=report.t0,
            r0=report.r0,
            t_peak=report.t_peak,
            lambda_hat=report.lambda_hat,
            fit_quality=report.fit_quality,
            impact_numeric=report.impact_numeric,
            impact_closed_form=report.impact_closed_form,
            steady_state=report.steady_state,
            recovery_time=report.recovery_time,
            recovered=report.recovered,
            tail_corrected=report.tail_corrected,
            absent=dict(report.absent),
        )


def _opt_number(x: float | None, none_marker: str) -> str:
    return none_marker if x is None else format_number(x)


def report_to_text(doc: ReportDocument) -> str:
    lines = [
        f"schema = {REPORT_SCHEMA}",
        f"artifact_version = {doc.artifact_version}",
        f"case = {doc.case_id}",
        f"config_digest = {doc.config_digest}",
        f"t0_s = {format_number(doc.t0)}",
        f"r0 = {format_number(doc.r0)}",
        f"t_peak_s = {format_number(doc.t_peak)}",
        f"lambda_hat_per_s = {_opt_number(doc.lambda_hat, _ABSENT)}",
        f"fit_quality = {_opt_number(doc.fit_quality, _ABSENT)}",
        f"impact_numeric = {format_number(doc.impact_numeric)}",
        f"impact_closed_form = {_opt_number(doc.impact_closed_form, _ABSENT)}",
        f"steady_state = {format_number(doc.steady_state)}",
        f"recovery_time_s = {_opt_number(doc.recovery_time, _NOT_RECOVERED)}",
        f"recovered = {'true' if doc.recovered else 'false'}",
        f"tail_corrected = {'true' if doc.tail_corrected else 'false'}",
    ]
    for name in sorted(doc.absent):
        reason = " ".join(str(doc.absent[name]).split())
        lines.append(f"absent.{name} = {reason}")
    return "\n".join(lines) + "\n"


def report_from_text(text: str) -> ReportDocument:
    entries: dict[str, str] = {}
    absent: dict[str, str] = {}
    for idx, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if " = " not in line:
            raise TableParseError(f"expected 'key = value', got {line!r}", line_no=idx)
        key, value = line.split(" = ", 1)
        if key.startswith("absent."):
            absent[key[len("absent."):]] = value
        else:
            if key in entries:
                raise TableParseError(f"duplicate key {key!r}", line_no=idx)
            entries[key] = value

    def need(key: str) -> str:
        if key not in entries:
            raise TableParseError(f"missing key {key!r}")
        return entries[key]

    if need("schema") != REPORT_SCHEMA:
        raise TableParseError(f"unsupported schema {entries['schema']!r}")

    def num(key: str) -> float:
        raw = need(key)
        try:
            return float(raw)
        except ValueError:
            raise TableParseError(f"bad number for {key!r}: {raw!r}") from None

    def opt_num(key: str, none_marker: str) -> float | None:
        raw = need(key)
        if raw == none_marker:
            return None
        try:
            return float(raw)
        except ValueError:
            raise TableParseError(f"bad number for {key!r}: {raw!r}") from None

    def flag(key: str) -> bool:
        raw = need(key)
        if raw not in ("true", "false"):
            raise TableParseError(f"bad boolean for {key!r}: {raw!r}")
        return raw == "true"

    return ReportDocument(
        case_id=need("case"),
        config_digest=need("config_digest"),
        t0=num("t0_s"),
        r0=num("r0"),
        t_peak=num("t_peak_s"),
        lambda_hat=opt_num("lambda_hat_per_s", _ABSENT),
        fit_quality=opt_num("fit_quality", _ABSENT),
        impact_numeric=num("impact_numeric"),
        impact_closed_form=opt_num("impact_closed_form", _ABSENT),
        steady_state=num("steady_state"),
        recovery_time=opt_num("recovery_time_s", _NOT_RECOVERED),
        recovered=flag("recovered"),
        tail_corrected=flag("tail_corrected"),
        absent=absent,
        artifact_version=need("artifact_version"),
    )


def write_report(doc: ReportDocument, destination) -> None:
    Path(destination).write_text(report_to_text(doc), newline="\n")


def read_report(source) -> ReportDocument:
    return report_from_text(Path(source).read_text())


# ---------------------------------------------------------------------------
# scenario configuration files

_BOOL_WORDS = {"true": True, "false": False}


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(float(v))  # shortest lossless form; configs stay readable
    return str(v)


def config_to_parser(config: ScenarioConfig) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    e, s, d, i, m = (
        config.energy,
        config.solar,
        config.disturbance,
        config.integrator,
        config.metrics,
    )
    parser["energy"] = {
        "E_max_J": _fmt_value(e.E_max),
        "E_min_J": _fmt_value(e.E_min),
        "E_init_J": _fmt_value(e.E_init),
        "E_ref_J": _fmt_value(e.E_ref),
    }
    parser["solar"] = {
        "P_peak_W": _fmt_value(s.P_peak),
        "period_s": _fmt_value(s.period),
        "shape_exponent": _fmt_value(s.shape_exponent),
    }
    parser["disturbance"] = {
        "kind": d.kind,
        "onset_s": _fmt_value(d.onset),
        "duration_s": _fmt_value(d.duration),
        "magnitude": _fmt_value(d.magnitude),
    }
    pp = config.policies.get("passive")
    pr = config.policies.get("reactive")
    pa = config.policies.get("anticipatory")
    if pp is not None:
        parser["policy.passive"] = {"P0_W": _fmt_value(pp.P0)}
    if pr is not None:
        parser["policy.reactive"] = {
            "P0_W": _fmt_value(pr.P0),
            "E_on_J": _fmt_value(pr.E_on),
            "E_off_J": _fmt_value(pr.E_off),
            "shed_fraction": _fmt_value(pr.shed_fraction),
        }
    if pa is not None:
        parser["policy.anticipatory"] = {
            "P0_W": _fmt_value(pa.P0),
            "horizon_s": _fmt_value(pa.horizon),
            "E_target_J": _fmt_value(pa.E_target),
            "shed_fraction": _fmt_value(pa.shed_fraction),
            "gain_W_per_J": _fmt_value(pa.gain),
        }
    parser["integrator"] = {
        "dt_s": _fmt_value(i.dt),
        "t_start_s": _fmt_value(i.t_start),
        "t_end_s": _fmt_value(i.t_end),
    }
    parser["metrics"] = {
        "baseline_mode": m.baseline_mode,
        "tail_fraction": _fmt_value(m.tail_fraction),
        "fit_floor_ratio": _fmt_value(m.fit_floor_ratio),
        "min_fit_samples": str(m.min_fit_samples),
        "tail_correction": _fmt_value(m.tail_correction),
        "horizon_s": "end" if m.horizon is None else _fmt_value(m.horizon),
        "recovery_band_ratio": _fmt_value(m.recovery_band_ratio),
    }
    return parser


def _get_num(parser, section: str, key: str) -> float:
    try:
        raw = parser[section][key]
    except KeyError:
        raise TableParseError(f"missing config key [{section}] {key}") from None
    try:
        value = float(raw)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise TableParseError(f"bad number for [{section}] {key}: {raw!r}")


def _get_whole(parser, section: str, key: str) -> int:
    value = _get_num(parser, section, key)
    if not value.is_integer():
        raise TableParseError(
            f"bad number for [{section}] {key}: {value!r} is not a whole number"
        )
    return int(value)


def _get_bool(parser, section: str, key: str) -> bool:
    try:
        raw = parser[section][key]
    except KeyError:
        raise TableParseError(f"missing config key [{section}] {key}") from None
    if raw not in _BOOL_WORDS:
        raise TableParseError(f"bad boolean for [{section}] {key}: {raw!r}")
    return _BOOL_WORDS[raw]


def parser_to_config(parser: configparser.ConfigParser) -> ScenarioConfig:
    for section in ("energy", "solar", "disturbance", "integrator", "metrics"):
        if section not in parser:
            raise TableParseError(f"missing config section [{section}]")
    energy = EnergyParams(
        E_max=_get_num(parser, "energy", "E_max_J"),
        E_min=_get_num(parser, "energy", "E_min_J"),
        E_init=_get_num(parser, "energy", "E_init_J"),
        E_ref=_get_num(parser, "energy", "E_ref_J"),
    )
    solar = SolarProfile(
        P_peak=_get_num(parser, "solar", "P_peak_W"),
        period=_get_num(parser, "solar", "period_s"),
        shape_exponent=_get_num(parser, "solar", "shape_exponent"),
    )
    kind = parser["disturbance"].get("kind", "none")
    disturbance = DisturbanceSignal(
        kind=kind,
        onset=_get_num(parser, "disturbance", "onset_s"),
        duration=_get_num(parser, "disturbance", "duration_s"),
        magnitude=_get_num(parser, "disturbance", "magnitude"),
    )
    policies = {}
    if "policy.passive" in parser:
        policies["passive"] = PassivePolicy(
            P0=_get_num(parser, "policy.passive", "P0_W")
        )
    if "policy.reactive" in parser:
        policies["reactive"] = ReactivePolicy(
            P0=_get_num(parser, "policy.reactive", "P0_W"),
            E_on=_get_num(parser, "policy.reactive", "E_on_J"),
            E_off=_get_num(parser, "policy.reactive", "E_off_J"),
            shed_fraction=_get_num(parser, "policy.reactive", "shed_fraction"),
        )
    if "policy.anticipatory" in parser:
        policies["anticipatory"] = AnticipatoryPolicy(
            P0=_get_num(parser, "policy.anticipatory", "P0_W"),
            horizon=_get_num(parser, "policy.anticipatory", "horizon_s"),
            E_target=_get_num(parser, "policy.anticipatory", "E_target_J"),
            shed_fraction=_get_num(parser, "policy.anticipatory", "shed_fraction"),
            gain=_get_num(parser, "policy.anticipatory", "gain_W_per_J"),
        )
    if not policies:
        raise TableParseError("config defines no [policy.*] section")
    integrator = IntegratorConfig(
        dt=_get_num(parser, "integrator", "dt_s"),
        t_start=_get_num(parser, "integrator", "t_start_s"),
        t_end=_get_num(parser, "integrator", "t_end_s"),
    )
    horizon = None
    if parser["metrics"].get("horizon_s", "end") != "end":
        horizon = _get_num(parser, "metrics", "horizon_s")
    metrics = MetricsConfig(
        baseline_mode=parser["metrics"].get("baseline_mode", "zero"),
        tail_fraction=_get_num(parser, "metrics", "tail_fraction"),
        fit_floor_ratio=_get_num(parser, "metrics", "fit_floor_ratio"),
        min_fit_samples=_get_whole(parser, "metrics", "min_fit_samples"),
        tail_correction=_get_bool(parser, "metrics", "tail_correction"),
        horizon=horizon,
        recovery_band_ratio=_get_num(parser, "metrics", "recovery_band_ratio"),
    )
    return ScenarioConfig(
        energy=energy,
        solar=solar,
        policies=policies,
        disturbance=disturbance,
        integrator=integrator,
        metrics=metrics,
    )


def config_to_text(config: ScenarioConfig) -> str:
    out = io.StringIO()
    config_to_parser(config).write(out)
    return out.getvalue()


def write_scenario_config(config: ScenarioConfig, destination) -> None:
    Path(destination).write_text(config_to_text(config), newline="\n")


def read_config_parser(source) -> configparser.ConfigParser:
    """Parse an INI config file; malformed or undecodable text is a TableParseError."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(source) as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        message = " ".join(str(exc).split())  # one line on stderr
        raise TableParseError(f"config parse failed: {message}") from None
    return parser


def read_scenario_config(source) -> ScenarioConfig:
    return parser_to_config(read_config_parser(source))


def apply_overrides(
    parser: configparser.ConfigParser, overrides: list[str]
) -> configparser.ConfigParser:
    """Apply `section.key=value` pairs onto a parsed config, in order.

    Only existing keys may be named; the config schema stays the single
    source of truth.
    """
    for item in overrides:
        if "=" not in item:
            raise ParameterError(f"override {item!r} is not of the form key=value")
        path, value = item.split("=", 1)
        if "." not in path:
            raise ParameterError(
                f"override key {path!r} must be qualified as section.key"
            )
        section, key = path.rsplit(".", 1)
        if section not in parser or key not in parser[section]:
            raise ParameterError(f"override names unknown config key {path!r}")
        parser[section][key] = value
    return parser


def config_digest(config: ScenarioConfig) -> str:
    blob = config_to_text(config).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()[:16]
