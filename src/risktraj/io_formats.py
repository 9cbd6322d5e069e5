"""Deterministic, round-trippable file formats.

Trajectory tables are plain CSV with a `t` column and one column per
recorded signal; report documents and scenario configs are flat
key-value text. All numbers are written with 17 significant digits so
that write -> read -> write is byte-identical for double precision.
Writers never embed timestamps; identical inputs give identical bytes.

When a trajectory CSV is read, each cell accepts what Python `float`
accepts (surrounding whitespace included), blank lines are skipped, and
a bad row is reported by its line number in the file.

The rows are parsed by one `np.loadtxt` call, or line by line where that
call cannot be sure to read them as Python `float` does.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from .errors import ConfigurationError, ParameterError, TableParseError
from .metrics import ResilienceReport
from .trajectory import TimeGrid, Trajectory

if TYPE_CHECKING:
    import configparser

    from .config import ScenarioConfig

ARTIFACT_VERSION = "0.1.0"


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
        with np.errstate(over="ignore", invalid="ignore"):
            diffs = np.diff(t)
            mean_dt = float(np.mean(diffs))
        if np.any(diffs <= 0):
            raise ParameterError("t must be strictly increasing")
        if not math.isfinite(mean_dt):  # else the spread could be inf - inf = nan
            raise ParameterError("the steps of t overflow")
        spread = float(np.max(diffs) - np.min(diffs))
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


def _table_blocks(table: TrajectoryTable):
    """CSV text of `table`: its header line, then blocks of formatted rows."""
    from .csv_rows import _format_rows

    yield ",".join(table.column_names) + "\n"
    yield from _format_rows([table.t, *table.signals.values()])


def table_to_text(table: TrajectoryTable) -> str:
    return "".join(_table_blocks(table))


def write_trajectory(table: TrajectoryTable, destination) -> None:
    """Write `table` as CSV, a block of rows at a time; the bytes equal
    `table_to_text(table)`."""
    with open(destination, "w", newline="\n") as fh:
        fh.writelines(_table_blocks(table))


# Line breaks that str.splitlines() honours but numpy's reader does not (it
# takes "\n" and "\r\n" as line ends and refuses a lone "\r"). Text holding
# any of them is parsed line by line, so that rows keep today's boundaries.
_SPLITLINES_ONLY_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                           "\u2028", "\u2029")


def _load_rows(text: str, n_columns: int) -> np.ndarray | None:
    """Parse the body below the header in one `np.loadtxt` call.

    Returns the rows only when they are certain to equal what `_scan_rows`
    gives and pass every check of `table_from_text`; otherwise None, and
    the line scan decides (and words any error).
    """
    if any(brk in text for brk in _SPLITLINES_ONLY_BREAKS):
        return None
    try:
        raw = io.BytesIO(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a body with no rows
            data = np.loadtxt(raw, delimiter=",", skiprows=1, ndmin=2, comments=None,
                              encoding="utf-8")
    except ValueError:  # also UnicodeEncodeError, for lone surrogates
        return None
    if (data.shape[1] != n_columns or len(data) < 2 or not np.isfinite(data).all()
            or not (data[1:, 0] > data[:-1, 0]).all()):
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
        rises = data[1:, 0] > data[:-1, 0]  # no subtraction, which may overflow
        if not rises.all():
            bad = int(np.argmin(rises))
            raise TableParseError("t not strictly increasing", line_no=line_nos[bad + 1])
    try:
        return TrajectoryTable(
            t=data[:, 0],
            signals={name: data[:, j] for j, name in enumerate(header) if j > 0},
        )
    except ParameterError as exc:
        raise TableParseError(str(exc)) from None


def _read_text(source, digest) -> str:
    """The text of file source, decoded as Path.read_text() decodes it
    (locale encoding, universal newlines); digest, when given, is updated
    with the bytes read. Only the text outlives the call, so the bytes are
    freed before the parse."""
    raw = Path(source).read_bytes()
    if digest is not None:
        digest.update(raw)
    try:
        return io.TextIOWrapper(io.BytesIO(raw)).read()
    except UnicodeDecodeError as exc:
        raise TableParseError(
            f"{source}: not a text file ({exc.reason} at byte {exc.start})"
        ) from None


def read_trajectory(source, digest=None) -> TrajectoryTable:
    """The table in the CSV file source.

    digest, when given, is a hashlib object; it is updated with the bytes
    that were parsed, so the file is read once.
    """
    return table_from_text(_read_text(source, digest))


# ---------------------------------------------------------------------------
# value kinds shared by the report and config tables

_NUMBER = "number"  # finite
_WHOLE = "whole"
_FLAG = "flag"  # true or false
_WORD = "word"
# The kind "number|<word>" is a number that may be absent (None), written <word>.

_FLAG_WORDS = {"true": True, "false": False}


def _format_value(value, kind: str, number: Callable[[float], str]) -> str:
    """Text of one table value; `number` writes the numbers."""
    if value is None:
        return kind.partition("|")[2]
    if kind == _FLAG:
        return "true" if value else "false"
    if kind in (_WORD, _WHOLE):
        return str(value)
    return number(value)


def _parse_value(raw: str, kind: str, where: str):
    """Value of one table entry; `where` names the entry in error messages."""
    kind, _, marker = kind.partition("|")
    if kind == _WORD:
        return raw
    if marker and raw == marker:
        return None
    if kind == _FLAG:
        if raw not in _FLAG_WORDS:
            raise TableParseError(f"bad boolean for {where}: {raw!r}")
        return _FLAG_WORDS[raw]
    try:
        value = float(raw)
    except ValueError:
        raise TableParseError(f"bad number for {where}: {raw!r}") from None
    if not math.isfinite(value):
        raise TableParseError(f"bad number for {where}: {raw!r}")
    if kind == _WHOLE:
        if not value.is_integer():
            raise TableParseError(
                f"bad number for {where}: {value!r} is not a whole number"
            )
        return int(value)
    return value


# ---------------------------------------------------------------------------
# report documents

REPORT_SCHEMA = "risktraj.report.v1"
_ABSENT = "absent"

# (key, attribute, kind) in file order, below the schema line.
_REPORT_KEYS = (
    ("artifact_version", "artifact_version", _WORD),
    ("case", "case_id", _WORD),
    ("config_digest", "config_digest", _WORD),
    ("t0_s", "t0", _NUMBER),
    ("r0", "r0", _NUMBER),
    ("t_peak_s", "t_peak", _NUMBER),
    ("lambda_hat_per_s", "lambda_hat", f"{_NUMBER}|{_ABSENT}"),
    ("fit_quality", "fit_quality", f"{_NUMBER}|{_ABSENT}"),
    ("impact_numeric", "impact_numeric", _NUMBER),
    ("impact_closed_form", "impact_closed_form", f"{_NUMBER}|{_ABSENT}"),
    ("steady_state", "steady_state", _NUMBER),
    ("recovery_time_s", "recovery_time", f"{_NUMBER}|not_recovered"),
    ("recovered", "recovered", _FLAG),
    ("tail_corrected", "tail_corrected", _FLAG),
)


@dataclass(frozen=True, kw_only=True)
class ReportDocument(ResilienceReport):
    """A ResilienceReport plus its provenance."""

    case_id: str
    config_digest: str
    artifact_version: str = ARTIFACT_VERSION

    @classmethod
    def from_report(
        cls, report: ResilienceReport, case_id: str, config_digest: str
    ) -> "ReportDocument":
        values = {f.name: getattr(report, f.name) for f in fields(ResilienceReport)}
        return cls(**values, case_id=case_id, config_digest=config_digest)


def report_values(report: ResilienceReport) -> dict[str, str]:
    """Report key -> value text, for the keys `report` carries.

    A bare ResilienceReport has no provenance keys.
    """
    return {
        key: _format_value(getattr(report, attr), kind, format_number)
        for key, attr, kind in _REPORT_KEYS
        if hasattr(report, attr)
    }


def report_to_text(doc: ReportDocument) -> str:
    lines = [f"schema = {REPORT_SCHEMA}"]
    lines += [f"{key} = {text}" for key, text in report_values(doc).items()]
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
    try:
        return ReportDocument(
            **{attr: _parse_value(need(key), kind, repr(key))
               for key, attr, kind in _REPORT_KEYS},
            absent=absent,
        )
    except ParameterError as exc:
        raise TableParseError(str(exc)) from None


def write_report(doc: ReportDocument, destination) -> None:
    Path(destination).write_text(report_to_text(doc), newline="\n")


def read_report(source) -> ReportDocument:
    return report_from_text(Path(source).read_text())


# ---------------------------------------------------------------------------
# scenario configuration files

# The structural cases; a [policy.<case>] section builds config.policies[<case>].
CASE_IDS = ("passive", "reactive", "anticipatory")
DEFAULT_CONFIG_PATH = Path(__file__).parent / "data" / "default_scenario.ini"
_POLICY = "policy."

# section -> (name of the dataclass it builds, its (key, attribute, kind) in
# file order). The classes are taken from `config` when a config is built, so
# reading a trajectory loads none of them, and building a config loads them
# without the simulator.
_CONFIG_SECTIONS = {
    "energy": ("EnergyParams", (
        ("E_max_J", "E_max", _NUMBER),
        ("E_min_J", "E_min", _NUMBER),
        ("E_init_J", "E_init", _NUMBER),
        ("E_ref_J", "E_ref", _NUMBER),
    )),
    "solar": ("SolarProfile", (
        ("P_peak_W", "P_peak", _NUMBER),
        ("period_s", "period", _NUMBER),
        ("shape_exponent", "shape_exponent", _NUMBER),
    )),
    "disturbance": ("DisturbanceSignal", (
        ("kind", "kind", _WORD),
        ("onset_s", "onset", _NUMBER),
        ("duration_s", "duration", _NUMBER),
        ("magnitude", "magnitude", _NUMBER),
    )),
    "policy.passive": ("LoadPolicy", (
        ("P0_W", "P0", _NUMBER),
    )),
    "policy.reactive": ("LoadPolicy", (
        ("P0_W", "P0", _NUMBER),
        ("E_on_J", "E_on", _NUMBER),
        ("E_off_J", "E_off", _NUMBER),
        ("shed_fraction", "shed_fraction", _NUMBER),
    )),
    "policy.anticipatory": ("LoadPolicy", (
        ("P0_W", "P0", _NUMBER),
        ("horizon_s", "horizon", _NUMBER),
        ("E_target_J", "E_target", _NUMBER),
        ("shed_fraction", "shed_fraction", _NUMBER),
        ("gain_W_per_J", "gain", _NUMBER),
    )),
    "integrator": ("IntegratorConfig", (
        ("dt_s", "dt", _NUMBER),
        ("t_start_s", "t_start", _NUMBER),
        ("t_end_s", "t_end", _NUMBER),
    )),
    "metrics": ("MetricsConfig", (
        ("baseline_mode", "baseline_mode", _WORD),
        ("tail_fraction", "tail_fraction", _NUMBER),
        ("fit_floor_ratio", "fit_floor_ratio", _NUMBER),
        ("min_fit_samples", "min_fit_samples", _WHOLE),
        ("tail_correction", "tail_correction", _FLAG),
        ("horizon_s", "horizon", f"{_NUMBER}|end"),
        ("recovery_band_ratio", "recovery_band_ratio", _NUMBER),
    )),
}

# The keys a file may leave out, and the text they then read as.
_CONFIG_OPTIONAL = {
    ("disturbance", "kind"): "none",
    ("metrics", "baseline_mode"): "zero",
    ("metrics", "horizon_s"): "end",
}


def _config_parser() -> configparser.ConfigParser:
    """An empty ConfigParser: no interpolation, keys kept as written."""
    import configparser  # loaded only where a config is read or written

    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    return parser


def config_to_parser(config: ScenarioConfig) -> configparser.ConfigParser:
    parser = _config_parser()
    for section, (_, keys) in _CONFIG_SECTIONS.items():
        case_id = section.removeprefix(_POLICY)
        part = (getattr(config, section) if case_id == section
                else config.policies.get(case_id))
        if part is not None:  # None: a policy the config lacks
            listed = {attr: getattr(part, attr) for _, attr, _ in keys}
            # the written file would drop a field its section has no key for
            if type(part)(**listed) != part:
                raise ConfigurationError(f"[{section}] lacks a key that {part!r} sets")
            parser[section] = {
                # repr: the shortest lossless form, so configs stay readable
                key: _format_value(listed[attr], kind, lambda x: repr(float(x)))
                for key, attr, kind in keys
            }
    return parser


def _config_value(parser, section: str, key: str, kind: str):
    raw = parser[section].get(key, _CONFIG_OPTIONAL.get((section, key)))
    if raw is None:
        raise TableParseError(f"missing config key [{section}] {key}")
    return _parse_value(raw, kind, f"[{section}] {key}")


def parser_to_config(parser: configparser.ConfigParser) -> ScenarioConfig:
    from . import config  # the config types; reading a trajectory needs none

    for section in _CONFIG_SECTIONS:
        if section not in parser and not section.startswith(_POLICY):
            raise TableParseError(f"missing config section [{section}]")
    parts, policies = {}, {}
    for section, (class_name, keys) in _CONFIG_SECTIONS.items():
        if section in parser:
            build = getattr(config, class_name)
            part = build(**{attr: _config_value(parser, section, key, kind)
                            for key, attr, kind in keys})
            if section.startswith(_POLICY):
                policies[section.removeprefix(_POLICY)] = part
            else:
                parts[section] = part
    if not policies:
        raise TableParseError("config defines no [policy.*] section")
    return config.ScenarioConfig(policies=policies, **parts)


def config_to_text(config: ScenarioConfig) -> str:
    out = io.StringIO()
    config_to_parser(config).write(out)
    return out.getvalue()


def write_scenario_config(config: ScenarioConfig, destination) -> None:
    Path(destination).write_text(config_to_text(config), newline="\n")


def read_config_parser(source) -> configparser.ConfigParser:
    """Parse an INI config file; malformed or undecodable text is a TableParseError."""
    import configparser

    parser = _config_parser()
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
    import hashlib  # loads OpenSSL, which a command that hashes nothing skips

    blob = config_to_text(config).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()[:16]
