import configparser
import io
import math
import os
import re
import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from risktraj import csv_rows, io_formats
from risktraj.config import (
    DisturbanceSignal,
    EnergyParams,
    IntegratorConfig,
    LoadPolicy,
    ScenarioConfig,
    SolarProfile,
)
from risktraj.errors import ParameterError, RisktrajError, TableParseError
from risktraj.io_formats import (
    ReportDocument,
    TrajectoryTable,
    apply_overrides,
    config_digest,
    config_to_parser,
    config_to_text,
    format_number,
    parser_to_config,
    read_report,
    read_scenario_config,
    read_trajectory,
    report_from_text,
    report_to_text,
    table_from_text,
    table_to_text,
    write_report,
    write_scenario_config,
    write_trajectory,
)
from risktraj.metrics import (
    ABSENT_METRICS,
    BASELINE_MODES,
    MetricsConfig,
    ResilienceReport,
    assemble_report,
)
from risktraj.record import fields, replace
from risktraj.scenario import default_config, run_case
from risktraj.svgplot import emit_plot
from risktraj.trajectory import TimeGrid, Trajectory


def small_table():
    t = 0.5 * np.arange(6)
    return TrajectoryTable(
        t=t, signals={"r": np.exp(-t), "E": 50.0 + t}
    )


class TestTrajectoryTable:
    @pytest.mark.parametrize("t, signals, message", [
        ([0.0], {"r": [1.0]}, "need at least two rows"),
        ([0.0, math.nan], {"r": [1.0, 1.0]}, "non-finite time value"),
        ([1.0, 0.0], {"r": [1.0, 1.0]}, "t must be strictly increasing"),
        ([0.0, 1.0], {}, "table needs at least one signal column"),
        ([0.0, 1.0], {"r": [1.0]}, "column 'r' has 1 rows, expected 2"),
        ([0.0, 1.0], {"r": [1.0, math.inf]}, "non-finite value in column 'r'"),
    ])
    def test_constructor_refusals(self, t, signals, message):
        with pytest.raises(ParameterError, match=rf"^{re.escape(message)}$"):
            TrajectoryTable(t=np.array(t), signals=signals)

    def test_round_trip_equality(self, tmp_path):
        path = tmp_path / "table.csv"
        table = small_table()
        write_trajectory(table, path)
        back = read_trajectory(path)
        assert back.column_names == table.column_names
        assert np.array_equal(back.t, table.t)
        for name in table.signals:
            assert np.array_equal(back.signals[name], table.signals[name])

    def test_write_read_write_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory(small_table(), p1)
        write_trajectory(read_trajectory(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_two_sample_zero_trajectory(self):
        table = TrajectoryTable(t=np.array([0.0, 1.0]),
                                signals={"r": np.zeros(2)})
        lines = table_to_text(table).splitlines()
        assert lines[0] == "t,r"
        assert len(lines) == 3

    def test_header_and_newline_termination(self):
        text = table_to_text(small_table())
        assert text.startswith("t,r,E\n")
        assert text.endswith("\n")

    def test_scenario_run_columns(self, tmp_path):
        config = replace(
            default_config(),
            integrator=replace(default_config().integrator,
                               dt=0.01, t_end=48.0),
        )
        result = run_case("passive", config)
        table = TrajectoryTable(
            t=result.energy.times(),
            signals={
                "E": result.energy.values,
                "P_in": result.p_in.values,
                "P_load": result.p_load.values,
                "r": result.risk.values,
            },
        )
        path = tmp_path / "run.csv"
        write_trajectory(table, path)
        assert path.read_text().splitlines()[0] == "t,E,P_in,P_load,r"

    def test_seventeen_digit_round_trip(self):
        rng = np.random.default_rng(5)
        t = 0.1 * np.arange(50)
        values = rng.normal(size=50) * 10.0 ** rng.integers(-6, 7, size=50)
        table = TrajectoryTable(t=t, signals={"r": values})
        back = table_from_text(table_to_text(table))
        assert np.array_equal(back.signals["r"], values)

    def test_signals_are_a_read_only_copy(self):
        # a column set after construction once got past every check
        signals = {"r": np.array([1.0, 0.5])}
        table = TrajectoryTable(t=np.array([0.0, 1.0]), signals=signals)
        signals["E"] = np.array([np.nan, np.nan])
        with pytest.raises(TypeError):
            table.signals["r"] = np.array([np.nan])
        assert table.column_names == ("t", "r")
        assert table_to_text(table) == "t,r\n0,1\n1,0.5\n"

    def test_trajectory_accessor(self):
        table = small_table()
        traj = table.trajectory("r")
        assert isinstance(traj, Trajectory)
        assert traj.grid.dt == pytest.approx(0.5)
        with pytest.raises(ParameterError):
            table.trajectory("missing")


class TestTrajectoryParsingErrors:
    def test_nan_cell_names_line(self):
        text = "t,r\n0,1\n0.5,nan\n1,0.5\n"
        with pytest.raises(TableParseError, match="line 3"):
            table_from_text(text)

    def test_ragged_row_names_line(self):
        text = "t,r\n0,1\n0.5\n1,0.5\n"
        with pytest.raises(TableParseError, match="line 3"):
            table_from_text(text)

    def test_duplicate_column_names(self):
        with pytest.raises(TableParseError, match=r"^line 1: duplicate column names$"):
            table_from_text("t,r,r\n0,1,1\n1,1,1\n")

    def test_non_numeric_cell(self):
        text = "t,r\n0,1\n0.5,abc\n"
        with pytest.raises(TableParseError, match="line 3"):
            table_from_text(text)

    def test_non_increasing_time(self):
        text = "t,r\n0,1\n0.5,1\n0.5,1\n"
        with pytest.raises(TableParseError, match="increasing"):
            table_from_text(text)

    def test_non_uniform_time(self):
        text = "t,r\n0,1\n0.5,1\n1.2,1\n"
        with pytest.raises(TableParseError, match="uniform"):
            table_from_text(text)

    def test_late_uniform_time_is_read(self):
        # each time 1.7e9 + 0.1*k is rounded to its own ulp, 2.4e-7 here
        t = 1.7e9 + 0.1 * np.arange(1000)
        r = np.exp(-0.05 * 0.1 * np.arange(1000))
        text = table_to_text(TrajectoryTable(t=t, signals={"r": r}))
        traj = table_from_text(text).trajectory("r")
        report = assemble_report(traj, traj.grid.t_start, MetricsConfig())
        # times off by 2.4e-7 over a 60 s fit move the rate by about 1e-9
        assert report.lambda_hat == pytest.approx(0.05, rel=1e-8)

    def test_bad_header(self):
        with pytest.raises(TableParseError):
            table_from_text("time,r\n0,1\n1,1\n")

    def test_too_few_rows(self):
        with pytest.raises(TableParseError):
            table_from_text("t,r\n0,1\n")

    def test_empty(self):
        with pytest.raises(TableParseError):
            table_from_text("")

    def test_non_increasing_time_after_blank_line(self):
        text = "t,r\n\n0,1\n0.5,1\n0.5,1\n"
        with pytest.raises(TableParseError, match="^line 5: t not strictly increasing$"):
            table_from_text(text)

    def test_non_increasing_time_after_blank_lines_between_rows(self):
        text = "t,r\n0,1\n\n\n0.5,1\n0.25,1\n"
        with pytest.raises(TableParseError, match="^line 6: t not strictly increasing$"):
            table_from_text(text)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", [
        "t,r\n-1e308,0\n1e308,1\n",         # one step past the largest double
        "t,r\n-1e308,0\n1e308,1_0\n",       # the same, read by the line scan
        "t,r\n-1e308,0\n0,1\n1e308,1\n",    # finite steps whose sum overflows
    ])
    def test_overflowing_time_steps(self, text):
        # inf steps made the spread inf - inf = nan, which passed the
        # uniform-spacing check
        with pytest.raises(TableParseError, match="^the steps of t overflow$"):
            table_from_text(text)
        with pytest.raises(ParameterError, match="overflow"):
            TrajectoryTable(t=np.array([-1e308, 1e308]), signals={"r": np.zeros(2)})

    @pytest.mark.parametrize("text", ["t,r\n", "t,r\n\n  \n", "t,r\n0,1\n"])
    def test_no_data_raises_without_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TableParseError, match="need at least 2 data rows"):
                table_from_text(text)


def reference_table_from_text(text: str) -> TrajectoryTable:
    """The per-line reader: every line from splitlines(), one float() per cell."""
    lines = text.splitlines()
    if not lines:
        raise TableParseError("empty file")
    header = [h.strip() for h in lines[0].split(",")]
    if len(header) < 2 or header[0] != "t":
        raise TableParseError(
            f"header must be 't,<signal>[,...]', got {lines[0]!r}", line_no=1
        )
    if len(set(header)) != len(header):
        raise TableParseError("duplicate column names", line_no=1)
    rows, line_nos = [], []
    for idx, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise TableParseError(
                f"expected {len(header)} cells, found {len(cells)}", line_no=idx
            )
        try:
            values = [float(c) for c in cells]
        except ValueError as exc:
            raise TableParseError(str(exc), line_no=idx) from None
        if not all(math.isfinite(v) for v in values):
            raise TableParseError("non-finite value", line_no=idx)
        rows.append(values)
        line_nos.append(idx)
    if len(rows) < 2:
        raise TableParseError(f"need at least 2 data rows, found {len(rows)}")
    t = np.array([row[0] for row in rows])
    for k in range(1, len(rows)):
        if not t[k] > t[k - 1]:
            raise TableParseError("t not strictly increasing", line_no=line_nos[k])
    try:
        return TrajectoryTable(
            t=t,
            signals={name: np.array([row[j] for row in rows])
                     for j, name in enumerate(header) if j > 0},
        )
    except ParameterError as exc:
        raise TableParseError(str(exc)) from None


_GOOD_NUMBERS = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda x: st.sampled_from([repr(x), f" {x!r} ", "%.3e" % x, "%.17g" % x])
)
_BAD_CELLS = st.sampled_from(
    ["", " ", "nan", "inf", "-inf", "NaN", "1_0", "1_000.5", "abc", "0x1", "#1",
     "1e999", "\xa01\xa0", "1\x00"]
)
_LINE_KINDS = ["row"] * 8 + ["blank", "spaces", "ragged", "trailing_comma",
                             "bad_cell", "comment", "repeat_t", "back_t"]
_LINE_ENDS = ["\n"] * 6 + ["\r\n", "\r", "\x0c", "\u2028"]


@st.composite
def csv_texts(draw):
    """Mostly valid trajectory CSV text, with some lines of every known defect."""
    n_cols = draw(st.integers(2, 4))
    # Now and then every row has a column more or fewer than the header.
    header_cols = max(2, n_cols + draw(st.sampled_from([0] * 6 + [-1, 1])))
    lines = [",".join(["t"] + [f"s{j}" for j in range(1, header_cols)])]
    # "clean" texts (valid rows and empty lines ended by "\n") reach the fast
    # parse, "benign" ones the line scan without an error, "any" the errors.
    mode = draw(st.sampled_from(["clean", "benign", "any"]))
    kinds = {"clean": ["row"] * 8 + ["blank"],
             "benign": ["row"] * 8 + ["blank", "spaces"],
             "any": _LINE_KINDS}[mode]
    k = 0
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=14)):
        t = 0.25 * k
        cells = [repr(t)] + [draw(_GOOD_NUMBERS) for _ in range(n_cols - 1)]
        if kind == "row":
            k += 1
        elif kind == "blank":
            cells = [""]
        elif kind == "spaces":
            cells = [draw(st.sampled_from([" ", "\t", "  \t "]))]
        elif kind == "ragged":
            cells = cells[: draw(st.integers(1, n_cols - 1))] if draw(st.booleans()) \
                else cells + ["1"]
        elif kind == "trailing_comma":
            cells = cells + [""]
        elif kind == "bad_cell":
            cells[draw(st.integers(0, n_cols - 1))] = draw(_BAD_CELLS)
        elif kind == "comment":
            cells[0] = "#" + cells[0]
        elif kind == "repeat_t":
            cells[0] = repr(0.25 * max(k - 1, 0))
        elif kind == "back_t":
            cells[0] = repr(0.25 * k - 0.125)
        lines.append(",".join(cells))
    ends = [draw(st.sampled_from(["\n"] if mode == "clean" else _LINE_ENDS))
            for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _outcome(parse, text):
    try:
        table = parse(text)
    except TableParseError as exc:
        return ("error", str(exc))
    return ("table", table)


class TestReaderMatchesLineScan:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(csv_texts())
    def test_same_table_or_same_error(self, text):
        got = _outcome(table_from_text, text)
        want = _outcome(reference_table_from_text, text)
        assert got[0] == want[0], (got, want)
        if got[0] == "error":
            assert got[1] == want[1]
        else:
            assert got[1].column_names == want[1].column_names
            assert np.array_equal(got[1].t, want[1].t)
            for name in want[1].signals:
                assert np.array_equal(got[1].signals[name], want[1].signals[name])

    @pytest.mark.parametrize("text", [
        "t,r\r0,1\n0.25,2\n0.5,3\n",
        *(f"t,r,s\n0,1{brk},2\n0.25,1,2\n"
          for brk in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")),
        "t,r\n0,1,2\n0.25,2,3\n",
        "t,r,s\n0,1\n0.25,2\n",
        "t,r\n0,1\n0.25,\ud800\n",
    ])
    def test_texts_numpy_reads_differently(self, text):
        got = _outcome(table_from_text, text)
        want = _outcome(reference_table_from_text, text)
        if want[0] == "error":
            assert got == want
        else:
            assert got[0] == "table"
            assert np.array_equal(got[1].t, want[1].t)
            assert np.array_equal(got[1].signals["r"], want[1].signals["r"])

    def test_underscore_cells_accepted_as_python_float_reads_them(self):
        table = table_from_text("t,r\n0,1_0\n1,2\n")
        assert table.signals["r"].tolist() == [10.0, 2.0]

    def test_blank_lines_and_crlf_accepted(self):
        table = table_from_text("t,r\r\n0,1\r\n\r\n  \n1, 2 \n")
        assert table.t.tolist() == [0.0, 1.0]
        assert table.signals["r"].tolist() == [1.0, 2.0]


_SPECIAL_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    float(2 ** 53 + 1), float(2 ** 53), 1e16, 1e17, 0.1, 1 / 3, -2.5,
    1e-5, 1e-4, 9.9999999999999995e-5, 1e15, 123456789012345678.0, 1e21, 1e22,
]


def _wide_values(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 301, size=n)
    values[: len(_SPECIAL_VALUES)] = _SPECIAL_VALUES[:n]
    return values


# The doubles nearest 10^j and their neighbours, where the written exponent
# changes; the ends of fixed notation, near 1e-4 and 1e17 (99999999999999999.0
# is the double 1e17, written "1e+17"); exact ties at 17 digits; zeros.
_POWERS_OF_TEN = np.array([float(f"1e{j}") for j in range(-5, 19)])
_EDGE_VALUES = [
    *np.nextafter(_POWERS_OF_TEN, 0.0), *_POWERS_OF_TEN,
    *np.nextafter(_POWERS_OF_TEN, np.inf),
    9.9999999999999995e-05, 1e-4, 99999999999999999.0, 99999999999999984.0,
    1234567890123456.25, 1234567890123456.75, 0.5, 2.5, -0.0, 0.0,
]

_CELL_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.floats(1e-4, 1e17, exclude_max=True),
                         st.floats(-1e17, -1e-4, exclude_min=True))


@st.composite
def tables(draw):
    n_rows = draw(st.integers(2, 20))
    columns = draw(st.lists(st.lists(_CELL_VALUES, min_size=n_rows, max_size=n_rows),
                            min_size=1, max_size=3))
    t_start = draw(st.floats(-1e3, 1e3))
    dt = draw(st.floats(1e-3, 1e3))
    return TrajectoryTable(t=t_start + dt * np.arange(n_rows),
                           signals={f"s{j}": col for j, col in enumerate(columns)})


def reference_table_text(table: TrajectoryTable) -> str:
    lines = [",".join(table.column_names)]
    columns = [table.t, *table.signals.values()]
    for row in zip(*columns):
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


def _assert_numpy_writes_fixed_notation(values: np.ndarray, numbers: list[str]):
    """Only the cells that `%.17g` writes in exponent notation are left to it."""
    fallback = csv_rows._format_cells(values, np.empty((len(values), 5), np.uint64))
    assert fallback.tolist() == ["e" in number for number in numbers]


class TestWriterMatchesPerCellFormat:
    def test_format_number_matches_format_spec(self):
        for x in [*_SPECIAL_VALUES, *_wide_values(2000, 11)]:
            assert format_number(x) == format(float(x), ".17g")

    @pytest.mark.parametrize("n_rows", [2, 4095, 4096, 4097, 8193])
    def test_table_text_byte_identical(self, tmp_path, n_rows):
        table = TrajectoryTable(
            t=0.01 * np.arange(n_rows) - 3.0,
            signals={"E": _wide_values(n_rows, n_rows),
                     "r": np.resize(np.array(_SPECIAL_VALUES), n_rows)},
        )
        text = table_to_text(table)
        assert text == reference_table_text(table)
        path = tmp_path / "table.csv"
        write_trajectory(table, path)
        assert path.read_bytes() == text.encode()

    def test_edge_values_and_negative_times(self):
        values = [*_EDGE_VALUES, *(-v for v in _EDGE_VALUES)]
        table = TrajectoryTable(t=-0.25 * np.arange(len(values))[::-1],
                                signals={"x": values, "neg": [-v for v in values]})
        assert table.t[0] < 0
        assert table_to_text(table) == reference_table_text(table)
        _assert_numpy_writes_fixed_notation(np.array(values), ["%.17g" % v for v in values])

    @settings(max_examples=100, deadline=None)
    @given(table=tables())
    def test_drawn_tables_byte_identical(self, table):
        assert table_to_text(table) == reference_table_text(table)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(12)
        bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64)
        # every other one with a binary exponent of fixed notation, 2**-15..2**56
        exponents = rng.integers(1023 - 15, 1023 + 57, 100_000, dtype=np.uint64)
        bits[::2] = (bits[::2] & np.uint64(~(0x7FF << 52) & (2**64 - 1))
                     | exponents << np.uint64(52))
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        numbers = ["%.17g" % v for v in values.tolist()]
        assert "".join(csv_rows._format_rows([values])) == (
            "\n".join(numbers) + "\n")
        _assert_numpy_writes_fixed_notation(values, numbers)

    def test_one_process_write_peak_memory(self, tmp_path, default_comparison):
        """The shipped 28,801 x 5 table, written by one process, peaks below
        3.0 MB of allocations: the 1.25 MB the writer took when it formatted
        with `%`, plus 1.75 MB, well within the 4.4 MB (10 % of 44.4 MB) by
        which the benchmark lets compare's peak RSS grow."""
        result = default_comparison.cases["passive"]
        table = TrajectoryTable(t=result.energy.times(), signals={
            "E": result.energy.values, "P_in": result.p_in.values,
            "P_load": result.p_load.values, "r": result.risk.values})
        assert len(table.t) == 28801
        write_trajectory(table, tmp_path / "first.csv")
        tracemalloc.start()
        try:
            write_trajectory(table, tmp_path / "table.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0e6


def _signal_table(n_rows: int, n_signals: int) -> TrajectoryTable:
    return TrajectoryTable(
        t=0.005 * np.arange(n_rows) + 27.0,
        signals={f"s{j}": _wide_values(n_rows, 7 * j + n_rows)
                 for j in range(n_signals)},
    )


@pytest.fixture
def forks(monkeypatch):
    """The pids that os.fork returns to this process from now on."""
    pids, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


class TestWriterInParts:
    """The writer formats a table in blocks of rows; the file read back gives
    the same text, also with blank lines after the last row."""

    @pytest.mark.parametrize("n_signals", [1, 4])
    @pytest.mark.parametrize("n_rows, n_blank", [(8191, 0), (8192, 0), (8193, 0),
                                                 (16384, 1), (28801, 2)])
    def test_file_bytes_equal_table_text(self, tmp_path, forks, n_rows, n_signals,
                                         n_blank):
        table = _signal_table(n_rows, n_signals)
        text = table_to_text(table)
        path = tmp_path / "table.csv"
        write_trajectory(table, path)
        assert path.read_bytes() == text.encode()
        with open(path, "a") as fh:
            fh.write("\n" * n_blank)
        assert table_to_text(read_trajectory(path)) == text
        assert forks == []

    def test_unopenable_destination_fails_before_any_fork(self, tmp_path, forks):
        with pytest.raises(FileNotFoundError):
            write_trajectory(_signal_table(28801, 1), tmp_path / "missing" / "t.csv")
        assert forks == []


def _serial_rows(text: str) -> np.ndarray:
    """The body parsed by one loadtxt call in this process."""
    return np.loadtxt(io.BytesIO(text.encode()), delimiter=",", skiprows=1, ndmin=2,
                      comments=None, encoding="utf-8")


def _fixed_width_lines(n_rows: int) -> list[str]:
    """Lines of a valid 3-column table, every row the same length."""
    return ["t,r,E\n"] + [f"{k:06d},0.5,{k % 10}\n" for k in range(n_rows)]


class TestReaderInParts:
    """The reader parses the whole body in one loadtxt call, in this process,
    and falls back to the line scan wherever that call could differ."""

    @pytest.mark.parametrize("n_columns", [2, 5])
    @pytest.mark.parametrize("n_rows, n_blank", [(8191, 0), (8192, 0), (16383, 0),
                                                 (16384, 1), (16385, 1), (57601, 3)])
    def test_rows_bit_equal_one_process_parse(self, forks, n_rows, n_columns, n_blank):
        """Blank lines after the last row are skipped, as the line scan skips them."""
        text = table_to_text(_signal_table(n_rows, n_columns - 1)) + "\n" * n_blank
        got = io_formats._load_rows(text, n_columns)
        assert got.tobytes() == _serial_rows(text).tobytes()
        assert got.shape == (n_rows, n_columns)
        assert forks == []

    @pytest.mark.parametrize("defect", ["bad_cell", "ragged", "cell_more_after_join",
                                        "t_repeats_at_join",
                                        "t_falls_at_join", "blank_lines_at_join",
                                        "crlf_after_join", "spaces_at_join"])
    def test_defect_in_second_part_reads_as_the_line_scan_does(self, forks, defect):
        """A defect in the second half of a 20,000-row table; lines[join] is
        its middle row."""
        lines = _fixed_width_lines(20000)
        join = 10001
        if defect == "bad_cell":
            lines[join + 100] = lines[join + 100].replace("0.5", "abc")
        elif defect == "ragged":
            lines[join + 100] = lines[join + 100].replace(",", "0", 1)
        elif defect == "cell_more_after_join":
            lines[join:] = [line.replace("0.5", "0,5") for line in lines[join:]]
        elif defect == "t_repeats_at_join":
            lines[join] = lines[join - 1]
        elif defect == "t_falls_at_join":
            lines[join] = lines[join - 2]
        elif defect == "blank_lines_at_join":
            lines[join:join] = ["\n", "\n"]
        elif defect == "spaces_at_join":
            lines[join:join] = [" \t \n"]
        else:
            lines[join:] = [line.replace("\n", "\r\n") for line in lines[join:]]
        text = "".join(lines)
        got = _outcome(table_from_text, text)
        want = _outcome(reference_table_from_text, text)
        assert got[0] == want[0]
        if want[0] == "error":
            assert got == want
            assert "line " in want[1]
        else:
            assert got[1].t.tobytes() == want[1].t.tobytes()
            for name in want[1].signals:
                assert got[1].signals[name].tobytes() == want[1].signals[name].tobytes()
        assert forks == []

    def test_failing_worker_falls_back_to_the_line_scan(self, forks, monkeypatch):
        """The one loadtxt call does the work of every part; a ValueError
        from it sends the text to the line scan, which gives the same table."""
        text = table_to_text(_signal_table(28801, 4))
        want = _serial_rows(text)
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            raise ValueError("parse failed")

        monkeypatch.setattr(np, "loadtxt", failing)
        table = table_from_text(text)
        assert calls == [1]
        assert table.t.tobytes() == want[:, 0].tobytes()
        for j, name in enumerate(table.signals, start=1):
            assert table.signals[name].tobytes() == want[:, j].tobytes()
        assert forks == []

    def test_fork_failure_falls_back_to_the_line_scan(self, monkeypatch):
        """A process that cannot fork reads a table all the same: neither the
        loadtxt parse nor the line scan it falls back to forks."""
        def no_fork():
            raise BlockingIOError("no more processes")

        monkeypatch.setattr(os, "fork", no_fork)
        text = table_to_text(_signal_table(57601, 1))
        want = _serial_rows(text)
        assert table_from_text(text).t.tobytes() == want[:, 0].tobytes()

        def failing(*args, **kwargs):
            raise ValueError("parse failed")

        monkeypatch.setattr(np, "loadtxt", failing)
        table = table_from_text(text)
        assert table.t.tobytes() == want[:, 0].tobytes()
        assert table.signals["s0"].tobytes() == want[:, 1].tobytes()


def sample_document(**overrides):
    fields = dict(
        case_id="passive",
        config_digest="sha256:0011223344556677",
        t0=27.0,
        r0=0.5319,
        t_peak=42.475,
        lambda_hat=0.028,
        fit_quality=0.077,
        impact_numeric=9.889,
        impact_closed_form=19.0,
        steady_state=0.0,
        recovery_time=102.65,
        recovered=True,
        tail_corrected=True,
        absent={},
    )
    fields.update(overrides)
    return ReportDocument(**fields)


# the report fields that hold a number (in sample_document, a float)
REPORT_NUMBERS = [f.name for f in fields(ResilienceReport)
                  if type(getattr(sample_document(), f.name)) is float]


class TestReportDocument:
    def test_round_trip_equality(self):
        doc = sample_document()
        assert report_from_text(report_to_text(doc)) == doc

    def test_round_trip_with_absent_fields(self):
        doc = sample_document(
            lambda_hat=None, fit_quality=None, impact_closed_form=None,
            tail_corrected=False,
            absent={"lambda_hat": "no positive peak deviation",
                    "fit_quality": "no positive peak deviation",
                    "impact_closed_form": "no positive peak deviation"},
        )
        text = report_to_text(doc)
        assert "lambda_hat_per_s = absent" in text
        assert "absent.lambda_hat = no positive peak deviation" in text
        assert report_from_text(text) == doc

    @pytest.mark.parametrize("old, new", [
        ("r0 = 0.5319", "r0 = nan"),
        ("t_peak_s = 42.475", "t_peak_s = inf"),
        ("recovery_time_s = 102.65", "recovery_time_s = not_recovered"),
        ("recovered = true", "recovered = false"),
        ("lambda_hat_per_s = 0.028", "lambda_hat_per_s = absent"),
    ])
    def test_reader_rejects_bad_or_contradictory_values(self, old, new):
        text = report_to_text(sample_document())
        assert old in text
        with pytest.raises(TableParseError):
            report_from_text(text.replace(old, new))

    def test_absent_is_a_read_only_copy(self):
        # a document shared its report's absent dict, so a reason added to
        # the report later made the document write a file its reader refuses
        reasons = dict.fromkeys(ABSENT_METRICS, "no fit")
        report = ResilienceReport(
            t0=0.0, r0=0.0, t_peak=0.0, lambda_hat=None, fit_quality=None,
            impact_numeric=0.0, impact_closed_form=None, steady_state=0.0,
            recovery_time=0.0, recovered=True, tail_corrected=False, absent=reasons)
        doc = ReportDocument.from_report(report, "external", "sha256:0011223344556677")
        reasons["r0"] = "x"
        with pytest.raises(TypeError):
            report.absent["r0"] = "x"
        assert report.absent == dict.fromkeys(ABSENT_METRICS, "no fit")
        assert report_from_text(report_to_text(doc)) == doc

    def test_reader_rejects_unexplained_absence(self):
        text = report_to_text(sample_document())
        with pytest.raises(TableParseError, match="lambda_hat"):
            report_from_text(text + "absent.lambda_hat = no fit\n")

    @pytest.mark.parametrize("overrides", [
        {"r0": math.nan},
        {"impact_numeric": math.inf},
        {"recovered": False},
        {"recovery_time": None},
        {"lambda_hat": None},
        {"absent": {"lambda_hat": "no fit"}},
        {"absent": {"bogus": "no fit"}},
        {"fit_quality": None},
        {"impact_closed_form": None},
        {"absent": {"r0": "no fit"}},
        {"lambda_hat": None, "fit_quality": None, "impact_closed_form": None,
         "absent": dict.fromkeys(
             ("lambda_hat", "fit_quality", "impact_closed_form"), "no fit")},
    ])
    def test_report_invariants_on_construction(self, overrides):
        with pytest.raises(ParameterError):
            sample_document(**overrides)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", REPORT_NUMBERS)
    def test_non_finite_number_refused(self, name, value):
        message = rf"^{name} must be finite, got {value}$"
        with pytest.raises(ParameterError, match=message):
            sample_document(**{name: value})

    def test_reader_refuses_a_duplicate_key(self):
        text = report_to_text(sample_document())
        with pytest.raises(TableParseError, match=r"^line 16: duplicate key 'r0'$"):
            report_from_text(text + "r0 = 1\n")

    @pytest.mark.parametrize("line, message", [
        ("r0_typo = 7", "unknown report key 'r0_typo'"),
        ("absent.r9 = no fit", "unknown report key 'absent.r9'"),
        ("absent.lambda_hat = no fit", "duplicate key 'absent.lambda_hat'"),
        ("absent.r0 = no fit", "unknown report key 'absent.r0'"),
        ("absent.absent = no fit", "unknown report key 'absent.absent'"),
    ])
    def test_reader_refuses_a_key_it_would_drop(self, line, message):
        reason = "no positive peak deviation"
        doc = sample_document(
            lambda_hat=None, fit_quality=None, impact_closed_form=None,
            tail_corrected=False, absent=dict.fromkeys(
                ("lambda_hat", "fit_quality", "impact_closed_form"), reason),
        )
        text = report_to_text(doc)
        assert text.count("\n") == 18
        with pytest.raises(TableParseError, match=rf"^line 19: {message}$"):
            report_from_text(text + line + "\n")

    def test_not_recovered_marker(self):
        doc = sample_document(recovery_time=None, recovered=False)
        text = report_to_text(doc)
        assert "recovery_time_s = not_recovered" in text
        assert report_from_text(text) == doc

    def test_write_read_write_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_report(sample_document(), p1)
        write_report(read_report(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_trajectory_document(self):
        grid = TimeGrid(t_start=0.0, dt=0.1, n_samples=50)
        report = assemble_report(Trajectory(grid, np.zeros(50)), 0.0,
                                 MetricsConfig())
        doc = ReportDocument.from_report(report, "external", "sha256:00")
        text = report_to_text(doc)
        assert "r0 = 0\n" in text
        assert "lambda_hat_per_s = absent" in text
        assert "absent.lambda_hat" in text

    def test_determinism_for_same_inputs(self):
        config = default_config()
        grid = TimeGrid(t_start=0.0, dt=0.01, n_samples=1000)
        values = 0.4 * np.exp(-0.7 * grid.times())
        report_a = assemble_report(Trajectory(grid, values), 0.0, config.metrics)
        report_b = assemble_report(Trajectory(grid, values), 0.0, config.metrics)
        digest = config_digest(config)
        text_a = report_to_text(ReportDocument.from_report(report_a, "x", digest))
        text_b = report_to_text(ReportDocument.from_report(report_b, "x", digest))
        assert text_a == text_b

    def test_parse_errors(self):
        with pytest.raises(TableParseError):
            report_from_text("nonsense\n")
        with pytest.raises(TableParseError):
            report_from_text("schema = other.v9\n")
        doc_text = report_to_text(sample_document())
        with pytest.raises(TableParseError):
            report_from_text(doc_text.replace("r0 = ", "r0_gone = "))


class TestScenarioConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scenario.ini"
        write_scenario_config(default_config(), path)
        assert read_scenario_config(path) == default_config()

    def test_packaged_default_matches_code(self):
        packaged = (
            resources.files("risktraj") / "data" / "default_scenario.ini"
        ).read_text()
        assert packaged == config_to_text(default_config())

    def test_digest_stable_and_sensitive(self):
        base = config_digest(default_config())
        assert base == config_digest(default_config())
        other = replace(
            default_config(),
            disturbance=DisturbanceSignal(kind="pulse", onset=27.0,
                                          duration=12.0, magnitude=0.25),
        )
        assert config_digest(other) != base

    def test_overrides_applied(self):
        parser = config_to_parser(default_config())
        apply_overrides(parser, ["disturbance.magnitude=0.4",
                                 "policy.reactive.E_on_J=30"])
        config = parser_to_config(parser)
        assert config.disturbance.magnitude == 0.4
        assert config.policies["reactive"].E_on == 30.0

    def test_override_unknown_key(self):
        parser = config_to_parser(default_config())
        with pytest.raises(ParameterError, match="unknown config key"):
            apply_overrides(parser, ["disturbance.intensity=0.4"])
        with pytest.raises(ParameterError):
            apply_overrides(parser, ["magnitude=0.4"])
        with pytest.raises(ParameterError):
            apply_overrides(parser, ["disturbance.magnitude"])

    def test_missing_section(self):
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        parser.read_string("[energy]\nE_max_J = 10\n")
        with pytest.raises(TableParseError):
            parser_to_config(parser)

    @pytest.mark.parametrize("dropped, message", [
        (["energy"], "missing config section [energy]"),
        (["policy.passive", "policy.reactive", "policy.anticipatory"],
         "config defines no [policy.*] section"),
    ])
    def test_missing_sections(self, dropped, message):
        parser = config_to_parser(default_config())
        for section in dropped:
            assert parser.remove_section(section)
        with pytest.raises(TableParseError, match=rf"^{re.escape(message)}$"):
            parser_to_config(parser)

    def test_keys_name_every_record_field(self):
        # a key's field is the key less its unit suffix and the field's
        # annotation gives its kind: a key naming no field, or a field of a
        # kind the table cannot write, raises KeyError here
        named = {}
        for record, keys in io_formats._config_schema().values():
            named.setdefault(record, set()).update(attr for attr, _ in keys.values())
        # the three policy sections together name every LoadPolicy field
        for record in (EnergyParams, SolarProfile, DisturbanceSignal, IntegratorConfig,
                       MetricsConfig, LoadPolicy):
            assert named[record] == {f.name for f in fields(record)}, record


DEFAULT_PARSER = config_to_parser(default_config())
CONFIG_KEYS = [(s, k) for s in DEFAULT_PARSER.sections() for k in DEFAULT_PARSER[s]]

config_texts = st.one_of(
    st.text(),
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["true", "false", "end", "none", "pulse", "zero",
                     "steady_state", "3.9", "1e400", "-0.0", " 1 ", "1_0"]),
)


@st.composite
def scenario_configs(draw):
    """Arbitrary valid ScenarioConfigs, every field away from the defaults."""
    def pos(hi=1e6):
        return draw(st.floats(1e-6, hi))

    def unit():
        return draw(st.floats(0.0, 1.0, exclude_max=True))

    e_min, e_ref, e_max = sorted(draw(st.lists(st.floats(0.0, 1e6), min_size=3,
                                               max_size=3, unique=True)))
    policies = {
        "passive": LoadPolicy(P0=pos()),
        "reactive": LoadPolicy(P0=pos(), E_on=e_min, E_off=e_max,
                               shed_fraction=unit()),
        # horizon None: feedback without a forecast, written "end"
        "anticipatory": LoadPolicy(P0=pos(),
                                   horizon=draw(st.none() | st.floats(1e-6, 1e6)),
                                   E_target=draw(st.floats(-1e6, 1e6)),
                                   shed_fraction=unit(),
                                   gain=draw(st.floats(0.0, 1e3))),
    }
    cases = draw(st.sets(st.sampled_from(sorted(policies)), min_size=1))
    t_start = draw(st.floats(-1e3, 1e3))
    t_end = t_start + pos(1e3)
    span = t_end - t_start
    kind = draw(st.sampled_from(["none", "pulse"]))
    onset = t_start + 0.5 * span * unit()
    t0 = onset if kind == "pulse" else t_start  # a metrics horizon may not precede it
    n_steps = draw(st.integers(1, 10_000))
    baseline_mode = draw(st.sampled_from(BASELINE_MODES))
    # a steady-state baseline needs a tail window of at least 2 of the n_steps + 1 samples
    least_tail = 2.0 / (n_steps + 1) if baseline_mode == "steady_state" else 5e-324
    return ScenarioConfig(
        energy=EnergyParams(E_max=e_max, E_min=e_min, E_ref=e_ref,
                            E_init=draw(st.floats(e_min, e_max))),
        solar=SolarProfile(P_peak=pos(), period=pos(),
                           shape_exponent=draw(st.just(0.0) | st.floats(1.0, 8.0))),
        policies={case: policies[case] for case in sorted(cases)},
        disturbance=DisturbanceSignal(
            kind=kind, onset=onset,
            duration=0.5 * span * unit(), magnitude=unit(),
        ),
        integrator=IntegratorConfig(dt=span / n_steps, t_start=t_start, t_end=t_end),
        metrics=MetricsConfig(
            baseline_mode=baseline_mode,
            tail_fraction=draw(st.floats(least_tail, 1.0)),
            fit_floor_ratio=draw(st.floats(0.0, 1.0, exclude_min=True,
                                           exclude_max=True)),
            min_fit_samples=draw(st.integers(3, 10**6)),
            tail_correction=draw(st.booleans()),
            horizon=draw(st.none() | st.floats(t0, 1e6)),
            recovery_band_ratio=pos(),
        ),
    )


class TestConfigTable:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), config_texts),
                    min_size=1, max_size=3))
    def test_overridden_config_parses_or_raises_toolkit_error(self, edits):
        parser = config_to_parser(default_config())
        apply_overrides(parser, [f"{s}.{k}={v}" for (s, k), v in edits])
        try:
            config = parser_to_config(parser)
        except RisktrajError:
            return
        assert isinstance(config, ScenarioConfig)

    @settings(max_examples=200, deadline=None)
    @given(scenario_configs())
    def test_written_config_reads_back_equal(self, tmp_path_factory, config):
        path = tmp_path_factory.mktemp("cfg") / "scenario.ini"
        write_scenario_config(config, path)
        assert read_scenario_config(path) == config
        assert config_to_text(read_scenario_config(path)) == config_to_text(config)


class TestEmitPlot:
    def three_tables(self):
        t = 0.1 * np.arange(200)
        tables = []
        for scale in (1.0, 0.7, 0.4):
            tables.append(TrajectoryTable(
                t=t,
                signals={
                    "E": 50.0 + 10.0 * scale * np.sin(t),
                    "r": np.clip(scale * np.exp(-0.3 * t), 0.0, 1.0),
                },
            ))
        return tables

    def test_three_series_per_panel(self, tmp_path):
        path = tmp_path / "fig.svg"
        emit_plot(self.three_tables(), path,
                  labels=["passive", "reactive", "anticipatory"],
                  disturbance_window=(5.0, 8.0))
        text = path.read_text()
        assert text.count("<polyline") == 6
        assert text.count('opacity="0.25"') == 2  # shaded window in both panels
        assert "E (J)" in text and "risk r (-)" in text and "t (s)" in text
        for label in ("passive", "reactive", "anticipatory"):
            assert label in text

    def test_single_table_valid(self, tmp_path):
        path = tmp_path / "fig.svg"
        emit_plot(self.three_tables()[:1], path)
        assert path.read_text().count("<polyline") == 2

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            emit_plot([], tmp_path / "fig.svg")

    def test_more_labels_than_tables_rejected(self, tmp_path):
        path = tmp_path / "fig.svg"
        with pytest.raises(ParameterError, match=r"^2 labels for 1 tables$"):
            emit_plot(self.three_tables()[:1], path, labels=["a", "b"])
        assert not path.exists()

    def test_misaligned_grids_rejected(self, tmp_path):
        tables = self.three_tables()
        shifted = TrajectoryTable(
            t=tables[0].t + 0.05,
            signals=dict(tables[0].signals),
        )
        with pytest.raises(ParameterError):
            emit_plot([tables[0], shifted], tmp_path / "fig.svg")

    def test_missing_column_rejected(self, tmp_path):
        t = 0.1 * np.arange(100)
        bad = TrajectoryTable(t=t, signals={"E": np.ones(100)})
        with pytest.raises(ParameterError):
            emit_plot([bad], tmp_path / "fig.svg")

    def test_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot(self.three_tables(), p1)
        emit_plot(self.three_tables(), p2)
        assert p1.read_bytes() == p2.read_bytes()
