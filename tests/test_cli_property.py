"""Every command line the CLI accepts ends in exit 0, or in one `error: ...`
line on stderr and exit 1: never a traceback, another exit code or a
Python warning. On exit 0 stderr is empty, or holds the one `warning: ...`
line of the advisory `integrate` gives when the step is coarse for the
disturbance pulse.

The argv of each subcommand is drawn from a grammar: extreme numbers (nan,
±inf, -0, 1e308, the smallest subnormal) in flags, overrides and sweep
ranges; missing, empty, binary, truncated and directory paths where files
are read; unwritable output paths; unknown keys and malformed overrides.
Trajectory CSVs include tables at the limits of double precision. Every
run sets the coarse step `integrator.dt_s=0.5`, and no drawn value asks
for a long run: integrator values are either ones a short run accepts or
ones that exceed the step limit, and sweep counts are at most 3. A run
that does not end fails the test after 30 s.
"""

import contextlib
import io
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from risktraj.cli import main
from risktraj.io_formats import TrajectoryTable, table_to_text
from risktraj.scenario import CASE_IDS, DEFAULT_CONFIG_PATH

COARSE = ["--set", "integrator.dt_s=0.5"]

NUMBERS = ["nan", "-nan", "inf", "-inf", "0", "-0", "1e308", "-1e308", "5e-324",
           "0.5", "1", "2.75", "-3", "48", "1e3"]
WORDS = ["", "abc", "pulse", "none", "true", "end", "steady_state", "zero"]
# Values for [integrator] keys: a short run, or a span past the step limit.
INTEGRATOR_VALUES = ["nan", "inf", "-inf", "0", "-0", "1e308", "-1e308", "5e-324",
                     "0.5", "1", "2.75", "48", "1e3", "-3"]
COUNTS = ["-1", "0", "1", "2", "3", "1e3", "x", ""]

DEFAULT_TEXT = DEFAULT_CONFIG_PATH.read_text()
KEYS = []  # every section.key of the shipped config
_section = None
for _line in DEFAULT_TEXT.splitlines():
    if _line.startswith("["):
        _section = _line.strip("[]")
    elif " = " in _line:
        KEYS.append(f"{_section}.{_line.split(' = ')[0]}")
UNKNOWN_KEYS = ["energy.nope", "nosection.P0_W", "policy.passive", "E_max_J",
                "policy.unknown.P0_W", "integrator..dt_s"]


def _csv_text(n_rows: int, columns: tuple[str, ...]) -> str:
    t = 0.5 * np.arange(n_rows)
    r = 0.4 * np.exp(-0.1 * t) * (t >= 2.0)
    return table_to_text(TrajectoryTable(t=t, signals={c: r + k for k, c in
                                                       enumerate(columns)}))


CSV_TEXT = _csv_text(60, ("r",))
WIDE_CSV_TEXT = _csv_text(40, ("E", "P_in", "P_load", "r"))
BINARY = bytes(range(256)) * 4
# Tables emit-plot can only draw with care for rounding and overflow: E one
# ulp apart, t far from zero, t, E or r near the largest double, E whose
# padded range is lost to rounding, and E whose range is subnormal.
EXTREME_CSV_TEXTS = {
    "ulp_e": "t,E,r\n0,50,0\n1,50.000000000000007,0.5\n",
    "far_t": "t,E,r\n100000000000000000,1,0\n100000000000000016,2,0.5\n",
    "flat_e": "t,E,r\n0,1e17,0\n1,1e17,0.5\n",
    "huge_r": "t,E,r\n0,1,0\n1,2,1e308\n",
    "huge_e": "t,E,r\n0,1e308,0\n1,1e308,0.5\n",
    "wide_e": "t,E,r\n0,1e308,0\n1,-1e308,0.5\n",
    "tiny_e": "t,E,r\n0,0,0\n1,5e-324,0.5\n",
    "low_r": "t,E,r\n0,1,0\n1,2,-1e308\n",
    "wide_t": "t,E,r\n-1e308,1,0\n1e308,2,0.5\n",
}


class Files:
    """A directory of the input files command lines may name."""

    def __init__(self, root):
        self.root = root
        root.mkdir(exist_ok=True)
        (root / "a_file").write_text("x")
        self.write("empty.ini", b"")
        self.write("binary.ini", BINARY)
        self.write("shipped.ini", DEFAULT_TEXT.encode())
        self.write("r.csv", CSV_TEXT.encode())
        self.write("wide.csv", WIDE_CSV_TEXT.encode())
        self.write("empty.csv", b"")
        self.write("binary.csv", BINARY)
        lines = CSV_TEXT.splitlines(keepends=True)
        lines[7] = "3,nan\n"
        self.write("nan.csv", "".join(lines).encode())
        self.write("header_only.csv", b"t,r\n")
        for kind, text in EXTREME_CSV_TEXTS.items():
            self.write(f"{kind}.csv", text.encode())

    def write(self, name: str, data: bytes) -> str:
        path = self.root / name
        path.write_bytes(data)
        return str(path)

    def path(self, name: str) -> str:
        return str(self.root / name)


@st.composite
def config_arg(draw, files):
    kind = draw(st.sampled_from(["default"] * 6 + ["shipped"] * 2 + [
        "missing", "empty", "binary", "truncated", "directory"]))
    if kind == "default":
        return "default"
    if kind == "truncated":
        cut = draw(st.integers(0, len(DEFAULT_TEXT) - 1))
        return files.write(f"cut{cut}.ini", DEFAULT_TEXT[:cut].encode())
    return {"shipped": files.path("shipped.ini"), "missing": files.path("no.ini"),
            "empty": files.path("empty.ini"), "binary": files.path("binary.ini"),
            "directory": str(files.root)}[kind]


@st.composite
def csv_arg(draw, files):
    kind = draw(st.sampled_from(["r"] * 5 + ["wide"] * 5 + [
        "missing", "empty", "binary", "nan", "header_only", "truncated", "directory",
        *EXTREME_CSV_TEXTS]))
    if kind == "truncated":
        text = draw(st.sampled_from([CSV_TEXT, WIDE_CSV_TEXT]))
        cut = draw(st.integers(0, len(text) - 1))
        return files.write(f"cut{cut}_{len(text)}.csv", text[:cut].encode())
    if kind == "directory":
        return str(files.root)
    if kind == "missing":
        return files.path("no.csv")
    return files.path(f"{kind}.csv")


def override():
    value = st.sampled_from(NUMBERS + WORDS)
    known = st.sampled_from([k for k in KEYS if not k.startswith("integrator.")])
    integrator = st.sampled_from([k for k in KEYS if k.startswith("integrator.")])
    return st.one_of(
        st.builds("{}={}".format, known, value),
        st.builds("{}={}".format, integrator, st.sampled_from(INTEGRATOR_VALUES)),
        st.builds("{}={}".format, st.sampled_from(UNKNOWN_KEYS), value),
        st.sampled_from(["noequals", "=1", "energy.E_max_J"]),
    )


def set_flags():
    return st.lists(override(), max_size=2).map(
        lambda items: COARSE + [arg for item in items for arg in ("--set", item)]
    )


@st.composite
def out_dir(draw, files, name):
    if draw(st.integers(0, 7)):
        return str(files.root / name)
    return files.path("a_file") + "/" + name  # below a file: cannot be made


def sometimes(draw) -> bool:
    return draw(st.integers(0, 3)) == 0


@st.composite
def simulate_argv(draw, files):
    argv = ["simulate", "--case", draw(st.sampled_from(CASE_IDS)),
            "--config", draw(config_arg(files)),
            "--out", draw(out_dir(files, "sim")), *draw(set_flags())]
    return argv + (["--plot"] if draw(st.booleans()) else [])


@st.composite
def compare_argv(draw, files):
    return ["compare", "--config", draw(config_arg(files)),
            "--out", draw(out_dir(files, "cmp")), *draw(set_flags())]


@st.composite
def sweep_argv(draw, files):
    param = draw(st.sampled_from(KEYS + UNKNOWN_KEYS))
    values = INTEGRATOR_VALUES if param.startswith("integrator.") else NUMBERS
    bound = st.sampled_from(values)
    ordered = st.tuples(bound, bound).map(lambda ends: sorted(ends, key=float))
    spec = draw(st.one_of(
        st.builds("{0[0]}:{0[1]}:{1}".format, ordered, st.integers(1, 3)),
        st.builds("{}:{}:{}".format, bound, bound, st.sampled_from(COUNTS)),
        st.sampled_from(["", "1:2", "1:2:3:4", "a:b:2", ":::"]),
    ))
    out = draw(out_dir(files, "sweep.csv"))
    return ["sweep", "--config", draw(config_arg(files)), "--param", param,
            "--range", spec, "--out", out, *draw(set_flags())]


@st.composite
def analyze_argv(draw, files):
    argv = ["analyze", draw(csv_arg(files))]
    number = st.sampled_from(NUMBERS)
    for flag in ("--t0", "--tail-fraction", "--fit-floor", "--horizon",
                 "--recovery-band-ratio"):
        if sometimes(draw):
            argv.append(f"{flag}={draw(number)}")
    if sometimes(draw):
        count = draw(st.sampled_from([-1, 0, 1, 2, 3, 10**9]))
        argv.append(f"--min-fit-samples={count}")
    if draw(st.booleans()):
        argv.append(f"--baseline={draw(st.sampled_from(['zero', 'steady_state']))}")
    if draw(st.booleans()):
        argv.append("--no-tail-correction")
    if draw(st.booleans()):
        argv.append(f"--out={draw(out_dir(files, 'report.txt'))}")
    return argv


@st.composite
def emit_plot_argv(draw, files):
    inputs = draw(st.lists(csv_arg(files), min_size=1, max_size=3))
    argv = ["emit-plot", *inputs, "--out", draw(out_dir(files, "plot.svg"))]
    if draw(st.booleans()):
        argv += ["--config", draw(config_arg(files))]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
    return code, err.getvalue(), [str(w.message) for w in caught]


@pytest.mark.usefixtures("time_limit")
def test_every_command_line_exits_cleanly(tmp_path_factory):
    files = Files(tmp_path_factory.mktemp("cli_property"))
    argv_of = st.one_of(simulate_argv(files), compare_argv(files), sweep_argv(files),
                        analyze_argv(files), emit_plot_argv(files))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv_of)
    def check(argv):
        code, err, caught = _run(argv)
        assert caught == [], (argv, caught)
        if code == 0:
            # or the advisory integrate gives for a step too coarse for the pulse
            assert err == "" or (err.startswith("warning: pulse duration ")
                                 and err.count("\n") == 1), (argv, err)
        else:
            assert code == 1, (argv, code, err)
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)

    check()


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("kind", EXTREME_CSV_TEXTS)
def test_emit_plot_of_extreme_table_ends_cleanly(tmp_path, kind):
    """One error line and exit 1, or exit 0 and an SVG of finite numbers."""
    files = Files(tmp_path / "files")
    svg = tmp_path / "plot.svg"
    code, err, caught = _run(["emit-plot", files.path(f"{kind}.csv"), "--out", str(svg)])
    assert caught == []
    if code == 0:
        assert err == ""
        text = svg.read_text()
        ElementTree.fromstring(text.encode())
        assert "nan" not in text and "inf" not in text
    else:
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
