"""Every problem file the grammar accepts ends each command with exit 0,
1 or 2, never a traceback.

A hypothesis strategy writes problem files from the grammar of
docs/problem-format.md: f of depth up to 3 over t, u, v with every
operator and function, h_i from U(a), DU(a) and INT(body), constants
from 1e-300 to 9e300, a focal or custom kernel, and optional [bounds]
and witness.  Each file goes through all five commands in-process at
a small grid.  On exit 2 the last stderr line is an `error:` line (or the
sweep's `CONFLICT:` line), and every --out record round-trips through
parse_record and format_record.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammcert.cli import format_record, main, parse_record

NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "0.5", "1/4", "3/4", "10"]),
    st.builds("{}e{}".format, st.integers(1, 9), st.integers(-300, 300)),
    st.floats(0.0, 100.0).map(repr),
)
LEAF_CONSTANTS = st.one_of(NUMBERS, st.sampled_from(["e", "pi"]))


def expressions(leaves, depth: int):
    """Expressions of depth up to ``depth`` over ``leaves``: every binary
    operator, unary minus, and every function of one or two arguments,
    each operand parenthesised or bare at random."""
    if depth == 0:
        return leaves
    sub = expressions(leaves, depth - 1)
    operand = st.tuples(sub, st.booleans()).map(lambda x: f"({x[0]})" if x[1] else x[0])
    return st.one_of(
        leaves,
        st.builds("{} {} {}".format, operand, st.sampled_from("+-*/^"), operand),
        st.builds("-{}".format, operand),
        st.builds("{}({})".format, st.sampled_from(["exp", "sin", "cos", "sqrt", "abs"]), sub),
        st.builds("{}({}, {})".format, st.sampled_from(["min", "max"]), sub, sub),
    )


def _vars(*names):
    return st.one_of(LEAF_CONSTANTS, st.sampled_from(names))


# A point: a number in [0,1] mostly, or one outside it, NaN, or a point atom.
POINTS = st.one_of(
    st.sampled_from(["0", "1", "1/4", "1/2", "3/4", "1/3"]),
    st.sampled_from(["2", "1.5", "0/0", "DU(0)/3", "U(1)"]),
)
ATOMS = st.builds("{}({})".format, st.sampled_from(["U", "DU"]), POINTS)
INT_BODIES = expressions(st.one_of(LEAF_CONSTANTS, ATOMS,
                                   st.sampled_from(["U(s)", "DU(s)", "s"])), 2)
FUNCTIONALS = expressions(st.one_of(LEAF_CONSTANTS, ATOMS,
                                    st.builds("INT({})".format, INT_BODIES)), 2)
NONLINEARITIES = expressions(_vars("t", "u", "v"), 3)
COEFFICIENTS = expressions(_vars("t"), 2)
KERNELS = st.one_of(st.just("name = focal"),
                    st.builds("k = {}".format, expressions(_vars("t", "s"), 2)))
BOUNDS = expressions(_vars("rho"), 2)


@st.composite
def problem_files(draw) -> str:
    lines = ["[kernel]", draw(KERNELS),
             "[gamma]", f"gamma1 = {draw(COEFFICIENTS)}", f"gamma2 = {draw(COEFFICIENTS)}",
             "[functionals]", f"h1 = {draw(FUNCTIONALS)}", f"h2 = {draw(FUNCTIONALS)}",
             "[nonlinearity]", f"f = {draw(NONLINEARITIES)}",
             "[parameters]", *(f"{key} = {draw(NUMBERS)}" for key in ("lambda", "eta1", "eta2"))]
    bounds = [f"{slot} = {draw(BOUNDS)}" for slot in ("f_upper", "f_lower", "h1", "h2")
              if draw(st.booleans())]
    if draw(st.booleans()):
        bounds += [f"{key} = {draw(NUMBERS)}" for key in ("tau", "xi1", "xi2")]
    if bounds:
        lines += ["[bounds]", *bounds]
    return "\n".join(lines) + "\n"


SMALL = ["--n", "16"]
COMMANDS = (
    ["validate", *SMALL],
    ["certify-existence", *SMALL, "--r", "0.05", "--R", "1"],
    ["certify-nonexistence", *SMALL],
    ["solve", *SMALL, "--starts", "2", "--max-iter", "50"],
    ["sweep", *SMALL, "--lambda", "0:1:2", "--eta1", "0:1:2", "--eta2", "0:1:2",
     "--r", "0.05", "--R", "1"],
)


def _record_text(text: str) -> str:
    """The key=value record of an --out file: the whole file, or the '# '
    lines above a data table."""
    if not text.startswith("# "):
        return text
    return "".join(line[2:] + "\n" for line in text.splitlines() if line.startswith("# "))


@pytest.mark.filterwarnings("error::RuntimeWarning")  # an overflow must not reach stderr
@given(text=problem_files(), witness=st.booleans())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_every_command_ends_with_an_exit_code(tmp_path_factory, text, witness):
    work = tmp_path_factory.mktemp("fuzz")
    problem, out = work / "problem.prob", work / "out.rec"
    problem.write_text(text)
    for argv in COMMANDS:
        argv = [*argv, "--problem", str(problem)]
        if argv[0] != "validate":
            argv += ["--out", str(out)]
        if argv[0] == "sweep" and witness:
            argv.append("--witness")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 1, 2), (argv, text)
        if code == 2:
            last = stderr.getvalue().splitlines()[-1]
            allowed = ("error:", "CONFLICT:") if argv[0] == "sweep" else ("error:",)
            assert last.startswith(allowed), (argv, text, last)
        if out.exists():
            written = out.read_text()
            out.unlink()
            record = parse_record(written)
            assert record["command"] == argv[0]
            assert format_record(record) == _record_text(written), (argv, text)
