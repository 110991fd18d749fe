"""Every problem file the grammar accepts ends each command with exit 0,
1 or 2, never a traceback.

A hypothesis strategy writes problem files from the grammar of
docs/problem-format.md: f of depth up to 3 over t, u, v with every
operator and function, h_i from U(a), DU(a) and INT(body), constants
from 1e-300 to 9e300, a focal or custom kernel, and optional [bounds]
and witness; half the files with a witness clip f and h_i under it, so
that the witness holds.  Each file goes through all five commands
in-process at a small grid.  On exit 2 the last stderr line is an
`error:` line (or the sweep's `CONFLICT:` line), and every --out record
round-trips through parse_record and format_record.  A solve at two
seeds writes the same --out file but for its seed= and elapsed_s= lines,
and so do certify-existence and certify-nonexistence, which also exit
alike at both seeds.
A scalar certificate equals its sweep cell: a one-cell sweep at the
parameters of a certify-existence record writes its branches, idx0 value
and rigor as that record does, and, with a witness the falsifier does
not refute, the lhs of certify-nonexistence.
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
# Small parameters half the time, so that some non-existence certificates pass.
PARAMETERS = st.one_of(st.sampled_from(["0", "1/100", "1/10"]), NUMBERS)


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
    f, h1, h2 = draw(NONLINEARITIES), draw(FUNCTIONALS), draw(FUNCTIONALS)
    gammas = [f"gamma{i} = {draw(COEFFICIENTS)}" for i in (1, 2)]
    bounds = [f"{slot} = {draw(BOUNDS)}" for slot in ("f_upper", "f_lower", "h1", "h2")
              if draw(st.booleans())]
    if draw(st.booleans()):
        tau, xi1, xi2 = (draw(NUMBERS) for _ in range(3))
        bounds += [f"tau = {tau}", f"xi1 = {xi1}", f"xi2 = {xi2}"]
        if draw(st.booleans()):  # clipped under the witness, which then holds
            f = f"min(max({f}, 0), {tau}*u)"
            h1, h2 = (f"min(max({h}, 0), {xi}*U(1))" for h, xi in ((h1, xi1), (h2, xi2)))
    lines = ["[kernel]", draw(KERNELS), "[gamma]", *gammas,
             "[functionals]", f"h1 = {h1}", f"h2 = {h2}", "[nonlinearity]", f"f = {f}",
             "[parameters]", *(f"{key} = {draw(PARAMETERS)}" for key in ("lambda", "eta1", "eta2"))]
    if bounds:
        lines += ["[bounds]", *bounds]
    return "\n".join(lines) + "\n"


SMALL = ["--n", "16"]
COMMANDS = (
    ["validate", *SMALL],
    ["certify-existence", *SMALL, "--r", "0.05", "--R", "1"],
    ["certify-nonexistence", *SMALL],
    ["solve", *SMALL],
    ["sweep", *SMALL, "--lambda", "0:1:2", "--eta1", "0:1:2", "--eta2", "0:1:2",
     "--r", "0.05", "--R", "1"],
)


SOLVE_PAIR = ["solve", *SMALL]


def _without_seed_and_time(written: str | None) -> list[str] | None:
    """The lines of an --out file but its seed= and elapsed_s= record lines."""
    return None if written is None else [
        line for line in written.splitlines()
        if not line.removeprefix("# ").startswith(("seed=", "elapsed_s="))]


def _fields(text: str) -> dict:
    """The key=value lines of a record, values as written."""
    return dict(line.split("=", 1) for line in text.splitlines())


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

    def run(argv):
        """The exit code and the --out file's text (None if none was written)."""
        argv = [*argv, "--problem", str(problem)]
        if argv[0] != "validate":
            argv += ["--out", str(out)]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 1, 2), (argv, text)
        if code == 2:
            last = stderr.getvalue().splitlines()[-1]
            allowed = ("error:", "CONFLICT:") if argv[0] == "sweep" else ("error:",)
            assert last.startswith(allowed), (argv, text, last)
        if not out.exists():
            return code, None
        written = out.read_text()
        out.unlink()
        record = parse_record(written)
        assert record["command"] == argv[0]
        assert format_record(record) == _record_text(written), (argv, text)
        return code, written

    records = {}
    for argv in COMMANDS:
        _, records[argv[0]] = run([*argv, "--witness"] if argv[0] == "sweep" and witness else argv)
    # solve depends only on the file and the argv: --seed changes the
    # seed= line alone, and elapsed_s= is a wall time.
    solves = [run([*SOLVE_PAIR, "--seed", seed]) for seed in ("0", "1")]
    assert [(code, _without_seed_and_time(written)) for code, written in solves[1:]] \
        == [(code, _without_seed_and_time(written)) for code, written in solves[:1]], text
    if records["certify-existence"] is None:
        return
    # The scalar certificates against the one-cell sweep at their parameters.
    existence = _fields(records["certify-existence"])
    growth = {} if records["certify-nonexistence"] is None \
        else _fields(records["certify-nonexistence"])
    cell_argv = ["sweep", *SMALL, "--r", "0.05", "--R", "1"]
    for key in ("lambda", "eta1", "eta2"):
        cell_argv += [f"--{key}", f"{existence[key]}:{existence[key]}:1"]
    if growth.get("falsification") == "consistent":
        cell_argv.append("--witness")
    code, table = run(cell_argv)
    if code == 2:
        return
    header, row = table.splitlines()[-2:]
    cell = dict(zip(header.split(","), row.split(",")))
    expected = existence["rigor"]
    if "--witness" in cell_argv:
        assert cell["nonexistence_lhs"] == growth["lhs"], (text, cell, growth)
        if cell["classification"] == "nonexistence":
            expected = growth["rigor"]
    assert (cell["value_branch"], cell["deriv_branch"], cell["idx0"], cell["rigor"]) \
        == (existence["value_branch"], existence["deriv_branch"], existence["idx0_value"],
            expected), (text, cell, existence)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(text=problem_files())
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_certificates_do_not_read_the_seed(tmp_path_factory, text):
    # The sampled bounds and the witness falsifier draw at fixed seeds:
    # --seed changes the seed= line of a certificate's record alone.
    work = tmp_path_factory.mktemp("seeds")
    problem, out = work / "problem.prob", work / "out.rec"
    problem.write_text(text)
    for argv in COMMANDS[1:3]:
        runs = []
        for seed in ("0", "1"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([*argv, "--problem", str(problem), "--seed", seed, "--out", str(out)])
            runs.append((code, _without_seed_and_time(out.read_text() if out.exists() else None)))
            out.unlink(missing_ok=True)
        assert runs[1] == runs[0], (argv, text)
