import argparse
import os
import pathlib
import subprocess
import sys

import pytest

import hammcert.cli
import hammcert.problem
from hammcert.cli import format_record, main, parse_record

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

ZERO_PROBLEM = """\
[kernel]
name = focal
[gamma]
gamma1 = 1
gamma2 = t
dgamma1 = 0
dgamma2 = 1
[functionals]
h1 = U(1)
h2 = DU(0)
[nonlinearity]
f = u
[parameters]
lambda = 0
eta1 = 0
eta2 = 0
"""


# A custom concave kernel whose exact K = 2/3 puts lambda*tau*K exactly on
# the strict boundary 1; its trapezoid K = 0.66661... passes it.
CONCAVE_PROBLEM = """\
[kernel]
k = t*sqrt(s)
dk = sqrt(s)
[gamma]
gamma1 = 1
gamma2 = t
dgamma1 = 0
dgamma2 = 1
[functionals]
h1 = 0*U(0)
h2 = 0*U(0)
[nonlinearity]
f = u
[parameters]
lambda = 3/2
eta1 = 0
eta2 = 0
[bounds]
tau = 1
xi1 = 0
xi2 = 0
"""


@pytest.fixture()
def zero_problem(tmp_path) -> str:
    path = tmp_path / "empty.prob"
    path.write_text(ZERO_PROBLEM)
    return str(path)


def _variant(tmp_path, source: str, old: str, new: str, name: str = "variant.prob") -> str:
    text = pathlib.Path(source).read_text()
    assert old in text
    path = tmp_path / name
    path.write_text(text.replace(old, new))
    return str(path)


class TestRecordFormat:
    def test_round_trip(self):
        record = {
            "command": "certify-existence",
            "passed": True,
            "skipped": False,
            "r": 0.05,
            "value_branch": 0.7179376534313809,
            "n": 256,
            "label": "certified",
            "nothing": None,
        }
        assert parse_record(format_record(record)) == record

    def test_reads_commented_records(self):
        text = "# a=1\n# b=2.5\nnot a record line\n"
        assert parse_record(text) == {"a": 1, "b": 2.5}

    def test_format_is_stable(self):
        record = {"x": 1.5, "ok": True}
        text = format_record(record)
        assert text == "x=1.5\nok=true\n"
        assert format_record(parse_record(text)) == text


class TestCertifyExistence:
    def test_example1_passes(self, example1_path, tmp_path, capsys):
        out = tmp_path / "cert.rec"
        rc = main(["certify-existence", "--problem", example1_path,
                   "--r", "0.05", "--R", "1", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "PASS (certified)" in stdout
        record = parse_record(out.read_text())
        assert record["verdict"] == "certified"
        assert record["passed"] is True
        assert record["value_branch"] == pytest.approx(0.7179376534313809, abs=1e-12)
        assert record["deriv_branch"] == pytest.approx(0.9055722765597317, abs=1e-12)
        assert record["idx0_value"] == 0.05
        assert record["K"] == 0.5 and record["Kstar"] == 1.0
        assert record["seed"] == 0

    def test_record_round_trips(self, example1_path, tmp_path):
        out = tmp_path / "cert.rec"
        main(["certify-existence", "--problem", example1_path,
              "--r", "0.05", "--R", "1", "--out", str(out)])
        text = out.read_text()
        assert format_record(parse_record(text)) == text

    def test_infeasible_point_fails(self, example1_path, tmp_path):
        doubled = _variant(tmp_path, example1_path, "lambda = 1/10", "lambda = 1/5")
        rc = main(["certify-existence", "--problem", doubled, "--r", "0.05", "--R", "1"])
        assert rc == 1

    def test_heuristic_when_no_declared_bounds(self, example1_path, tmp_path):
        nobounds = _variant(tmp_path, example1_path, "[bounds]", "[unused]")
        out = tmp_path / "cert.rec"
        rc = main(["certify-existence", "--problem", nobounds,
                   "--r", "0.04", "--R", "1", "--out", str(out)])
        assert rc == 0
        record = parse_record(out.read_text())
        assert record["verdict"] == "heuristic-pass"
        assert record["f_upper_R_rigor"] == "heuristic"

    def test_bad_radii_exit_2(self, example1_path):
        assert main(["certify-existence", "--problem", example1_path,
                     "--r", "1", "--R", "0.05"]) == 2

    def test_missing_file_exit_2(self):
        assert main(["certify-existence", "--problem", "no/such/file.prob",
                     "--r", "0.05", "--R", "1"]) == 2


class TestCertifyNonexistence:
    def test_example2_passes(self, example2_path, tmp_path, capsys):
        out = tmp_path / "cert.rec"
        rc = main(["certify-nonexistence", "--problem", example2_path, "--out", str(out)])
        assert rc == 0
        record = parse_record(out.read_text())
        assert record["lhs"] == pytest.approx(0.95, abs=1e-12)
        assert record["falsification"] == "consistent"
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("name, lhs, rigor", [
        ("example2", 0.95, "certified"),
        ("concave", 0.9999248234647922, "heuristic"),  # the exact lhs is 1: a false pass
    ])
    def test_rigor_follows_the_kernel(self, example2_path, tmp_path, capsys, name, lhs, rigor):
        problem = example2_path
        if name == "concave":
            problem = tmp_path / "concave.prob"
            problem.write_text(CONCAVE_PROBLEM)
        out = tmp_path / "cert.rec"
        assert main(["certify-nonexistence", "--problem", str(problem), "--out", str(out)]) == 0
        record = parse_record(out.read_text())
        assert (record["verdict"], record["lhs"], record["rigor"]) == ("pass", lhs, rigor)
        assert list(record).index("rigor") == list(record).index("passed") + 1
        assert f"verdict: PASS (rigor: {rigor})" in capsys.readouterr().out

    def test_boundary_point_fails(self, example2_path, tmp_path):
        boundary = _variant(tmp_path, example2_path, "lambda = 1/3", "lambda = 2/3")
        boundary = _variant(tmp_path, boundary, "eta1 = 1/4", "eta1 = 0")
        boundary = _variant(tmp_path, boundary, "eta2 = 1/5", "eta2 = 0")
        assert main(["certify-nonexistence", "--problem", boundary]) == 1

    def test_falsified_witness(self, example1_path, tmp_path):
        # the exponential nonlinearity cannot satisfy f <= tau*u
        with_witness = _variant(tmp_path, example1_path, "[bounds]",
                                "[bounds]\ntau = 3\nxi1 = 1\nxi2 = 1")
        out = tmp_path / "cert.rec"
        rc = main(["certify-nonexistence", "--problem", with_witness, "--out", str(out)])
        assert rc == 1
        record = parse_record(out.read_text())
        assert record["verdict"] == "witness-falsified"
        assert record["counterexample_kind"] == "f-growth"

    def test_skip_falsification_recorded(self, example1_path, tmp_path):
        with_witness = _variant(tmp_path, example1_path, "[bounds]",
                                "[bounds]\ntau = 3\nxi1 = 1\nxi2 = 1")
        out = tmp_path / "cert.rec"
        rc = main(["certify-nonexistence", "--problem", with_witness,
                   "--skip-falsification", "--out", str(out)])
        record = parse_record(out.read_text())
        assert record["falsification"] == "skipped"
        assert rc in (0, 1)  # verdict comes from the inequality alone

    def test_no_witness_exit_2(self, example1_path):
        assert main(["certify-nonexistence", "--problem", example1_path]) == 2

    def test_load_warning_reported(self, example2_path, tmp_path, capsys):
        shifted = _variant(tmp_path, example2_path, "f = u*(2 - t*sin(u*v))",
                           "f = u*(2 - t*sin(u*v)) - 1/100")
        out = tmp_path / "cert.rec"
        rc = main(["certify-nonexistence", "--problem", shifted,
                   "--skip-falsification", "--out", str(out)])
        assert rc == 0  # the verdict still comes from the inequality alone
        err = capsys.readouterr().err
        assert "warning: f >= 0: min -0.01" in err
        record = parse_record(out.read_text())
        assert record["warnings"] == 1


class TestSolve:
    def test_zero_problem_converges_to_zero(self, zero_problem, tmp_path):
        out = tmp_path / "sol.csv"
        rc = main(["solve", "--problem", zero_problem, "--out", str(out)])
        assert rc == 0
        record = parse_record(out.read_text())
        assert record["found"] is True
        assert record["norm"] == 0.0
        rows = [line for line in out.read_text().splitlines()
                if line and not line.startswith("#")]
        assert rows[0] == "t,u,du"
        assert len(rows) == 1 + 256 + 1
        assert all(float(r.split(",")[1]) == 0.0 for r in rows[1:])

    def test_example1_with_annulus(self, example1_path, tmp_path):
        out = tmp_path / "sol.csv"
        rc = main(["solve", "--problem", example1_path, "--r", "0.05", "--R", "1",
                   "--starts", "4", "--out", str(out)])
        assert rc == 0
        record = parse_record(out.read_text())
        assert record["in_annulus"] is True
        assert record["residual"] <= 1e-10
        assert record["warnings"] == 0
        assert isinstance(record["elapsed_s"], float) and record["elapsed_s"] > 0

    @pytest.mark.parametrize("radii, columns, in_annulus, rc", [
        ([], ["-", "-"], None, 0),
        (["--r", "0.05", "--R", "1"], ["yes", "no"], True, 0),
        (["--r", "0.2", "--R", "1"], ["no", "no"], "absent", 1),
    ])
    def test_annulus_column_and_selection(self, example1_path, tmp_path, capsys,
                                          radii, columns, in_annulus, rc):
        # example1 at the defaults: one converged row (norm 0.1094) and one
        # diverged row; every row, the diverged one too, is judged r <= norm <= R.
        out = tmp_path / "sol.csv"
        assert main(["solve", "--problem", example1_path, *radii, "--out", str(out)]) == rc
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if line.startswith("  ")]
        assert [row[0] for row in rows] == ["converged", "diverged"]
        assert [row[-1] for row in rows] == [f"annulus={c}" for c in columns]
        record = parse_record(out.read_text())
        assert record["found"] is (rc == 0)
        assert record.get("in_annulus", "absent") == in_annulus
        if rc == 0:
            assert record["norm"] == pytest.approx(0.1094489, abs=1e-6)

    def test_annulus_without_solution_exits_1(self, example2_path):
        # only the trivial fixed point exists; requesting norm >= 0.05 must fail
        rc = main(["solve", "--problem", example2_path, "--r", "0.05", "--R", "1",
                   "--starts", "4"])
        assert rc == 1

    def test_r_without_R_is_usage_error(self, example1_path):
        assert main(["solve", "--problem", example1_path, "--r", "0.05"]) == 2


class TestValidate:
    def test_example_files_pass(self, example1_path, example2_path, capsys):
        assert main(["validate", "--problem", example1_path]) == 0
        assert main(["validate", "--problem", example2_path]) == 0
        assert "11/11 checks passed" in capsys.readouterr().out

    def test_sign_warning_exits_1(self, zero_problem, tmp_path, capsys):
        bad = _variant(tmp_path, zero_problem, "gamma2 = t", "gamma2 = -t")
        bad = _variant(tmp_path, bad, "dgamma2 = 1", "dgamma2 = -1")
        rc = main(["validate", "--problem", bad])
        assert rc == 1
        assert "WARN" in capsys.readouterr().out

    def test_validates_once(self, example1_path, monkeypatch):
        calls = []
        original = hammcert.problem.validate_spec

        def counting(*args, **kwargs):
            calls.append(kwargs.get("m"))
            return original(*args, **kwargs)

        monkeypatch.setattr(hammcert.problem, "validate_spec", counting)
        monkeypatch.setattr(hammcert.cli, "validate_spec", counting)
        assert main(["validate", "--problem", example1_path, "--m", "8"]) == 0
        assert calls == [8]

    def test_warnings_match_table(self, zero_problem, tmp_path, capsys):
        # f dips below zero between the 8^3 lattice points only, so a pass
        # at m = 64 would warn about f where the --m 8 table does not
        bad = _variant(tmp_path, zero_problem, "gamma2 = t", "gamma2 = -t")
        bad = _variant(tmp_path, bad, "dgamma2 = 1", "dgamma2 = -1")
        bad = _variant(tmp_path, bad, "f = u", "f = (u - 1/14)^2 - 1/10000")
        assert main(["validate", "--problem", bad, "--m", "8"]) == 1
        captured = capsys.readouterr()
        warned = [line.removeprefix("warning: ").split(": ", 1)
                  for line in captured.err.splitlines()]
        rows = [line.split("  WARN  ", 1) for line in captured.out.splitlines()
                if "  WARN  " in line]
        assert [[name.rstrip(), detail] for name, detail in rows] == warned
        assert [name for name, _ in warned] == ["gamma2 >= 0", "gamma2' >= 0"]

    def test_evaluation_error_names_file(self, zero_problem, tmp_path, capsys):
        bad = _variant(tmp_path, zero_problem, "f = u", "f = 1/u")
        assert main(["validate", "--problem", bad, "--m", "8"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_non_finite_f_names_the_point(self, example1_path, tmp_path, capsys):
        # f is non-finite on the u = 0 face of the (t, u, v) lattice
        bad = _variant(tmp_path, example1_path, "f = exp(t*(u + v))", "f = 1/u")
        assert main(["validate", "--problem", bad]) == 2
        err = capsys.readouterr().err
        assert "expression '1.0/u' is non-finite at t=0, u=0, v=0" in err

    def test_derivative_mismatch_exits_2(self, zero_problem, tmp_path, capsys):
        bad = _variant(tmp_path, zero_problem, "dgamma2 = 1", "dgamma2 = 2")
        rc = main(["validate", "--problem", bad])
        assert rc == 2
        assert "gamma2" in capsys.readouterr().err

    def test_non_utf8_file_exit_2(self, zero_problem, tmp_path, capsys):
        bad = tmp_path / "latin1.prob"
        bad.write_bytes(pathlib.Path(zero_problem).read_bytes().replace(b"f = u", b"f = u # \xff"))
        assert main(["validate", "--problem", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert "can't decode byte 0xff" in err


class TestSweepCommand:
    def test_example2_sweep(self, example2_path, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--problem", example2_path,
                   "--lambda", "0:1:4", "--eta1", "0:1:4", "--eta2", "0:1:4",
                   "--r", "0.05", "--R", "1", "--witness", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        record = parse_record(text)
        assert record["cells"] == 64
        assert record["conflict"] == 0
        rows = [line for line in text.splitlines() if line and not line.startswith("#")]
        assert rows[0].startswith("lambda,eta1,eta2,classification")
        assert len(rows) == 65
        first = rows[1].split(",")
        assert first[3] == "nonexistence"  # the origin

    def test_stdout_when_no_out(self, example2_path, capsys):
        rc = main(["sweep", "--problem", example2_path,
                   "--lambda", "0:0:1", "--eta1", "0:0:1", "--eta2", "0:0:1",
                   "--r", "0.05", "--R", "1"])
        assert rc == 0
        assert "lambda,eta1,eta2" in capsys.readouterr().out

    def test_workers_option_is_gone(self, example2_path):
        assert main(["sweep", "--problem", example2_path,
                     "--lambda", "0:1:2", "--eta1", "0:1:2", "--eta2", "0:1:2",
                     "--r", "0.05", "--R", "1", "--workers", "2"]) == 2

    def test_bad_axis_exit_2(self, example2_path):
        assert main(["sweep", "--problem", example2_path, "--lambda", "0:1",
                     "--eta1", "0:1:2", "--eta2", "0:1:2",
                     "--r", "0.05", "--R", "1"]) == 2


    @pytest.mark.parametrize("axis", ["0:inf:3", "nan:1:3"])
    def test_non_finite_axis_exit_2(self, example2_path, axis, capsys):
        assert main(["sweep", "--problem", example2_path, "--lambda", axis,
                     "--eta1", "0:1:2", "--eta2", "0:1:2",
                     "--r", "0.05", "--R", "1"]) == 2
        assert "must be finite" in capsys.readouterr().err


class TestNumericOptions:
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.5"])
    def test_solve_tolerance_finite_and_positive(self, example1_path, tol, capsys):
        assert main(["solve", "--problem", example1_path, "--n", "16", "--tol", tol]) == 2
        assert "tolerance must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["1", "0", "-4"])
    def test_lattice_size_at_least_two(self, example1_path, m, capsys):
        assert main(["validate", "--problem", example1_path, "--m", m]) == 2
        assert "argument --m: must be at least 2" in capsys.readouterr().err

    def test_samples_not_negative(self, example1_path, capsys):
        assert main(["certify-existence", "--problem", example1_path, "--r", "0.05",
                     "--R", "1", "--samples", "-3"]) == 2
        assert "argument --samples: must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_iteration_cap_at_least_one(self, example2_path, cap, capsys):
        assert main(["solve", "--problem", example2_path, "--n", "16", "--max-iter", cap]) == 2
        assert "argument --max-iter: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    @pytest.mark.parametrize("command", ["certify-nonexistence", "sweep"])
    def test_budget_at_least_one(self, example2_path, command, budget, capsys):
        argv = [command, "--problem", example2_path, "--budget", budget, "--skip-falsification"]
        if command == "sweep":
            argv += ["--lambda", "0:1:2", "--eta1", "0:1:2", "--eta2", "0:1:2",
                     "--r", "0.05", "--R", "1", "--witness"]
        assert main(argv) == 2
        assert "argument --budget: must be at least 1" in capsys.readouterr().err

    def test_non_integer_lattice_size(self, example1_path, capsys):
        assert main(["validate", "--problem", example1_path, "--m", "x"]) == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["certify-existence", "--r", "0.05", "--R", "1"],
        ["certify-nonexistence"],
        ["solve"],
        ["sweep", "--lambda", "0:1:2", "--eta1", "0:1:2", "--eta2", "0:1:2",
         "--r", "0.05", "--R", "1", "--witness"],
    ], ids=lambda argv: argv[0])
    def test_seed_not_negative(self, example2_path, argv, capsys):
        assert main([argv[0], "--problem", example2_path, *argv[1:], "--seed", "-1"]) == 2
        assert "argument --seed: must be at least 0" in capsys.readouterr().err


class TestOptionSurface:
    # Each subcommand declares exactly the flags its handler reads.
    FLAGS = {
        "validate": ["--problem", "--n", "--seed", "--m"],
        "certify-existence": ["--problem", "--n", "--seed", "--m", "--samples", "--out",
                              "--r", "--R"],
        "certify-nonexistence": ["--problem", "--n", "--seed", "--out", "--budget",
                                 "--skip-falsification"],
        "solve": ["--problem", "--n", "--seed", "--out", "--r", "--R", "--starts", "--tol",
                  "--max-iter"],
        "sweep": ["--problem", "--n", "--seed", "--m", "--samples", "--out", "--budget",
                  "--skip-falsification", "--lambda", "--eta1", "--eta2", "--r", "--R",
                  "--witness"],
    }

    def test_each_command_declares_exactly_its_flags(self):
        parser = hammcert.cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == sorted(self.FLAGS)
        for name, command in sub.choices.items():
            flags = [opt for action in command._actions for opt in action.option_strings
                     if opt not in ("-h", "--help")]
            assert flags == self.FLAGS[name], name
            assert command.allow_abbrev is False, name
        assert parser.allow_abbrev is False

    @pytest.mark.parametrize("argv", [
        ["solve", "--m", "8"],
        ["solve", "--samples", "3"],
        ["certify-nonexistence", "--m", "8"],
        ["validate", "--out", "x"],
        ["solve", "--star", "2"],
    ], ids=" ".join)
    def test_removed_flags_and_prefixes_are_rejected(self, example2_path, argv, capsys):
        assert main([argv[0], "--problem", example2_path, *argv[1:]]) == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


class TestRecordEnvelope:
    @pytest.mark.parametrize("argv", [
        pytest.param(["certify-existence", "--r", "0.05", "--R", "1"], id="existence"),
        pytest.param(["certify-nonexistence"], id="witness-falsified"),
        pytest.param(["certify-nonexistence", "--skip-falsification"], id="nonexistence"),
        pytest.param(["solve", "--r", "0.05", "--R", "1", "--starts", "2"], id="solve"),
        pytest.param(["solve", "--r", "5", "--R", "6", "--starts", "2"], id="solve-not-found"),
        pytest.param(["sweep", "--lambda", "0:1:2", "--eta1", "0:1:2", "--eta2", "0:1:2",
                      "--r", "0.05", "--R", "1", "--witness", "--skip-falsification"], id="sweep"),
    ])
    def test_every_record_carries_the_envelope(self, example1_path, tmp_path, argv):
        # example1 with a witness the falsifier refutes, and one load warning
        problem = _variant(tmp_path, example1_path, "[bounds]",
                           "[bounds]\ntau = 3\nxi1 = 1\nxi2 = 1")
        problem = _variant(tmp_path, problem, "gamma2 = t", "gamma2 = t - 1/100", "warned.prob")
        out = tmp_path / "record.out"
        main([argv[0], "--problem", problem, *argv[1:], "--n", "32", "--seed", "3",
              "--out", str(out)])
        record = parse_record(out.read_text())
        assert list(record)[:2] == ["command", "problem"]
        assert (record["command"], record["problem"]) == (argv[0], problem)
        assert (record["n"], record["seed"], record["warnings"]) == (32, 3, 1)
        if argv == ["certify-nonexistence"]:
            assert record["verdict"] == "witness-falsified"


class TestModuleEntry:
    def _run(self, *argv):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
        return subprocess.run([sys.executable, "-m", "hammcert.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_validate_runs(self, example1_path):
        proc = self._run("validate", "--problem", example1_path)
        assert proc.returncode == 0
        assert "11/11 checks passed" in proc.stdout.splitlines()

    def test_missing_problem_is_usage_error(self):
        proc = self._run("validate")
        assert proc.returncode == 2
        assert "--problem" in proc.stderr


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
