import argparse
import gc
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hammcert.cli
import hammcert.problem
from hammcert.cli import _table, build_parser, format_record, main, parse_record

from problem_texts import ZERO_PROBLEM, edited

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PROBLEMS = SRC.parent / "problems"

# A custom concave kernel whose exact K = 2/3 puts lambda*tau*K exactly on
# the strict boundary 1; its trapezoid K = 0.66661... passes it.
CONCAVE_PROBLEM = """\
[kernel]
k = t*sqrt(s)
[gamma]
gamma1 = 1
gamma2 = t
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


# The declared bound lines of the shipped files; without them every bound is sampled.
EXAMPLE1_BOUNDS = "f_upper = exp(2*rho)\nf_lower = 1\nh1 = rho + rho^2\nh2 = rho^3 + rho\n"
EXAMPLE2_BOUNDS = "f_upper = 3*rho\nf_lower = 0\nh1 = rho\nh2 = rho\n"


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
        assert list(record)[4:6] == ["rigor", "heuristic_inputs"]
        assert record["heuristic_inputs"] is None
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
        # [bounds] is the last section: cut it off (an unknown section is an error)
        text = pathlib.Path(example1_path).read_text()
        nobounds = tmp_path / "nobounds.prob"
        nobounds.write_text(text[:text.index("[bounds]")])
        out = tmp_path / "cert.rec"
        rc = main(["certify-existence", "--problem", str(nobounds),
                   "--r", "0.04", "--R", "1", "--out", str(out)])
        assert rc == 0
        record = parse_record(out.read_text())
        assert record["verdict"] == "heuristic-pass"
        assert record["f_upper_R_rigor"] == "heuristic"
        assert record["heuristic_inputs"] == "f_upper(1.0), f_lower(0.04), h1(1.0), h2(1.0)"

    def test_failed_load_check_caps_the_verdict(self, example1_path, tmp_path, capsys):
        shifted = _variant(tmp_path, example1_path, "gamma2 = t\n", "gamma2 = t - 1/2\n")
        out = tmp_path / "cert.rec"
        rc = main(["certify-existence", "--problem", shifted,
                   "--r", "0.05", "--R", "0.5", "--out", str(out)])
        assert rc == 0
        stdout, stderr = capsys.readouterr()
        assert stderr == "warning: gamma2 >= 0: min -0.5 at t=0\n"
        assert "  heuristic inputs: gamma2 >= 0\n  verdict: PASS (heuristic-pass)\n" in stdout
        text = out.read_text()
        record = parse_record(text)
        assert (record["verdict"], record["rigor"], record["heuristic_inputs"]) \
            == ("heuristic-pass", "heuristic", "gamma2 >= 0")
        assert record["lower_margin"] == 0.0
        assert format_record(record) == text

    def test_sampled_functional_outside_the_interval_names_its_slot(self, example1_path,
                                                                    tmp_path, capsys):
        # u'(0) reaches 5 on the ramp of the sphere ||u|| = 5, so DU(0)/3 leaves [0,1]
        text = pathlib.Path(example1_path).read_text()
        sampled = tmp_path / "sampled.prob"
        sampled.write_text(edited(text[:text.index("[bounds]")],
                                  ("h1 = U(1/4) + DU(3/4)^2", "h1 = U(DU(0)/3)")))
        assert main(["certify-existence", "--problem", str(sampled),
                     "--r", "0.05", "--R", "5"]) == 2
        assert capsys.readouterr() == ("", "error: sampled bound h1(5.0): [functionals] h1 = "
                                           "'U(DU(0.0)/3.0)': evaluation point "
                                           "1.6666666666666667 outside [0,1]\n")

    def test_bad_radii_exit_2(self, example1_path):
        assert main(["certify-existence", "--problem", example1_path,
                     "--r", "1", "--R", "0.05"]) == 2

    def test_missing_file_exit_2(self):
        assert main(["certify-existence", "--problem", "no/such/file.prob",
                     "--r", "0.05", "--R", "1"]) == 2

    def test_non_finite_declared_bound_names_its_entry(self, example1_path, capsys):
        assert main(["certify-existence", "--problem", example1_path,
                     "--r", "0.05", "--R", "1000"]) == 2
        assert capsys.readouterr().err == ("error: declared bound f_upper(1000.0): [bounds] "
                                           "f_upper = 'exp(2.0*rho)': non-finite at rho=1000\n")

    @pytest.mark.parametrize("source, edits, err", [
        # Every bound sampled, as the benchmark's sampled copy has them: f
        # overflows at the lattice point the whole-lattice scan names.
        ("example2", [(f"{line}\n", "") for line in
                      ("f_upper = 3*rho", "f_lower = 0", "h1 = rho", "h2 = rho")],
         "sampled bound f_upper(1e+200): [nonlinearity] f = 'u*(2.0 - t*sin(u*v))': "
         "non-finite at t=0, u=1.5873e+198, v=1.5873e+198"),
        # f_upper declared finite, h1 sampled: DU(3/4)^2 overflows on the
        # sphere, first on the first ramp whose interval holds 3/4.
        ("example1", [("f_upper = exp(2*rho)\n", "f_upper = 1\n"), ("h1 = rho + rho^2\n", "")],
         "sampled bound h1(1e+200): [functionals] h1 = 'U(1.0/4.0) + DU(3.0/4.0)^2.0': "
         "non-finite on the ramp of slope 1e+200 on [0, 0.777778] from u(0) = 0 "
         "(C1 norm 1e+200)"),
    ], ids=["f_upper", "h1"])
    def test_non_finite_sampled_bound_names_its_slot(self, tmp_path, source, edits, err, capsys):
        sampled = tmp_path / "sampled.prob"
        sampled.write_text(edited((PROBLEMS / f"{source}.prob").read_text(), *edits))
        assert main(["certify-existence", "--problem", str(sampled),
                     "--r", "0.05", "--R", "1e200"]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"


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
        assert record["heuristic_inputs"] == (None if rigor == "certified" else "K")
        assert f"verdict: PASS (rigor: {rigor})" in capsys.readouterr().out

    def test_failed_load_check_caps_the_rigor(self, example2_path, tmp_path, capsys):
        shifted = _variant(tmp_path, example2_path, "gamma2 = t\n", "gamma2 = t - 1/2\n")
        out = tmp_path / "cert.rec"
        assert main(["certify-nonexistence", "--problem", shifted, "--out", str(out)]) == 0
        stdout, stderr = capsys.readouterr()
        assert stderr == "warning: gamma2 >= 0: min -0.5 at t=0\n"
        assert "  heuristic inputs: gamma2 >= 0\n  verdict: PASS (rigor: heuristic)\n" in stdout
        text = out.read_text()
        record = parse_record(text)
        assert (record["verdict"], record["rigor"], record["heuristic_inputs"]) \
            == ("pass", "heuristic", "gamma2 >= 0")
        assert list(record)[4:6] == ["rigor", "heuristic_inputs"]
        assert format_record(record) == text

    @pytest.mark.parametrize("f, rc, verdict", [("2", 1, "witness-falsified"), ("0", 0, "pass")])
    def test_constant_f(self, example2_path, tmp_path, capsys, f, rc, verdict):
        problem = _variant(tmp_path, example2_path, "f = u*(2 - t*sin(u*v))", f"f = {f}")
        out = tmp_path / "cert.rec"
        assert main(["certify-nonexistence", "--problem", problem, "--out", str(out)]) == rc
        record = parse_record(out.read_text())
        assert record["verdict"] == verdict
        if rc:
            assert record["counterexample_kind"] == "f-growth"
            assert record["counterexample_detail"] == "f(0.0, 0.0, 0.0) = 2 > tau*u = 0"

    def test_boundary_point_fails(self, example2_path, tmp_path):
        boundary = _variant(tmp_path, example2_path, "lambda = 1/3", "lambda = 2/3")
        boundary = _variant(tmp_path, boundary, "eta1 = 1/4", "eta1 = 0")
        boundary = _variant(tmp_path, boundary, "eta2 = 1/5", "eta2 = 0")
        assert main(["certify-nonexistence", "--problem", boundary]) == 1

    def test_falsified_witness(self, example1_path, tmp_path, capsys):
        # the exponential nonlinearity cannot satisfy f <= tau*u; the first
        # lattice, 16 x 8 x 8 points over rho = 1, refutes it at its first point
        with_witness = _variant(tmp_path, example1_path, "[bounds]",
                                "[bounds]\ntau = 3\nxi1 = 1\nxi2 = 1")
        out = tmp_path / "cert.rec"
        rc = main(["certify-nonexistence", "--problem", with_witness, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().out == ("witness falsified after 1024 samples: "
                                           "f(0.0, 0.0, 0.0) = 1 > tau*u = 0\n")
        record = parse_record(out.read_text())
        assert record["verdict"] == "witness-falsified"
        assert record["counterexample_kind"] == "f-growth"

    def test_falsified_functional_names_its_sample(self, example2_path, tmp_path, capsys):
        # h1 = 1 > xi1*sup u = 1/10 on the constant 1, the first sample at rho = 1
        problem = _variant(tmp_path, example2_path, "xi1 = 1\n", "xi1 = 1/10\n")
        out = tmp_path / "cert.rec"
        assert main(["certify-nonexistence", "--problem", problem, "--out", str(out)]) == 1
        detail = "h1[the constant 1] = 1 > xi1*sup u = 0.1"
        assert capsys.readouterr().out == f"witness falsified after 1024 samples: {detail}\n"
        record = parse_record(out.read_text())
        assert (record["counterexample_kind"], record["counterexample_detail"]) == ("h1", detail)

    @pytest.mark.parametrize("argv", [
        ["--seed", "5"], ["--n", "16"], ["--skip-falsification"], ["--budget", "1"],
    ], ids=" ".join)
    def test_false_witness_never_passes(self, example1_path, tmp_path, argv, capsys):
        # example1 has a nontrivial solution (norm 0.1094), so tau = 3 is false;
        # every accepted argv refutes it (test_falsified_witness has the
        # defaults), and no flag skips the falsifier
        with_witness = _variant(tmp_path, example1_path, "[bounds]",
                                "[bounds]\ntau = 3\nxi1 = 1\nxi2 = 1")
        out = tmp_path / "cert.rec"
        rc = main(["certify-nonexistence", "--problem", with_witness, *argv, "--out", str(out)])
        assert "PASS" not in capsys.readouterr().out
        if argv[:1] in (["--skip-falsification"], ["--budget"]):
            assert rc == 2 and not out.exists()
        else:
            assert rc == 1
            assert parse_record(out.read_text())["verdict"] == "witness-falsified"

    def test_no_witness_exit_2(self, example1_path):
        assert main(["certify-nonexistence", "--problem", example1_path]) == 2

    def test_non_finite_functional_names_its_entry(self, example2_path, tmp_path, capsys):
        # exp(u(1)^4) overflows once u(1) > 5.2, beyond every sphere the
        # load samples; the falsifier reaches it first on the constant 8.
        bad = _variant(tmp_path, example2_path, "h1 = U(1/4) * cos(DU(3/4))^2",
                       "h1 = U(1/4)*exp(U(1)^4)/exp(U(1)^4)")
        assert main(["validate", "--problem", bad]) == 0
        capsys.readouterr()
        assert main(["certify-nonexistence", "--problem", bad]) == 2
        h1 = "U(1.0/4.0)*exp(U(1.0)^4.0)/exp(U(1.0)^4.0)"
        assert capsys.readouterr() == ("", f"error: [functionals] h1 = '{h1}': "
                                           "non-finite on the constant 8 (C1 norm 8)\n")

    def test_non_finite_f_names_its_entry(self, example2_path, tmp_path, capsys):
        # exp(u^4) overflows once u > 5.2, beyond the load's [0,1]^3 lattice;
        # the falsifier's lattice over [0,8]^2 reaches it first.
        bad = _variant(tmp_path, example2_path, "f = u*(2 - t*sin(u*v))",
                       "f = u*exp(u^4)/exp(u^4)")
        assert main(["validate", "--problem", bad]) == 0
        capsys.readouterr()
        assert main(["certify-nonexistence", "--problem", bad]) == 2
        f = "u*exp(u^4.0)/exp(u^4.0)"
        assert capsys.readouterr() == ("", f"error: [nonlinearity] f = '{f}': "
                                           "non-finite at t=0, u=5.71429, v=0\n")

    @pytest.mark.xfail(strict=True, reason="the witness falsifier samples f, and nothing "
                                           "proves f <= tau*u between its samples")
    def test_spike_above_the_witness_is_not_certified(self, example2_path, tmp_path):
        # f/u = 12 > tau = 3 at u = 0.3, in a spike of width about 1e-6
        # that none of the falsifier's samples lands in.
        spike = _variant(tmp_path, example2_path, "f = u*(2 - t*sin(u*v))",
                         "f = u*(2 - t*sin(u*v)) + 10*u*exp(-1e12*(u - 0.3)^2)")
        out = tmp_path / "cert.rec"
        main(["certify-nonexistence", "--problem", spike, "--out", str(out)])
        assert parse_record(out.read_text()).get("rigor") != "certified"

    def test_load_warning_reported(self, example2_path, tmp_path, capsys):
        # gamma2 is no input of the falsifier, which finds the witness consistent
        shifted = _variant(tmp_path, example2_path, "gamma2 = t", "gamma2 = t - 1/100")
        out = tmp_path / "cert.rec"
        rc = main(["certify-nonexistence", "--problem", shifted, "--out", str(out)])
        assert rc == 0  # the verdict still comes from the inequality alone
        err = capsys.readouterr().err
        assert "warning: gamma2 >= 0: min -0.01" in err
        record = parse_record(out.read_text())
        assert (record["warnings"], record["falsification"], record["rigor"]) \
            == (1, "consistent", "heuristic")


class TestSolve:
    def test_overflow_diverges_without_a_warning(self, example1_path, tmp_path, capsys):
        huge = _variant(tmp_path, example1_path, "eta1 = 1/11", "eta1 = 1e300")
        huge = _variant(tmp_path, huge, "h1 = U(1/4) + DU(3/4)^2", "h1 = U(1/4) + 1e300",
                        "overflow.prob")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--problem", huge, "--n", "16"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.count("diverged       norm=inf") == 8

    # Every command that writes a record, on a file whose bounds it samples
    # where it reads any: (problem, its bound lines to delete, argv).
    SEEDLESS = {
        "example1": ("example1", "", ["solve"]),
        "example2": ("example2", "", ["solve"]),
        "existence-sampled": ("example1", EXAMPLE1_BOUNDS,
                              ["certify-existence", "--r", "0.05", "--R", "1"]),
        "nonexistence": ("example2", "", ["certify-nonexistence"]),
        "sweep-sampled": ("example2", EXAMPLE2_BOUNDS,
                          ["sweep", "--lambda", "0:1:2", "--eta1", "0:1:2", "--eta2", "0:1:2",
                           "--r", "0.05", "--R", "1", "--witness"]),
    }

    @pytest.mark.parametrize("case", SEEDLESS)
    def test_record_depends_only_on_the_file_and_the_argv(self, case, tmp_path):
        # The sampled bounds, the falsifier and the solve starts draw at
        # fixed seeds or none: --seed changes the seed= line alone, and
        # elapsed_s= is a wall time.
        name, bounds, argv = self.SEEDLESS[case]
        problem = str(PROBLEMS / f"{name}.prob")
        if bounds:
            problem = _variant(tmp_path, problem, bounds, "")
        files = []
        for seed in range(4):
            out = tmp_path / f"record{seed}.out"
            rc = main([argv[0], "--problem", problem, *argv[1:], "--seed", str(seed),
                       "--out", str(out)])
            lines = [line.removeprefix("# ") for line in out.read_text().splitlines()]
            assert f"seed={seed}" in lines
            files.append((rc, [line for line in lines
                               if not line.startswith(("seed=", "elapsed_s="))]))
        assert files[0][0] in (0, 1)
        assert files[1:] == files[:1] * 3

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
                   "--out", str(out)])
        assert rc == 0
        record = parse_record(out.read_text())
        assert record["in_annulus"] is True
        assert record["residual"] <= 1e-10
        assert record["warnings"] == 0
        assert isinstance(record["elapsed_s"], float) and record["elapsed_s"] > 0

    @pytest.mark.parametrize("radii, columns, in_annulus, rc", [
        ([], ["-", "-", "-"], None, 0),
        (["--r", "0.05", "--R", "1"], ["yes", "no", "no"], True, 0),
        (["--r", "0.2", "--R", "1"], ["no", "no", "no"], "absent", 1),
    ])
    def test_annulus_column_and_selection(self, example1_path, tmp_path, capsys,
                                          radii, columns, in_annulus, rc):
        # example1 at the defaults: one converged row (norm 0.1094) and two
        # diverged rows, from the ramps of norm 10^0.5 and 10; every row, the
        # diverged ones too, is judged r <= norm <= R.
        out = tmp_path / "sol.csv"
        assert main(["solve", "--problem", example1_path, *radii, "--out", str(out)]) == rc
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if line.startswith("  ")]
        assert [row[0] for row in rows] == ["converged", "diverged", "diverged"]
        assert [row[-1] for row in rows] == [f"annulus={c}" for c in columns]
        record = parse_record(out.read_text())
        assert record["found"] is (rc == 0)
        assert record.get("in_annulus", "absent") == in_annulus
        if rc == 0:
            assert record["norm"] == pytest.approx(0.1094489, abs=1e-6)

    @pytest.mark.parametrize("name, failed", [("example1", 2), ("example2", 0)])
    def test_failed_starts_are_not_solutions(self, name, failed, tmp_path, capsys):
        # example1: one fixed point, and the ramps of norm 10^0.5 and 10
        # diverge; example2: every start converges to zero.
        path, out = str(PROBLEMS / f"{name}.prob"), tmp_path / "sol.csv"
        assert main(["solve", "--problem", path, "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith(
            f"solve {path}: 1 distinct solution and {failed} failed starts from 8 starts in ")
        record = parse_record(out.read_text())
        assert (record["starts"], record["converged"], record["failed_starts"]) == (8, 1, failed)
        assert "results" not in record

    def test_annulus_without_solution_exits_1(self, example2_path):
        # only the trivial fixed point exists; requesting norm >= 0.05 must fail
        rc = main(["solve", "--problem", example2_path, "--r", "0.05", "--R", "1"])
        assert rc == 1

    def test_non_finite_f_names_its_entry(self, example2_path, tmp_path, capsys):
        # f passes the load's [0,1]^3 lattice, and overflows on a start.
        bad = _variant(tmp_path, example2_path, "f = u*(2 - t*sin(u*v))", "f = exp(exp(exp(t*u)))")
        assert main(["validate", "--problem", bad]) == 0
        capsys.readouterr()
        assert main(["solve", "--problem", bad]) == 2
        assert capsys.readouterr() == ("", "error: [nonlinearity] f = 'exp(exp(exp(t*u)))': "
                                           "non-finite at t=0.773438, u=2.44582, v=3.16228 "
                                           "in row 6 of a stack of 8\n")

    def test_point_outside_the_interval_names_its_entry(self, example1_path, tmp_path, capsys):
        # u'(0) <= 2 on every cone sample the load takes, so DU(0)/3 stays in
        # [0,1] there; the ramp start of norm 10^0.5 puts it at 1.054.
        bad = _variant(tmp_path, example1_path, "h1 = U(1/4) + DU(3/4)^2", "h1 = U(DU(0)/3)")
        assert main(["validate", "--problem", bad]) == 0
        capsys.readouterr()
        assert main(["solve", "--problem", bad]) == 2
        assert capsys.readouterr() == ("", "error: [functionals] h1 = 'U(DU(0.0)/3.0)': "
                                           "evaluation point 1.0540925533894598 outside [0,1]\n")

    def test_r_without_R_is_usage_error(self, example1_path):
        assert main(["solve", "--problem", example1_path, "--r", "0.05"]) == 2


class TestValidate:
    def test_example_files_pass(self, example1_path, example2_path, capsys):
        assert main(["validate", "--problem", example1_path]) == 0
        assert main(["validate", "--problem", example2_path]) == 0
        assert "8/8 checks passed" in capsys.readouterr().out

    def test_sign_warning_exits_1(self, zero_problem, tmp_path, capsys):
        bad = _variant(tmp_path, zero_problem, "gamma2 = t", "gamma2 = -t")
        rc = main(["validate", "--problem", bad])
        assert rc == 1
        assert "WARN" in capsys.readouterr().out

    def test_validates_once(self, example1_path, monkeypatch):
        calls = []
        original = hammcert.problem.validate_spec

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(hammcert.problem, "validate_spec", counting)
        assert main(["validate", "--problem", example1_path]) == 0
        assert len(calls) == 1

    def test_warnings_match_table(self, zero_problem, tmp_path, capsys):
        bad = _variant(tmp_path, zero_problem, "gamma2 = t", "gamma2 = -t")
        assert main(["validate", "--problem", bad]) == 1
        captured = capsys.readouterr()
        warned = [line.removeprefix("warning: ").split(": ", 1)
                  for line in captured.err.splitlines()]
        rows = [line.split("  WARN  ", 1) for line in captured.out.splitlines()
                if "  WARN  " in line]
        assert [[name.rstrip(), detail] for name, detail in rows] == warned
        assert [name for name, _ in warned] == ["gamma2 >= 0", "gamma2' >= 0"]

    def test_evaluation_error_names_file(self, zero_problem, tmp_path, capsys):
        bad = _variant(tmp_path, zero_problem, "f = u", "f = 1/u")
        assert main(["validate", "--problem", bad]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_non_finite_functional_names_the_cone_sample(self, example1_path, tmp_path, capsys):
        # exp(1000*u'(3/4)) overflows once u'(3/4) > 0.71, first on the
        # load-time check's ramp rho*t with C1 norm 1
        bad = _variant(tmp_path, example1_path, "h1 = U(1/4) + DU(3/4)^2\n",
                       "h1 = U(1/4) + exp(1000*DU(3/4))\n")
        assert main(["validate", "--problem", bad]) == 2
        h1 = "U(1.0/4.0) + exp(1000.0*DU(3.0/4.0))"
        assert capsys.readouterr().err == (
            f"error: {bad}: [functionals] h1 = '{h1}': non-finite "
            "on the ramp of slope 1 on [0, 1] from u(0) = 0 (C1 norm 1)\n")

    @pytest.mark.parametrize("argv, old, new, err", [
        # A misspelt bound used to be sampled instead: PASS (heuristic-pass), exit 0.
        (["certify-existence", "--r", "0.05", "--R", "1"], "f_upper =", "f_uper =",
         "unknown key 'f_uper' in [bounds] (allowed: f_upper, f_lower, h1, h2, tau, xi1, xi2)"),
        (["validate"], "gamma2 = t\n", "gamma2 = t\nfoo = 3\n",
         "unknown key 'foo' in [gamma] (allowed: gamma1, gamma2)"),
    ], ids=["certify-existence", "validate"])
    def test_unknown_key_exits_2(self, example1_path, tmp_path, capsys, argv, old, new, err):
        bad = _variant(tmp_path, example1_path, old, new)
        assert main([argv[0], "--problem", bad, *argv[1:]]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {err}\n"

    @pytest.mark.parametrize("new, err", [
        # The focal kernel used to win silently: PASS (certified) with K = 0.5.
        ("name = focal\nk = t*s", "[kernel] needs exactly one of name and k, got both"),
        ("k = s^t", "dk from [kernel] k = 's^t': cannot differentiate 's^t': "
                    "an exponent reads t (no log)"),
        ("k = 1/10 + min(s,t)", "dk from [kernel] k = '1.0/10.0 + min(s, t)': expression "
                                "'max((s - t)/abs(s - t), 0.0)' is non-finite at t=0, s=0"),
        ("k = 1/(t - s)", "[kernel] k = '1.0/(t - s)': non-finite at t=0, s=0"),
    ], ids=["name-and-k", "underivable", "kink-on-nodes", "pole-on-nodes"])
    def test_kernel_fault_exits_2(self, example1_path, tmp_path, capsys, new, err):
        bad = _variant(tmp_path, example1_path, "name = focal", new)
        assert main(["certify-existence", "--problem", bad, "--r", "0.05", "--R", "1"]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {err}\n"

    def test_non_finite_f_names_the_point(self, example1_path, tmp_path, capsys):
        # f is non-finite on the u = 0 face of the (t, u, v) lattice
        bad = _variant(tmp_path, example1_path, "f = exp(t*(u + v))", "f = 1/u")
        assert main(["validate", "--problem", bad]) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: [nonlinearity] f = '1.0/u': "
                                           "non-finite at t=0, u=0, v=0\n")

    @pytest.mark.parametrize("h2, src", [("1/U(0)", "1.0/U(0.0)"), ("1/U(1)", "1.0/U(1.0)")])
    def test_functional_infinite_at_zero_fails_the_load(self, example1_path, tmp_path, capsys,
                                                        h2, src):
        # The load's stack starts with the zero function, where both are infinite.
        bad = _variant(tmp_path, example1_path, "h2 = INT(U(s)^3 + DU(s))", f"h2 = {h2}")
        assert main(["validate", "--problem", bad]) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: [functionals] h2 = '{src}': "
                                           "non-finite on the zero function (C1 norm 0)\n")

    def test_nan_point_fails_the_load(self, example1_path, tmp_path, capsys):
        # 0/0 is NaN on every sample; the zero function comes first
        bad = _variant(tmp_path, example1_path, "h1 = U(1/4) + DU(3/4)^2", "h1 = U(0/0)")
        assert main(["validate", "--problem", bad]) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: [functionals] h1 = 'U(0.0/0.0)': "
                                           "evaluation point nan outside [0,1]\n")

    def test_point_outside_the_interval_fails_the_load(self, example1_path, tmp_path, capsys):
        # the ramp 2t on the sphere rho = 2 has u'(0) = 2
        bad = _variant(tmp_path, example1_path, "h1 = U(1/4) + DU(3/4)^2", "h1 = U(DU(0))")
        assert main(["validate", "--problem", bad]) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: [functionals] h1 = 'U(DU(0.0))': "
                                           "evaluation point 2.0 outside [0,1]\n")

    def test_non_finite_gamma_names_its_entry(self, example1_path, tmp_path, capsys):
        bad = _variant(tmp_path, example1_path, "gamma2 = t\n", "gamma2 = 1/t\n")
        assert main(["validate", "--problem", bad]) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: [gamma] gamma2 = '1.0/t': "
                                           "non-finite at t=0\n")

    def test_first_load_error_wins(self, zero_problem, tmp_path, capsys):
        # Negative lambda is found before the malformed f.
        text = pathlib.Path(zero_problem).read_text()
        bad = tmp_path / "two-faults.prob"
        bad.write_text(text.replace("lambda = 0", "lambda = -1").replace("f = u", "f = u +"))
        assert main(["certify-existence", "--problem", str(bad), "--r", "0.05", "--R", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: parameter lambda must be non-negative, got -1.0\n")

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

    def test_conflict_exits_2(self, example2_path, tmp_path, capsys):
        # f_lower = 3 contradicts the witness's f <= 3u at u = 0, so both
        # certificates pass at one cell: a consistency alarm, not a verdict.
        problem = _variant(tmp_path, example2_path, "f_lower = 0\n", "f_lower = 3\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--problem", problem, "--lambda", "0.2:0.2:1", "--eta1", "0:0:1",
                     "--eta2", "0:0:1", "--r", "0.05", "--R", "1", "--witness",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "CONFLICT: both certificates passed at 1 cells, e.g. lambda=0.2, eta1=0.0, eta2=0.0; "
            "the declared bounds and witness are mutually inconsistent\n")
        assert parse_record(out.read_text())["conflict"] == 1

    def test_constant_f_falsifies_the_witness(self, example2_path, tmp_path, capsys):
        problem = _variant(tmp_path, example2_path, "f = u*(2 - t*sin(u*v))", "f = 2")
        assert main(["sweep", "--problem", problem, "--lambda", "0:1:2", "--eta1", "0:1:2",
                     "--eta2", "0:1:2", "--r", "0.05", "--R", "1", "--witness"]) == 2
        assert capsys.readouterr().err == ("error: declared witness falsified: "
                                           "f(0.0, 0.0, 0.0) = 2 > tau*u = 0\n")

    @pytest.mark.parametrize("exc, err", [
        (MemoryError("Unable to allocate 7.11 PiB for an array with shape "
                     "(100000, 100000, 100000) and data type float64"),
         "Unable to allocate 7.11 PiB for an array with shape "
         "(100000, 100000, 100000) and data type float64"),
        (MemoryError(), "MemoryError"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_exits_2(self, example2_path, monkeypatch, capsys, exc, err):
        # An oversized grid (1e15 cells) fails numpy's allocation at once;
        # exit 1 would read as a failed certificate.
        def oversized(*args, **kwargs):
            raise exc

        monkeypatch.setattr(hammcert.cli, "run_sweep", oversized)
        assert main(["sweep", "--problem", example2_path, "--lambda", "0:1:100000",
                     "--eta1", "0:1:100000", "--eta2", "0:1:100000",
                     "--r", "0.05", "--R", "1"]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")

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
    @pytest.mark.parametrize("n", ["1", "0", "-5"])
    def test_grid_size_at_least_two(self, n, capsys):
        # A usage error, raised before the problem file is read.
        assert main(["validate", "--problem", "no/such/file.prob", "--n", n]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"hammcert validate: error: argument --n: must be at least 2, got {n}")

    @pytest.mark.parametrize("argv", [
        ["certify-existence"],
        ["solve"],
        ["sweep", "--lambda", "0:1:2", "--eta1", "0:1:2", "--eta2", "0:1:2"],
    ], ids=lambda argv: argv[0])
    def test_outer_radius_finite(self, example2_path, tmp_path, argv, capsys):
        # Sampled bounds: an infinite R would reach the sampler, whose
        # numpy warnings become errors here.
        sampled = _variant(tmp_path, example2_path, EXAMPLE2_BOUNDS, "")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([argv[0], "--problem", sampled, *argv[1:], "--r", "0.05", "--R", "inf"])
        assert rc == 2
        assert capsys.readouterr().err == "error: outer radius R must be finite, got inf\n"

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
    # Each subcommand declares the flags its handler reads, and no other
    # but --seed, which every command accepts and only records as seed=.
    FLAGS = {
        "validate": ["--problem", "--n", "--seed"],
        "certify-existence": ["--problem", "--n", "--seed", "--out", "--r", "--R"],
        "certify-nonexistence": ["--problem", "--n", "--seed", "--out"],
        "solve": ["--problem", "--n", "--seed", "--out", "--r", "--R"],
        "sweep": ["--problem", "--n", "--seed", "--out", "--lambda", "--eta1", "--eta2", "--r",
                  "--R", "--witness"],
    }
    # The arguments a command requires besides --problem.
    REQUIRED = {
        "certify-existence": ["--r", "0.05", "--R", "1"],
        "sweep": ["--lambda", "0:1:2", "--eta1", "0:1:2", "--eta2", "0:1:2", "--r", "0.05",
                  "--R", "1"],
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

    def test_seed_help_says_no_command_reads_it(self):
        parser = hammcert.cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name, command in sub.choices.items():
            seed = next(a for a in command._actions if a.option_strings == ["--seed"])
            assert seed.help == "accepted and recorded as seed=; no command reads it (default 0)"

    @pytest.mark.parametrize("argv", [
        ["solve", "--m", "8"],
        ["solve", "--samples", "3"],
        ["certify-nonexistence", "--m", "8"],
        ["validate", "--out", "x"],
        ["validate", "--m", "200"],
        ["solve", "--starts", "4"],
        ["solve", "--tol", "1e-8"],
        ["solve", "--max-iter", "1"],
        ["solve", "--star", "2"],
        ["sweep", "--wit"],
        ["certify-existence", "--m", "8"],
        ["certify-existence", "--samples", "3"],
        ["certify-nonexistence", "--budget", "1"],
        ["certify-nonexistence", "--skip-falsification"],
        ["sweep", "--m", "8"],
        ["sweep", "--samples", "3"],
        ["sweep", "--budget", "1"],
        ["sweep", "--skip-falsification"],
    ], ids=" ".join)
    def test_removed_flags_and_prefixes_are_rejected(self, example2_path, argv, capsys):
        required = self.REQUIRED.get(argv[0], [])
        assert main([argv[0], "--problem", example2_path, *required, *argv[1:]]) == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


class TestRecordEnvelope:
    @pytest.mark.parametrize("source, argv", [
        pytest.param("example1", ["certify-existence", "--r", "0.05", "--R", "1"], id="existence"),
        pytest.param("example1", ["certify-nonexistence"], id="witness-falsified"),
        pytest.param("example2", ["certify-nonexistence"], id="nonexistence"),
        pytest.param("example1", ["solve", "--r", "0.05", "--R", "1"], id="solve"),
        pytest.param("example1", ["solve", "--r", "5", "--R", "6"], id="solve-not-found"),
        pytest.param("example2", ["sweep", "--lambda", "0:1:2", "--eta1", "0:1:2", "--eta2",
                                  "0:1:2", "--r", "0.05", "--R", "1", "--witness"], id="sweep"),
    ])
    def test_every_record_carries_the_envelope(self, example1_path, example2_path, tmp_path,
                                               source, argv):
        # example1 with a witness the falsifier refutes, example2 with its own,
        # which it does not; each with one load warning
        problem = example2_path if source == "example2" else _variant(
            tmp_path, example1_path, "[bounds]", "[bounds]\ntau = 3\nxi1 = 1\nxi2 = 1")
        problem = _variant(tmp_path, problem, "gamma2 = t", "gamma2 = t - 1/100", "warned.prob")
        out = tmp_path / "record.out"
        main([argv[0], "--problem", problem, *argv[1:], "--n", "32", "--seed", "3",
              "--out", str(out)])
        record = parse_record(out.read_text())
        assert list(record)[:2] == ["command", "problem"]
        assert (record["command"], record["problem"]) == (argv[0], problem)
        assert (record["n"], record["seed"], record["warnings"]) == (32, 3, 1)
        if argv == ["certify-nonexistence"]:
            assert record["verdict"] == {"example1": "witness-falsified", "example2": "pass"}[source]


class TestModuleEntry:
    def _run(self, *argv):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
        return subprocess.run([sys.executable, "-m", "hammcert.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_validate_runs(self, example1_path):
        proc = self._run("validate", "--problem", example1_path)
        assert proc.returncode == 0
        assert "8/8 checks passed" in proc.stdout.splitlines()

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


class TestSharedParser:
    """main() parses with one parser per process, built on its first call."""

    def test_main_leaves_no_argparse_cycles(self, example1_path, capsys):
        argv = ["validate", "--problem", example1_path, "--n", "16"]
        main(argv)  # warm-up: the parser is built here at the latest
        debug, saved = gc.get_debug(), len(gc.garbage)
        gc.collect()
        try:
            gc.set_debug(gc.DEBUG_SAVEALL)
            assert main(argv) == 0
            gc.collect()
            left = [type(o) for o in gc.garbage[saved:] if type(o).__module__ == "argparse"]
        finally:
            gc.set_debug(debug)
            del gc.garbage[saved:]
        assert left == []
        assert build_parser() is build_parser()

    @staticmethod
    def _answers(capsys, problem, out):
        """Exit code, stdout, stderr and --out text of a usage error, a help
        page and a valid solve, wall times masked."""
        answers = []
        for argv in (["sweep", "--problem", problem, "--lambda", "0:1:2", "--eta1", "0:1:2",
                      "--eta2", "0:1:2", "--r", "0.05", "--R", "1", "--wit"],
                     ["solve", "--help"],
                     ["solve", "--problem", problem, "--n", "16", "--out", str(out)]):
            code = main(argv)
            stdout, stderr = capsys.readouterr()
            text = out.read_text() if out.exists() else ""
            answers.append((code, re.sub(r" in \S+s$", "", stdout, flags=re.M), stderr,
                            re.sub(r"elapsed_s=\S+", "", text)))
        return answers

    def test_shared_parser_answers_as_a_fresh_one(self, example2_path, tmp_path, capsys,
                                                  monkeypatch):
        shared = self._answers(capsys, example2_path, tmp_path / "shared.csv")
        monkeypatch.setattr(hammcert.cli, "build_parser", build_parser.__wrapped__)
        fresh = self._answers(capsys, example2_path, tmp_path / "fresh.csv")
        assert [answer[0] for answer in shared] == [2, 0, 0]
        assert "unrecognized arguments: --wit" in shared[0][2]
        assert "# found=true" in shared[2][3].splitlines()
        assert shared == fresh


def _rows_oracle(record, header, rows):
    """The row-by-row table writer that _table replaced."""
    lines = ["# " + line for line in format_record(record).splitlines()] + [header]
    for row in rows:
        lines.append(",".join("" if v is None else repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


# Where repr switches between positional and exponent notation: below 1e-4
# and from 1e16 up; and the smallest subnormal.
REPR_EDGES = [-0.0, 0.0, 5e-324, 1e-5, 9.999999999999999e-05, 1e-4, 1e15,
              9999999999999998.0, 1e16, -1e16, np.inf, -np.inf, np.nan]


class TestTableColumns:
    @given(data=st.data(), k=st.integers(0, 3), m=st.integers(0, 12))
    @settings(max_examples=80, deadline=None)
    def test_float_columns_match_the_row_writer(self, data, k, m):
        floats = st.one_of(st.floats(width=64), st.sampled_from(REPR_EDGES))
        columns = [np.array(data.draw(st.lists(floats, min_size=m, max_size=m)), dtype=float)
                   for _ in range(k)]
        record = {"command": "solve", "found": True}
        assert _table(record, "t,u,du", columns) == _rows_oracle(record, "t,u,du", zip(*columns))

    def test_repr_edges_match_the_row_writer(self):
        columns = [np.array(REPR_EDGES) * sign for sign in (1.0, -1.0)]
        text = _table({"command": "solve"}, "u,du", columns)
        assert text == _rows_oracle({"command": "solve"}, "u,du", zip(*columns))
        assert text.splitlines()[2:] == [
            "-0.0,0.0", "0.0,-0.0", "5e-324,-5e-324", "1e-05,-1e-05",
            "9.999999999999999e-05,-9.999999999999999e-05", "0.0001,-0.0001",
            "1000000000000000.0,-1000000000000000.0", "9999999999999998.0,-9999999999999998.0",
            "1e+16,-1e+16", "-1e+16,1e+16", "inf,-inf", "-inf,inf", "nan,nan"]

    def test_mixed_columns_match_the_row_writer(self):
        columns = [np.array([0.5, -0.0]), [1e-5, None], ["existence", "both-fail"],
                   (np.float64(1e16), 3)]
        record = {"command": "sweep"}
        assert _table(record, "a,b,c,d", columns) == _rows_oracle(record, "a,b,c,d", zip(*columns))
        assert _table(record, "a,b,c,d", columns).splitlines()[-2:] == [
            "0.5,1e-05,existence,1e+16", "-0.0,,both-fail,3"]

    def test_sweep_without_witness_leaves_nonexistence_lhs_empty(self, example2_path, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--problem", example2_path, "--lambda", "0:1:2", "--eta1", "0:1:2",
                     "--eta2", "0:1:2", "--r", "0.05", "--R", "1", "--out", str(out)]) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 8
        assert all(row["nonexistence_lhs"] == "" for row in rows)
        assert rows[0]["lambda"] == "0.0" and rows[-1]["eta2"] == "1.0"
        assert {row["classification"] for row in rows} <= {"existence", "both-fail"}
