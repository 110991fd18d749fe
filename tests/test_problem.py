import math
import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest

import hammcert.problem
from hammcert.bounds import LinearGrowthWitness
from hammcert.errors import EvaluationError, ParameterError, ProblemFileError
from hammcert.grid import (CONE_TOL, Grid, GridFunction, cone_defect,
                           consistency_defect, in_cone, random_cone_function)
from hammcert.certificate import check_existence
from hammcert.expr import eval_coefficient, eval_functional, eval_nonlinearity, parse
from hammcert.kernel import FocalKernel, Kernel, kernel_from_exprs
from hammcert.problem import (ProblemSpec, apply_T, load_problem, loads_problem,
                              make_spec, validate_spec)

from grid_checks import consistency_tol

DOC = pathlib.Path(__file__).resolve().parents[1] / "docs" / "problem-format.md"

ZERO_PROBLEM = """
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


class TestLoading:
    def test_example1_precomputed_fields(self, example1):
        assert example1.gamma1_at_1 == 1.0
        assert example1.gamma2_at_1 == 1.0
        assert example1.dgamma1_sup == 0.0
        assert example1.dgamma2_sup == 1.0
        assert example1.lam == pytest.approx(0.1)
        assert example1.eta1 == pytest.approx(1 / 11)
        assert example1.eta2 == pytest.approx(1 / 12)
        assert example1.grid.n == 256
        assert example1.warnings == ()
        # every slot declared: resolving each needs no sampler
        b = example1.bounds
        assert b is not None
        assert {e.rigor for e in (b.f_upper(1.0), b.f_lower(1.0), b.h_upper(1, 1.0),
                                  b.h_upper(2, 1.0))} == {"certified"}

    def test_example2_witness(self, example2):
        assert example2.witness is not None
        assert (example2.witness.tau, example2.witness.xi1, example2.witness.xi2) == (3.0, 1.0, 1.0)

    def test_all_zero_parameters_valid(self):
        spec = loads_problem(ZERO_PROBLEM)
        assert spec.lam == spec.eta1 == spec.eta2 == 0.0

    def test_negative_lambda_rejected(self):
        with pytest.raises(ParameterError):
            loads_problem(ZERO_PROBLEM.replace("lambda = 0", "lambda = -1"))

    def test_missing_section(self):
        text = ZERO_PROBLEM.replace("[parameters]", "[notparameters]")
        with pytest.raises(ProblemFileError, match="parameters"):
            loads_problem(text)

    def test_missing_key(self):
        text = ZERO_PROBLEM.replace("h2 = DU(0)", "")
        with pytest.raises(ProblemFileError, match="h2"):
            loads_problem(text)

    def test_bad_expression_names_key(self):
        text = ZERO_PROBLEM.replace("f = u", "f = u +")
        with pytest.raises(ProblemFileError, match=r"^<string>: \[nonlinearity\] f = 'u \+': "):
            loads_problem(text)

    @pytest.mark.parametrize("old, new, entry", [
        ("name = focal", "k = t*\ndk = s", "[kernel] k = 't*'"),
        ("name = focal", "k = t*s\ndk = s\npsi = t", "[kernel] psi = 't'"),
        ("gamma2 = t", "gamma2 = exp(", "[gamma] gamma2 = 'exp('"),
        ("h2 = DU(0)", "h2 = DU(s)", "[functionals] h2 = 'DU(s)'"),
        ("f = u", "f = exp(", "[nonlinearity] f = 'exp('"),
        ("eta1 = 0", "eta1 = t", "[parameters] eta1 = 't'"),
        ("eta2 = 0", "eta2 = 0\n[bounds]\nf_upper = exp(2*rho", "[bounds] f_upper = 'exp(2*rho'"),
        ("eta2 = 0", "eta2 = 0\n[bounds]\ntau = 1\nxi1 = 1/\nxi2 = 1", "[bounds] xi1 = '1/'"),
    ])
    def test_expression_error_names_its_entry(self, old, new, entry):
        with pytest.raises(ProblemFileError, match=r"^<string>: " + re.escape(entry) + ": "):
            loads_problem(ZERO_PROBLEM.replace(old, new))

    @pytest.mark.parametrize("kernel", ["focal", "expressions"])
    def test_documented_examples_load_with_inline_comments(self, kernel):
        # The indented example lines under each [section] heading of the
        # format doc, inline comments included, make one problem file.
        doc = DOC.read_text(encoding="utf-8")
        lines = []
        for line in doc[doc.index("## Sections"):doc.index("## Expression language")].splitlines():
            heading = re.match(r"### `(\[\w+\])`", line)
            if heading:
                lines.append(heading.group(1))
            elif line.startswith("    ") and not (kernel == "expressions" and "name =" in line):
                lines.append(line.strip())
        assert any("#" in line for line in lines)
        spec = loads_problem("\n".join(lines))
        assert type(spec.kernel) is (FocalKernel if kernel == "focal" else Kernel)
        assert spec.warnings == ()
        assert spec.bounds.f_lower(1.0).value == 1.0
        assert spec.witness == LinearGrowthWitness(tau=3.0, xi1=1.0, xi2=1.0)

    def test_unknown_builtin_kernel(self):
        text = ZERO_PROBLEM.replace("name = focal", "name = dirichlet")
        with pytest.raises(ProblemFileError, match="dirichlet"):
            loads_problem(text)

    def test_expression_kernel(self):
        text = ZERO_PROBLEM.replace("name = focal", "k = t*s\ndk = s")
        spec = loads_problem(text)
        assert type(spec.kernel) is Kernel

    def test_expression_kernel_with_dominators(self):
        text = ZERO_PROBLEM.replace("name = focal", "k = t*s\ndk = s\nphi = s\npsi = 1")
        spec = loads_problem(text)
        assert spec.warnings == ()
        assert any(r.name == "kernel k <= Phi" for r in validate_spec(spec))

    def test_derivative_mismatch_is_error(self):
        text = ZERO_PROBLEM.replace("dgamma2 = 1", "dgamma2 = 2")
        with pytest.raises(ProblemFileError, match="gamma2"):
            loads_problem(text)

    def test_negative_gamma_is_warning(self):
        text = ZERO_PROBLEM.replace("gamma2 = t", "gamma2 = -t").replace("dgamma2 = 1", "dgamma2 = -1")
        spec = loads_problem(text)
        assert any("gamma2" in w.name for w in spec.warnings)

    def test_negative_f_is_warning(self):
        text = ZERO_PROBLEM.replace("f = u", "f = u - 10")
        spec = loads_problem(text)
        assert any(w.name == "f >= 0" for w in spec.warnings)

    @pytest.mark.parametrize("edits, name, detail", [
        ((("gamma2 = t", "gamma2 = (t-0.3)^2 - 0.01"), ("dgamma2 = 1", "dgamma2 = 2*(t-0.3)")),
         "gamma2 >= 0", "min -0.01 at t=0.3008"),
        ((("name = focal", "k = (t-0.4)^2 + (s-0.7)^2 - 0.01\ndk = 2*(t-0.4)"),),
         "kernel k >= 0", "min -0.00999 at t=0.3968, s=0.6984"),
        ((("f = u", "f = (t-0.3)^2 + (u-0.6)^2 + (v-0.2)^2 - 0.01"),),
         "f >= 0", "min -0.00995 at t=0.3016, u=0.6032, v=0.2063"),
    ])
    def test_sign_warning_names_the_lattice_minimum(self, edits, name, detail):
        text = ZERO_PROBLEM
        for old, new in edits:
            text = text.replace(old, new)
        spec = loads_problem(text)
        assert [w.detail for w in spec.warnings if w.name == name] == [detail]

    def test_sign_pass_reports_the_minimum(self):
        spec = loads_problem(ZERO_PROBLEM.replace("name = focal", "k = t*s\ndk = s"))
        details = {r.name: r.detail for r in validate_spec(spec, m=8)}
        assert details["kernel k >= 0"] == "min 0 on 8x8 lattice"
        assert details["gamma2' >= 0"] == "min 1 on grid nodes"
        assert details["f >= 0"] == "min 0 on 8^3 lattice over [0,1]^3"

    def test_load_keeps_the_validation_samples(self, example2_path, monkeypatch):
        # Validation samples gamma_i and gamma_i' on the nodes once; the
        # loaded spec reuses those samples for its constants.
        n = 256
        calls = []

        def counting(expr, t):
            if np.shape(t) == (n + 1,):
                calls.append(expr)
            return eval_coefficient(expr, t)

        monkeypatch.setattr(hammcert.problem, "eval_coefficient", counting)
        spec = load_problem(example2_path, n=n)
        assert spec.gamma1_at_1 == 1.0
        assert len(calls) == 4

    def test_partial_witness_rejected(self):
        text = ZERO_PROBLEM + "\n[bounds]\ntau = 1\n"
        with pytest.raises(ProblemFileError, match="tau"):
            loads_problem(text)

    def test_with_params_shares_kernel(self, example1):
        other = example1.with_params(0.2, 0.0, 0.0)
        assert other.kernel is example1.kernel
        assert other.lam == 0.2
        assert example1.lam == pytest.approx(0.1)


class TestValidateSpec:
    def test_example1_all_pass(self, example1):
        results = validate_spec(example1)
        assert all(r.ok for r in results)
        names = [r.name for r in results]
        assert "f >= 0" in names and "declared gamma' match" in names

    @pytest.mark.parametrize("m", [1, 0])
    def test_lattice_needs_two_points(self, example1, m):
        with pytest.raises(ParameterError, match="at least 2"):
            validate_spec(example1, m=m)


class TestApplyT:
    def test_zero_map_on_zero_problem(self):
        spec = loads_problem(ZERO_PROBLEM)
        w = apply_T(spec, GridFunction.zero(spec.grid))
        assert np.all(w.values == 0.0) and np.all(w.dvalues == 0.0)

    def test_example1_at_zero(self, example1):
        # f(t,0,0) = 1, h1[0] = h2[0] = 0, so Tu(1) = lam*K and (Tu)'(0) = lam*K*
        w = apply_T(example1, GridFunction.zero(example1.grid))
        assert w.values[-1] == pytest.approx(0.05, abs=1e-12)
        assert w.dvalues[0] == pytest.approx(0.1, abs=1e-12)
        assert w.values[0] == 0.0

    def test_cone_preserved_on_ramp(self, example1):
        w = apply_T(example1, GridFunction.ramp(example1.grid, 1.0))
        assert in_cone(w)

    @pytest.mark.parametrize("seed", range(10))
    def test_cone_and_consistency_preserved_random(self, example1, seed):
        rng = np.random.default_rng(seed)
        u = random_cone_function(example1.grid, rng, norm=float(rng.uniform(0.05, 1.0)))
        w = apply_T(example1, u)
        assert cone_defect(w) <= CONE_TOL
        assert consistency_defect(w) <= consistency_tol(example1.grid.n)

    def test_monotone_in_lambda(self, example1):
        u = GridFunction.ramp(example1.grid, 0.5)
        w_small = apply_T(example1.with_params(0.05, example1.eta1, example1.eta2), u)
        w_large = apply_T(example1.with_params(0.15, example1.eta1, example1.eta2), u)
        assert np.all(w_large.values >= w_small.values - 1e-15)
        assert np.all(w_large.dvalues >= w_small.dvalues - 1e-15)

    def test_rejects_non_cone_input(self, example1):
        g = example1.grid
        bad = GridFunction(g, np.full(g.n + 1, -1.0), np.zeros(g.n + 1))
        with pytest.raises(ParameterError, match="cone"):
            apply_T(example1, bad)

    def test_clamps_tiny_negatives(self, example1):
        g = example1.grid
        u = GridFunction(g, np.full(g.n + 1, -CONE_TOL / 2), np.zeros(g.n + 1))
        w = apply_T(example1, u)  # f must not see a negative argument
        assert in_cone(w)


def _dense_T(spec, u):
    """apply_T through the kernel's dense trapezoid weight matrices."""
    g = u.grid
    t = g.nodes
    F = np.broadcast_to(eval_nonlinearity(spec.f, t, np.maximum(u.values, 0.0),
                                          np.maximum(u.dvalues, 0.0)), t.shape)
    h1v, h2v = eval_functional(spec.h1, u), eval_functional(spec.h2, u)
    g1, g2, dg1, dg2 = (np.broadcast_to(eval_coefficient(e, t), t.shape)
                        for e in (spec.gamma1, spec.gamma2, spec.dgamma1, spec.dgamma2))
    values = spec.eta1 * g1 * h1v + spec.eta2 * g2 * h2v \
        + spec.lam * (spec.kernel.value_weight_matrix(g) @ F)
    dvalues = spec.eta1 * dg1 * h1v + spec.eta2 * dg2 * h2v \
        + spec.lam * (spec.kernel.deriv_weight_matrix(g) @ F)
    return values, dvalues


class TestApplyTReference:
    @pytest.mark.parametrize("name", ["example1", "example2"])
    @pytest.mark.parametrize("seed", range(3))
    def test_focal_matches_dense_reference(self, name, seed, request):
        spec = request.getfixturevalue(name)
        rng = np.random.default_rng(seed)
        u = random_cone_function(spec.grid, rng, norm=float(rng.uniform(0.05, 1.0)))
        w = apply_T(spec, u)
        values, dvalues = _dense_T(spec, u)
        assert np.max(np.abs(w.values - values)) <= 1e-14
        assert np.max(np.abs(w.dvalues - dvalues)) <= 1e-14

    def test_custom_kernel_is_bit_identical_to_dense(self, example1_path):
        # min(s,t) with its t-derivative, a step in s at t that is exact on nodes
        spec = load_problem(example1_path, n=64)
        custom = replace(spec, kernel=kernel_from_exprs("min(s,t)", "min(1, max(0, (s - t)*1e9))"))
        u = random_cone_function(spec.grid, np.random.default_rng(4), norm=0.5)
        w = apply_T(custom, u)
        values, dvalues = _dense_T(custom, u)
        assert np.array_equal(w.values, values)
        assert np.array_equal(w.dvalues, dvalues)

    def test_coefficient_samples_follow_the_grid(self, example1):
        coarse = GridFunction.ramp(Grid(32), 0.5)
        fine = GridFunction.ramp(example1.grid, 0.5)
        for u in (coarse, fine, coarse):
            w = apply_T(example1, u)
            values, dvalues = _dense_T(example1, u)
            assert np.max(np.abs(w.values - values)) <= 1e-14
            assert np.max(np.abs(w.dvalues - dvalues)) <= 1e-14

    def test_gamma_error_surfaces_on_every_call(self):
        # 0*sqrt(t - 1/1000) is nan at t = 0 only; load-time probes miss it
        spec = make_spec(FocalKernel(), "t + 0*sqrt(t - 1/1000)", "t", "1", "1",
                         "U(1)", "DU(0)", "u", 0.1, 0.5, 0.0, n=32, validate=False)
        u = GridFunction.ramp(spec.grid, 0.5)
        for _ in range(2):
            with pytest.raises(EvaluationError):
                apply_T(spec, u)


class TestCoefficientConstants:
    """gamma_i(1) and ||gamma_i'|| come from the spec's own coefficients."""

    def test_replaced_coefficients_certify_like_a_fresh_load(self, example1, example1_path):
        copy = replace(example1, gamma1=parse("30", "coefficient"),
                       dgamma1=parse("0", "coefficient"))
        text = open(example1_path, encoding="utf-8").read()
        fresh = loads_problem(text.replace("gamma1 = 1\n", "gamma1 = 30\n"))
        cert = check_existence(copy, copy.bounds, 0.05, 1.0)
        assert cert == check_existence(fresh, fresh.bounds, 0.05, 1.0)
        assert cert.verdict == "fail"
        assert cert.lhs_value_branch == 5.990664926158654

    def test_regridded_copy_reads_the_new_grid(self):
        text = (ZERO_PROBLEM.replace("gamma2 = t", "gamma2 = t - cos(7*t)/7")
                .replace("dgamma2 = 1", "dgamma2 = 1 + sin(7*t)"))
        fine = loads_problem(text, n=256)
        coarse = loads_problem(text, n=4)
        assert fine.dgamma2_sup == pytest.approx(1.99993, abs=1e-5)
        assert replace(fine, grid=Grid(4)).dgamma2_sup == coarse.dgamma2_sup
        assert coarse.dgamma2_sup == pytest.approx(1.98399, abs=1e-5)

    def test_direct_construction(self):
        spec = ProblemSpec(
            kernel=FocalKernel(), gamma1=parse("1", "coefficient"),
            gamma2=parse("t", "coefficient"), dgamma1=parse("0", "coefficient"),
            dgamma2=parse("1", "coefficient"), h1=parse("U(1)", "functional"),
            h2=parse("DU(0)", "functional"), f=parse("u", "nonlinearity"),
            lam=0.1, eta1=0.0, eta2=0.0, grid=Grid(8))
        assert (spec.gamma1_at_1, spec.gamma2_at_1) == (1.0, 1.0)
        assert (spec.dgamma1_sup, spec.dgamma2_sup) == (0.0, 1.0)

    def test_gamma_error_surfaces_on_every_read(self):
        # nan at t = 0 only: the spec loads, each read of a constant fails
        spec = make_spec(FocalKernel(), "t + 0*sqrt(t - 1/1000)", "t", "1", "1",
                         "U(1)", "DU(0)", "u", 0.1, 0.5, 0.0, n=32, validate=False)
        for _ in range(2):
            with pytest.raises(EvaluationError):
                spec.gamma1_at_1


class TestMakeSpec:
    def test_direct_assembly(self):
        spec = make_spec(FocalKernel(), "1", "t", "0", "1", "U(1)", "DU(0)",
                         "u + v", 0.1, 0.0, 0.0, n=32)
        assert spec.grid == Grid(32)
        assert spec.gamma2_at_1 == 1.0

    def test_negative_eta(self):
        with pytest.raises(ParameterError):
            make_spec(FocalKernel(), "1", "t", "0", "1", "U(1)", "DU(0)",
                      "u", 0.0, -0.5, 0.0)
