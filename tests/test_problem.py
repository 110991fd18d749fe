import math
import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest

import hammcert.problem
from hammcert.bounds import CHECK_KNOTS, BoundSet, LinearGrowthWitness
from hammcert.errors import EvaluationError, ParameterError, ProblemFileError, ShapeError
from hammcert.grid import (CONE_TOL, Grid, GridFunction, cone_defect,
                           consistency_defect, in_cone, sphere_family)
from hammcert.certificate import check_existence
from hammcert.expr import Num, eval_coefficient, eval_functional, eval_nonlinearity, parse
from hammcert.kernel import FocalKernel, Kernel
from hammcert.problem import ProblemSpec, apply_T, load_problem, loads_problem, validate_spec

from grid_checks import (assert_slabs_stack_to_the_family, consistency_tol, family_rows,
                         recorded_slabs)
from problem_texts import ZERO_PROBLEM, edited

def _constant(spec, name):
    """The value of the certificate constant ``name`` that BoundSet resolves."""
    return next(e.value for e in BoundSet(spec).constants() if e.name == name)


DOC = pathlib.Path(__file__).resolve().parents[1] / "docs" / "problem-format.md"
SECTIONS = "kernel, gamma, functionals, nonlinearity, parameters, bounds"

class TestLoading:
    def test_example1_precomputed_fields(self, example1):
        assert _constant(example1, "gamma1(1)") == 1.0
        assert _constant(example1, "gamma2(1)") == 1.0
        assert _constant(example1, "sup|gamma1'|") == 0.0
        assert _constant(example1, "sup|gamma2'|") == 1.0
        assert example1.lam == pytest.approx(0.1)
        assert example1.eta1 == pytest.approx(1 / 11)
        assert example1.eta2 == pytest.approx(1 / 12)
        assert example1.grid.n == 256
        assert example1.warnings == ()
        # every slot declared: each resolves certified, with nothing sampled
        assert set(example1.bounds) == {"f_upper", "f_lower", "h1", "h2"}
        b = BoundSet(example1)
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

    # A parse error quotes the entry as written, an evaluation error as parsed.
    @pytest.mark.parametrize("old, new, entry, message", [
        ("name = focal", "k = t*", "[kernel] k = 't*'",
         "<string>: [kernel] k = 't*': expected a value, found 'end of input' (at position 2)"),
        ("name = focal", "k = s^t", "dk from [kernel] k = 's^t'",
         "<string>: dk from [kernel] k = 's^t': cannot differentiate 's^t': "
         "an exponent reads t (no log)"),
        ("gamma2 = t", "gamma2 = exp(", "[gamma] gamma2 = 'exp('",
         "<string>: [gamma] gamma2 = 'exp(': expected a value, found 'end of input' "
         "(at position 4)"),
        ("h2 = DU(0)", "h2 = DU(s)", "[functionals] h2 = 'DU(s)'",
         "<string>: [functionals] h2 = 'DU(s)': variable 's' is only allowed inside INT(...) "
         "(at position 3)"),
        ("f = u", "f = exp(", "[nonlinearity] f = 'exp('",
         "<string>: [nonlinearity] f = 'exp(': expected a value, found 'end of input' "
         "(at position 4)"),
        # non-finite where the load's checks sample them
        ("gamma2 = t", "gamma2 = 1/t", "[gamma] gamma2 = '1.0/t'",
         "<string>: [gamma] gamma2 = '1.0/t': non-finite at t=0"),
        ("f = u", "f = 1/u", "[nonlinearity] f = '1.0/u'",
         "<string>: [nonlinearity] f = '1.0/u': non-finite at t=0, u=0, v=0"),
        ("eta1 = 0", "eta1 = t", "[parameters] eta1 = 't'",
         "<string>: [parameters] eta1 = 't': variable 't' not allowed in a constant expression "
         "(at position 0)"),
        ("eta2 = 0", "eta2 = 0\n[bounds]\nf_upper = exp(2*rho", "[bounds] f_upper = 'exp(2*rho'",
         "<string>: [bounds] f_upper = 'exp(2*rho': expected ')', found 'end of input' "
         "(at position 9)"),
        ("eta2 = 0", "eta2 = 0\n[bounds]\ntau = 1\nxi1 = 1/\nxi2 = 1", "[bounds] xi1 = '1/'",
         "<string>: [bounds] xi1 = '1/': expected a value, found 'end of input' (at position 2)"),
        # a derived entry, a point atom, constants, and a declared bound,
        # which is first evaluated when a certificate reads it
        ("name = focal", "k = 2 ^ t", "dk from [kernel] k = '2.0^t'",
         "<string>: dk from [kernel] k = '2.0^t': cannot differentiate '2.0^t': "
         "an exponent reads t (no log)"),
        ("gamma1 = 1", "gamma1 = sqrt(t)", "gamma1' from [gamma] gamma1 = 'sqrt(t)'",
         "<string>: gamma1' from [gamma] gamma1 = 'sqrt(t)': "
         "expression '0.5/sqrt(t)' is non-finite at t=0"),
        ("h2 = DU(0)", "h2 = U(2)", "[functionals] h2 = 'U(2.0)'",
         "<string>: [functionals] h2 = 'U(2.0)': evaluation point 2.0 outside [0,1]"),
        ("eta1 = 0", "eta1 = 0/0", "[parameters] eta1 = '0.0/0.0'",
         "<string>: [parameters] eta1 = '0.0/0.0': non-finite"),
        ("eta2 = 0", "eta2 = 0\n[bounds]\ntau = 0/0\nxi1 = 1\nxi2 = 1", "[bounds] tau = '0.0/0.0'",
         "<string>: [bounds] tau = '0.0/0.0': non-finite"),
        ("eta2 = 0", "eta2 = 0\n[bounds]\nf_upper = 1/(rho - 1)",
         "[bounds] f_upper = '1.0/(rho - 1.0)'",
         "declared bound f_upper(1.0): [bounds] f_upper = '1.0/(rho - 1.0)': non-finite at rho=1"),
    ])
    def test_expression_error_names_its_entry(self, old, new, entry, message):
        with pytest.raises((ProblemFileError, EvaluationError)) as exc:
            BoundSet(loads_problem(ZERO_PROBLEM.replace(old, new))).f_upper(1.0)
        assert f"{entry}: " in message
        assert str(exc.value) == message

    @pytest.mark.parametrize("kernel", ["focal", "expressions"])
    def test_documented_examples_load_with_inline_comments(self, kernel):
        # The indented example lines under each [section] heading of the
        # format doc, inline comments included, make one problem file.
        doc = DOC.read_text(encoding="utf-8")
        lines = []
        other = "name" if kernel == "expressions" else "k"  # the kernel key left out
        for line in doc[doc.index("## Sections"):doc.index("## Expression language")].splitlines():
            heading = re.match(r"### `(\[\w+\])`", line)
            if heading:
                lines.append(heading.group(1))
            elif line.startswith("    ") and line.split("=")[0].strip() != other:
                lines.append(line.strip())
        assert any("#" in line for line in lines)
        spec = loads_problem("\n".join(lines))
        assert type(spec.kernel) is (FocalKernel if kernel == "focal" else Kernel)
        assert spec.warnings == ()
        assert BoundSet(spec).f_lower(1.0).value == 1.0
        assert spec.witness == LinearGrowthWitness(tau=3.0, xi1=1.0, xi2=1.0)

    @pytest.mark.parametrize("old, new, message", [
        ("gamma2 = t", "gamma2 = t\ndgamma1 = 0",
         "unknown key 'dgamma1' in [gamma] (allowed: gamma1, gamma2)"),
        ("gamma2 = t", "gamma2 = t\nfoo = 3",
         "unknown key 'foo' in [gamma] (allowed: gamma1, gamma2)"),
        ("eta2 = 0", "eta2 = 0\n[bounds]\nf_uper = 1",
         "unknown key 'f_uper' in [bounds] (allowed: f_upper, f_lower, h1, h2, tau, xi1, xi2)"),
        ("name = focal", "name = focal\nphy = s",
         "unknown key 'phy' in [kernel] (allowed: name, k)"),
        # dk is derived from k: a leftover dk used to be read unchecked (K* = 2.5
        # for the true 0.5 here).
        ("name = focal", "k = t*s\ndk = 5*s", "unknown key 'dk' in [kernel] (allowed: name, k)"),
        ("name = focal", "name = focal\nk = t*s",
         "[kernel] needs exactly one of name and k, got both"),
        ("[kernel]", "[kernal]\n[kernel]",
         f"unknown section [kernal] (allowed: {SECTIONS})"),
        ("[kernel]", "[DEFAULT]\nf = u\n[kernel]",
         f"unknown section [DEFAULT] (allowed: {SECTIONS})"),
        ("[kernel]\nname = focal\n", "", "missing [kernel] section"),
    ])
    def test_unknown_section_or_key_is_error(self, old, new, message):
        with pytest.raises(ProblemFileError) as exc:
            loads_problem(ZERO_PROBLEM.replace(old, new))
        assert str(exc.value) == f"<string>: {message}"

    def test_exponent_reading_t_fails_to_load(self):
        with pytest.raises(ProblemFileError) as exc:
            loads_problem(edited(ZERO_PROBLEM, ("gamma2 = t", "gamma2 = 2^t")))
        assert str(exc.value) == ("<string>: gamma2' from [gamma] gamma2 = '2.0^t': cannot "
                                  "differentiate '2.0^t': an exponent reads t (no log)")

    def test_non_finite_constant_names_its_expression_once(self):
        # The entry is the expression that failed; a derived one (below)
        # still prints its own source.
        with pytest.raises(ProblemFileError) as exc:
            loads_problem(ZERO_PROBLEM.replace("lambda = 0", "lambda = 0/0"))
        assert str(exc.value) == "<string>: [parameters] lambda = '0.0/0.0': non-finite"

    def test_derivative_error_names_its_entry(self):
        text = edited(ZERO_PROBLEM, ("gamma2 = t", "gamma2 = abs(t - 1/2)"))
        with pytest.raises(ProblemFileError) as exc:
            loads_problem(text, n=256)  # t = 1/2 is a node: the kink of abs
        assert str(exc.value) == (
            "<string>: gamma2' from [gamma] gamma2 = 'abs(t - 1.0/2.0)': "
            "expression '(t - 1.0/2.0)/abs(t - 1.0/2.0)' is non-finite at t=0.5")
        assert _constant(loads_problem(text, n=255), "sup|gamma2'|") == 1.0

    def test_unknown_builtin_kernel(self):
        text = ZERO_PROBLEM.replace("name = focal", "name = dirichlet")
        with pytest.raises(ProblemFileError, match="dirichlet"):
            loads_problem(text)

    def test_expression_kernel(self):
        text = ZERO_PROBLEM.replace("name = focal", "k = t*s")
        spec = loads_problem(text)
        assert type(spec.kernel) is Kernel

    def test_kernel_derivative_error_names_its_entry(self):
        # A kink of min on the diagonal s = t, which holds at every node:
        # the derived dk = max((s - t)/abs(s - t), 0) is nan there.
        text = edited(ZERO_PROBLEM, ("name = focal", "k = 1/10 + min(s,t)"))
        with pytest.raises(ProblemFileError) as exc:
            loads_problem(text)
        assert str(exc.value) == (
            "<string>: dk from [kernel] k = '1.0/10.0 + min(s, t)': "
            "expression 'max((s - t)/abs(s - t), 0.0)' is non-finite at t=0, s=0")

    def test_negative_gamma_is_warning(self):
        text = ZERO_PROBLEM.replace("gamma2 = t", "gamma2 = -t")
        spec = loads_problem(text)
        assert any("gamma2" in w.name for w in spec.warnings)

    def test_negative_f_is_warning(self):
        text = ZERO_PROBLEM.replace("f = u", "f = u - 10")
        spec = loads_problem(text)
        assert any(w.name == "f >= 0" for w in spec.warnings)

    @pytest.mark.parametrize("edits, name, detail", [
        ((("gamma2 = t", "gamma2 = (t-0.3)^2 - 0.01"),),
         "gamma2 >= 0", "min -0.01 at t=0.3008"),
        ((("name = focal", "k = (t-0.4)^2 + (s-0.7)^2 - 0.01"),),
         "kernel k >= 0", "min -0.00999 at t=0.3968, s=0.6984"),
        ((("f = u", "f = (t-0.3)^2 + (u-0.6)^2 + (v-0.2)^2 - 0.01"),),
         "f >= 0", "min -0.00995 at t=0.3016, u=0.6032, v=0.2063"),
        # the functionals' minimum over their cone samples names entry and sample
        ((("h1 = U(1)", "h1 = U(1) - 1/2"),),
         "functionals >= 0 and bounded", "h1[the zero function] = -0.5 < 0"),
        ((("h2 = DU(0)", "h2 = DU(0) - U(1)"),),  # the first of the minima -rho, at rho = 2
         "functionals >= 0 and bounded", "h2[the constant 2] = -2 < 0"),
    ])
    def test_sign_warning_names_the_lattice_minimum(self, edits, name, detail):
        text = ZERO_PROBLEM
        for old, new in edits:
            text = text.replace(old, new)
        spec = loads_problem(text)
        assert [w.detail for w in spec.warnings if w.name == name] == [detail]

    def test_sign_pass_reports_the_minimum(self):
        spec = loads_problem(ZERO_PROBLEM.replace("name = focal", "k = t*s"))
        details = {r.name: r.detail for r in validate_spec(spec)}
        assert details["kernel k >= 0"] == "min 0 on 64x64 lattice"
        assert details["gamma2' >= 0"] == "min 1 on grid nodes"
        assert details["f >= 0"] == "min 0 on 64^3 lattice over [0,1]^3"

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
        assert _constant(spec, "gamma1(1)") == 1.0
        assert len(calls) == 4

    @pytest.mark.parametrize("edits, n, error, message", [
        ((("lambda = 0", "lambda = -1"), ("f = u", "f = u +")), 256,
         ParameterError, "parameter lambda must be non-negative, got -1.0"),
        ((("lambda = 0", "lambda = 1/"), ("name = focal", "k = t*")), 256,
         ProblemFileError, "[kernel] k = 't*': expected a value, found 'end of input' (at position 2)"),
        ((("eta1 = 0", "eta1 = -1"), ("eta2 = 0", "eta2 = 0\n[bounds]\nh2 = rho^")), 256,
         ProblemFileError, "[bounds] h2 = 'rho^': expected a value, found 'end of input' (at position 4)"),
        ((("f = u", "f = 1/u"),), 1,
         ParameterError, "grid needs at least 2 subintervals, got n=1"),
        ((("eta2 = 0\n", ""), ("name = focal", "k = t*")), 256,
         ProblemFileError, "missing key 'eta2' in [parameters]"),
        ((("lambda = 0", "lambda = -1"), ("eta2 = 0", "eta2 = 0\n[bounds]\ntau = -1\nxi1 = 1\nxi2 = 1")),
         256, ProblemFileError, "[bounds] witness: witness tau must be non-negative, got -1.0"),
        ((("gamma2 = t", "gamma2 = t\nfoo = 1"), ("eta2 = 0\n", "")), 256,
         ProblemFileError, "missing key 'eta2' in [parameters]"),
        ((("gamma2 = t", "gamma2 = t\nfoo = 1"), ("name = focal", "k = t*")), 256,
         ProblemFileError, "unknown key 'foo' in [gamma] (allowed: gamma1, gamma2)"),
    ])
    def test_error_precedence(self, edits, n, error, message):
        # A file with several faults reports the first in load order
        # (docs/problem-format.md).
        text = ZERO_PROBLEM
        for old, new in edits:
            assert text.count(old) == 1
            text = text.replace(old, new)
        with pytest.raises(error) as exc:
            loads_problem(text, n=n)
        assert str(exc.value) == f"<string>: {message}"

    @pytest.mark.parametrize("bounds", ["", "[bounds]\ntau = 1\nxi1 = 1\nxi2 = 1\n"])
    def test_undeclared_bounds_load_empty(self, bounds):
        spec = loads_problem(ZERO_PROBLEM + bounds)
        assert spec.bounds == {}
        b = BoundSet(spec)
        assert {e.rigor for e in (b.f_upper(1.0), b.f_lower(0.05), b.h_upper(1, 1.0),
                                  b.h_upper(2, 1.0))} == {"heuristic"}

    def test_partial_witness_rejected(self):
        text = ZERO_PROBLEM + "\n[bounds]\ntau = 1\n"
        with pytest.raises(ProblemFileError, match="tau"):
            loads_problem(text)

    def test_parameter_copy_shares_kernel(self, example1):
        other = replace(example1, lam=0.2, eta1=0.0, eta2=0.0)
        assert other.kernel is example1.kernel
        assert other.lam == 0.2
        assert example1.lam == pytest.approx(0.1)


class TestValidateSpec:
    def test_example1_all_pass(self, example1):
        results = validate_spec(example1)
        assert all(r.ok for r in results)
        names = [r.name for r in results]
        assert names == ["kernel k >= 0", "kernel dk >= 0", "gamma1 >= 0", "gamma2 >= 0",
                         "gamma1' >= 0", "gamma2' >= 0", "f >= 0", "functionals >= 0 and bounded"]

    def test_load_keeps_the_checks_at_its_lattice(self):
        # f dips below zero only near u = 1/14, where the 64^3 lattice has a point
        text = edited(ZERO_PROBLEM, ("gamma2 = t", "gamma2 = -t"),
                      ("f = u", "f = (u - 1/14)^2 - 1/10000"))
        spec = loads_problem(text)
        assert list(spec.checks) == validate_spec(spec)
        assert spec.warnings == tuple(r for r in spec.checks if not r.ok)
        assert [r.name for r in spec.warnings] == ["gamma2 >= 0", "gamma2' >= 0", "f >= 0"]

    def test_copy_keeps_the_checks_as_loaded(self, example1):
        copy = replace(example1, gamma1=parse("-1", "coefficient"))
        assert copy.checks == example1.checks and copy.warnings == ()
        assert [r.name for r in validate_spec(copy) if not r.ok] == ["gamma1 >= 0"]


class TestFunctionalCheck:
    """The load's h_i check: the zero function once, then the sphere_family
    at rho = 0.5, 1 and 2, built and evaluated in slabs of at most
    LATTICE_SLAB points."""

    @pytest.mark.parametrize("n, slabs", [(256, 1), (2048, 6)])
    def test_forty_rows_in_slabs(self, n, slabs, monkeypatch):
        seen = recorded_slabs(monkeypatch)
        spec = loads_problem(ZERO_PROBLEM, n=n)
        assert [h for h, _, _ in seen] == [spec.h1, spec.h2] * slabs
        rows = seen[::2]  # the slabs h1 saw, in order
        assert sum(u.values.shape[0] for _, u, _ in rows) == 40
        # stacked, the slabs are the whole family, the zero function first
        assert_slabs_stack_to_the_family(rows, spec.grid, (0.0, 0.5, 1.0, 2.0), CHECK_KNOTS)
        whole, _ = sphere_family(spec.grid, (0.0, 0.5, 1.0, 2.0), CHECK_KNOTS)
        assert not whole.values[0].any() and whole.values[1:].min(axis=1).max() > 0

    @pytest.mark.parametrize("h1, h2, message", [
        # a domain error in a later slab wins over a non-finite value in the first
        ("1/U(0) + U(DU(0)/1.5)", "U(1)", "h1 = '1.0/U(0.0) + U(DU(0.0)/1.5)'"),
        # h1's error in a later slab wins over h2's in the first
        ("U(DU(0)/1.5)", "1/U(0)", "h1 = 'U(DU(0.0)/1.5)'"),
        # the first point atom's error wins over the second's in an earlier slab
        ("U(DU(0)/1.5) + U(U(1)/1.2)", "U(1)", "h1 = 'U(DU(0.0)/1.5) + U(U(1.0)/1.2)'"),
    ])
    def test_slabs_raise_the_error_of_the_whole_stack(self, h1, h2, message):
        # DU(0)/1.5 leaves [0,1] on the ramps of slope 2 at rho = 2, rows 28
        # on, and U(1)/1.2 on the constant 2, row 27, which ends an earlier
        # slab of 7 rows at n = 2048.
        text = edited(ZERO_PROBLEM, ("h1 = U(1)", f"h1 = {h1}"), ("h2 = DU(0)", f"h2 = {h2}"))
        with pytest.raises(ProblemFileError) as exc:
            loads_problem(text, n=2048)
        assert str(exc.value) == (f"<string>: [functionals] {message}: "
                                  "evaluation point 1.3333333333333333 outside [0,1]")


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
        u = family_rows(example1.grid, rng, [rng.uniform(0.05, 1.0)])[0]
        w = apply_T(example1, u)
        assert cone_defect(w) <= CONE_TOL
        assert consistency_defect(w) <= consistency_tol(example1.grid.n)

    def test_monotone_in_lambda(self, example1):
        u = GridFunction.ramp(example1.grid, 0.5)
        w_small = apply_T(replace(example1, lam=0.05), u)
        w_large = apply_T(replace(example1, lam=0.15), u)
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


def nan_at_zero_spec():
    """gamma1 is nan at the node t = 0 only: swapped into a loaded spec, as
    the load's own checks reject it."""
    return replace(loads_problem(ZERO_PROBLEM, n=32), lam=0.1, eta1=0.5,
                   gamma1=parse("t + 0*sqrt(t - 1/1000)", "coefficient"))


class TestApplyTReference:
    @pytest.mark.parametrize("name", ["example1", "example2"])
    @pytest.mark.parametrize("seed", range(3))
    def test_focal_matches_dense_reference(self, name, seed, request):
        spec = request.getfixturevalue(name)
        rng = np.random.default_rng(seed)
        u = family_rows(spec.grid, rng, [rng.uniform(0.05, 1.0)])[0]
        w = apply_T(spec, u)
        values, dvalues = _dense_T(spec, u)
        assert np.max(np.abs(w.values - values)) <= 1e-14
        assert np.max(np.abs(w.dvalues - dvalues)) <= 1e-14

    def test_custom_kernel_is_bit_identical_to_dense(self, example1_path):
        # min(s,t) with its t-derivative, a step in s at t that is exact on
        # nodes; an expression k cannot declare it, as its derived dk is nan there.
        spec = load_problem(example1_path, n=64)
        step = Kernel(k=lambda t, s: np.minimum(s, t),
                      dk=lambda t, s: np.minimum(1.0, np.maximum(0.0, (s - t) * 1e9)))
        custom = replace(spec, kernel=step)
        u = family_rows(spec.grid, np.random.default_rng(4), [0.5])[0]
        w = apply_T(custom, u)
        values, dvalues = _dense_T(custom, u)
        assert np.array_equal(w.values, values)
        assert np.array_equal(w.dvalues, dvalues)

    def test_coefficient_samples_follow_the_grid(self, example1):
        # The coefficients are sampled on the spec's grid only: u on any
        # other grid is rejected, not mapped with samples of the wrong size.
        with pytest.raises(ShapeError, match="grid mismatch"):
            apply_T(example1, GridFunction.ramp(Grid(32), 0.5))
        u = GridFunction.ramp(example1.grid, 0.5)
        w = apply_T(example1, u)
        values, dvalues = _dense_T(example1, u)
        assert np.max(np.abs(w.values - values)) <= 1e-14
        assert np.max(np.abs(w.dvalues - dvalues)) <= 1e-14

    def test_gamma_error_surfaces_on_every_call(self):
        spec = nan_at_zero_spec()
        u = GridFunction.ramp(spec.grid, 0.5)
        for _ in range(2):
            with pytest.raises(EvaluationError):
                apply_T(spec, u)


class TestCoefficientConstants:
    """gamma_i(1) and ||gamma_i'|| come from the spec's own coefficients."""

    def test_replaced_coefficients_certify_like_a_fresh_load(self, example1, example1_path):
        copy = replace(example1, gamma1=parse("30", "coefficient"))
        text = open(example1_path, encoding="utf-8").read()
        fresh = loads_problem(text.replace("gamma1 = 1\n", "gamma1 = 30\n"))
        cert = check_existence(copy, BoundSet(copy), 0.05, 1.0)
        assert cert == check_existence(fresh, BoundSet(fresh), 0.05, 1.0)
        assert cert.verdict == "fail"
        assert cert.lhs_value_branch == 5.990664926158654

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_shipped_derivatives_are_exact(self, name, request):
        spec = request.getfixturevalue(name)
        assert (spec.dgamma1.body, spec.dgamma2.body) == (Num(0.0), Num(1.0))

    def test_replaced_gamma_brings_its_own_derivative(self, example1, example1_path):
        copy = replace(example1, gamma2=parse("t^2", "coefficient"))
        text = open(example1_path, encoding="utf-8").read()
        fresh = loads_problem(edited(text, ("gamma2 = t\n", "gamma2 = t^2\n")))
        assert _constant(copy, "sup|gamma2'|") == _constant(fresh, "sup|gamma2'|") == 2.0
        cert = check_existence(copy, BoundSet(copy), 0.05, 1.0)
        assert cert == check_existence(fresh, BoundSet(fresh), 0.05, 1.0)
        assert (cert.verdict, cert.lhs_deriv_branch) == ("fail", 1.0722389432263983)

    def test_regridded_copy_reads_the_new_grid(self):
        text = ZERO_PROBLEM.replace("gamma2 = t", "gamma2 = t - cos(7*t)/7")
        fine = loads_problem(text, n=256)
        coarse = loads_problem(text, n=4)
        assert _constant(fine, "sup|gamma2'|") == pytest.approx(1.99993, abs=1e-5)
        assert _constant(replace(fine, grid=Grid(4)), "sup|gamma2'|") == _constant(coarse, "sup|gamma2'|")
        assert _constant(coarse, "sup|gamma2'|") == pytest.approx(1.98399, abs=1e-5)

    def test_direct_construction(self):
        spec = ProblemSpec(
            kernel=FocalKernel(), gamma1=parse("1", "coefficient"),
            gamma2=parse("t", "coefficient"), h1=parse("U(1)", "functional"),
            h2=parse("DU(0)", "functional"), f=parse("u", "nonlinearity"),
            lam=0.1, eta1=0.0, eta2=0.0, grid=Grid(8))
        assert (_constant(spec, "gamma1(1)"), _constant(spec, "gamma2(1)")) == (1.0, 1.0)
        assert (_constant(spec, "sup|gamma1'|"), _constant(spec, "sup|gamma2'|")) == (0.0, 1.0)

    def test_gamma_error_surfaces_on_every_read(self):
        spec = nan_at_zero_spec()  # each read of a constant fails
        for _ in range(2):
            with pytest.raises(EvaluationError):
                _constant(spec, "gamma1(1)")


class TestAssembly:
    def test_direct_assembly(self):
        text = edited(ZERO_PROBLEM, ("f = u", "f = u + v"), ("lambda = 0", "lambda = 0.1"))
        spec = loads_problem(text, n=32)
        assert spec.grid == Grid(32)
        assert _constant(spec, "gamma2(1)") == 1.0

    def test_negative_eta(self):
        with pytest.raises(ParameterError):
            loads_problem(edited(ZERO_PROBLEM, ("eta1 = 0", "eta1 = -0.5")))
