import math
import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest

import hammcert.bounds
from hammcert.bounds import (CONE_KNOTS, FALSIFY_KNOTS, FALSIFY_POINTS, BoundSet,
                             LinearGrowthWitness, _check_functionals, estimate_H,
                             estimate_f_extrema, falsify_linear_growth, functional_on_samples)
from hammcert.certificate import check_existence
from hammcert.cli import main
from hammcert.errors import EvaluationError, ParameterError
from hammcert.expr import eval_functional, eval_nonlinearity, parse, parse_entry
from hammcert.grid import CONE_TOL, c1_norm, in_cone, sphere_family, sphere_row_name
from hammcert.problem import load_problem, loads_problem

from grid_checks import assert_slabs_stack_to_the_family, recorded_slabs
from problem_texts import ZERO_PROBLEM, edited

E2 = math.exp(2.0)
PROBLEMS = pathlib.Path(__file__).resolve().parents[1] / "problems"


def tiny_spec(f="u", h1="U(1)", h2="DU(0)", n=64):
    text = edited(ZERO_PROBLEM, ("h1 = U(1)", f"h1 = {h1}"), ("h2 = DU(0)", f"h2 = {h2}"),
                  ("f = u", f"f = {f}"))
    return loads_problem(text, n=n)


def f_extrema(spec, rho):
    """(max, min) of f as estimate_f_extrema samples them, one side at a time."""
    return estimate_f_extrema(spec, rho, True), estimate_f_extrema(spec, rho, False)


class TestEstimateFExtrema:
    def test_exponential(self, example1):
        mx, mn = f_extrema(example1, 1.0)
        assert mx == pytest.approx(E2, abs=1e-12)  # corner of the lattice
        assert mn == 1.0  # attained on the whole t=0 face

    def test_constant(self):
        spec = tiny_spec(f="2")
        assert f_extrema(spec, 1.0) == (2.0, 2.0)

    def test_oscillatory_against_dense_scan(self, example2):
        mx, mn = f_extrema(example2, 1.0)
        assert mx <= 3.0
        assert mn == 0.0
        ax = np.linspace(0, 1, 101)
        dense = eval_nonlinearity(example2.f, ax[:, None, None], ax[None, :, None],
                                  ax[None, None, :])
        assert mx == pytest.approx(float(np.max(dense)), abs=1e-3)

    def test_bad_arguments(self, example1):
        with pytest.raises(ParameterError):
            estimate_f_extrema(example1, 0.0, True)


class TestEstimateH:
    def test_point_evaluation_attains_rho(self):
        spec = tiny_spec(h1="U(1)")
        est = estimate_H(spec, 1, 1.0)
        assert est == pytest.approx(1.0, abs=1e-9)  # the constant member attains it

    def test_zero_functional(self):
        spec = tiny_spec(h1="0")
        assert estimate_H(spec, 1, 1.0) == 0.0

    def test_example1_estimates_below_declared(self, example1):
        for i in (1, 2):
            est = estimate_H(example1, i, 1.0)
            declared = BoundSet(example1).h_upper(i, 1.0).value
            assert est <= declared  # heuristic never exceeds the certified bound
            assert est <= 2.0

    def test_family_lives_on_the_sphere(self, example1):
        for rho in (0.05, 1.0, 4.0):
            u, params = sphere_family(example1.grid, rho, 10)
            assert u.values.shape[0] == params.shape[0] == 1 + 2 * 10 * 9
            assert np.all(in_cone(u))
            np.testing.assert_allclose(c1_norm(u), rho, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("name, i, least", [("example1", 1, 1.85), ("example2", 2, 0.70)])
    def test_family_nears_the_supremum(self, request, name, i, least):
        # example1's H1(1) is 2, example2's H2(1) about 0.708; 200 random
        # cone functions gave 1.61 and 0.546.
        assert estimate_H(request.getfixturevalue(name), i, 1.0) >= least

    # The estimates that 200 random cone functions gave, at fixed seeds,
    # before the closed-form family: it reaches each, to one ulp.
    @pytest.mark.parametrize("name, i, rho, least", [
        ("example1", 1, 0.05, 0.05), ("example1", 1, 1.0, 1.6117565637703128),
        ("example1", 2, 0.05, 0.050031250476837166), ("example1", 2, 1.0, 1.2500038146972656),
        ("example2", 1, 0.05, 0.05), ("example2", 1, 1.0, 1.0),
        ("example2", 2, 0.05, 9.367190103701691e-05), ("example2", 2, 1.0, 0.5461286980571859),
    ])
    def test_family_reaches_the_sampled_estimates(self, request, name, i, rho, least):
        assert estimate_H(request.getfixturevalue(name), i, rho) >= np.nextafter(least, 0.0)

    def test_non_finite_row_names_its_parameters(self):
        # U(0)*DU(1/2) > 0.355 first on the ramp of slope 1 over [0, 5/9] from
        # 4/9; swapped in after the load, whose own check would reject it.
        h1 = parse_entry("functionals", "h1", "exp(2000*U(0)*DU(1/2))", "functional")
        spec = replace(tiny_spec(), h1=h1)
        with pytest.raises(EvaluationError) as err:
            estimate_H(spec, 1, 1.0)
        assert str(err.value) == (
            "[functionals] h1 = 'exp(2000.0*U(0.0)*DU(1.0/2.0))': non-finite on the ramp of "
            "slope 1 on [0, 0.555556] from u(0) = 0.444444 (C1 norm 1)")

    def test_deterministic(self, example1):
        a = estimate_H(example1, 1, 1.0)
        b = estimate_H(example1, 1, 1.0)
        assert a == b

    def test_bad_index(self, example1):
        with pytest.raises(ParameterError):
            estimate_H(example1, 3, 1.0)


class TestFalsifyLinearGrowth:
    def test_example2_witness_consistent(self, example2):
        result = falsify_linear_growth(example2, example2.witness)
        assert result.consistent
        assert result.counterexample is None
        assert result.points_checked == FALSIFY_POINTS

    def test_exponential_violates_tau3(self, example1):
        result = falsify_linear_growth(example1, LinearGrowthWitness(3.0, 1.0, 1.0))
        assert not result.consistent
        ce = result.counterexample
        assert ce.kind == "f-growth"
        assert ce.detail == "f(0.0, 0.0, 0.0) = 1 > tau*u = 0"
        assert result.points_checked == FALSIFY_POINTS // 4  # the first lattice, rho = 1
        t, u, v = ce.point
        # the violation is real: recompute f there
        assert eval_nonlinearity(example1.f, t, u, v) > 3.0 * u

    def test_zero_f_with_zero_tau(self):
        # h1 = h2 = U(1) = sup u on the cone, so xi = 1 is a true witness
        spec = tiny_spec(f="0", h2="U(1)")
        result = falsify_linear_growth(spec, LinearGrowthWitness(0.0, 1.0, 1.0))
        assert result.consistent

    def test_derivative_at_zero_exceeds_every_xi(self):
        # the ramp from 0 on [0, 1/2] is in the cone with u'(0) = 1 > sup u,
        # about 1/2, so h2 = DU(0) has no xi2 <= 1 with h2[u] <= xi2 * sup u
        spec = tiny_spec(f="0")
        ce = _check_functionals(spec, LinearGrowthWitness(0.0, 1.0, 1.0), 1.0, 3)
        sup = 0.5 + spec.grid.h / 2  # the trapezoid antiderivative runs half a node on
        assert (ce.kind, ce.point, ce.value, ce.bound) == ("h2", None, 1.0, sup)
        assert ce.detail == ("h2[the ramp of slope 1 on [0, 0.5] from u(0) = 0] = 1 "
                             f"> xi2*sup u = {sup:.6g}")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("h1, h2, xi1, xi2, found", [
        ("DU(1)", "U(1)", 2.0, 1.0, True),  # u'(1) > 2 sup u on a late ramp from 0
        ("U(1)", "DU(0)", 1.0, 1.5, True),  # u'(0) > 1.5 sup u on an early one
        ("U(1/2)", "U(1)", 1.0, 1.0, False),
        ("U(1)", "U(1)", 1e308, 1.0, False),  # xi1 * sup overflows, without a warning
    ])
    def test_functional_check_matches_a_row_loop(self, h1, h2, xi1, xi2, found):
        spec = tiny_spec(f="0", h1=h1, h2=h2)
        u, params = sphere_family(spec.grid, 2.0, 4)
        expected = None
        for row in range(u.values.shape[0]):  # the reference: row by row, h1 first
            sup = float(np.max(u[row].values))
            hits = [(i, float(eval_functional(h, u[row])), xi * sup)
                    for i, h, xi in ((1, spec.h1, xi1), (2, spec.h2, xi2))]
            hits = [hit for hit in hits if hit[1] > hit[2] + CONE_TOL]
            if hits:
                i, value, bound = hits[0]
                expected = (f"h{i}", value, bound, f"h{i}[{sphere_row_name(*params[row])}] "
                                                   f"= {value:.6g} > xi{i}*sup u = {bound:.6g}")
                break
        ce = _check_functionals(spec, LinearGrowthWitness(0.0, xi1, xi2), 2.0, 4)
        assert (ce and (ce.kind, ce.value, ce.bound, ce.detail)) == expected
        assert (expected is not None) == found

    def test_functional_bound_violation_detected(self, example2):
        # keep example2's f (which satisfies tau=3) but declare xi1 far too small
        spec = tiny_spec(f="u*(2 - t*sin(u*v))", h1="U(1/4) + DU(3/4)^2", h2="U(3/4)")
        result = falsify_linear_growth(spec, LinearGrowthWitness(3.0, 0.1, 1.0))
        assert not result.consistent
        assert result.counterexample.kind == "h1"

    def test_negative_witness(self):
        with pytest.raises(ParameterError):
            LinearGrowthWitness(-1.0, 0.0, 0.0)


class TestSphereSlabs:
    """estimate_H and the witness falsifier evaluate h_i on sphere_family
    slab by slab, at most LATTICE_SLAB samples each: 16384 // (n + 1) rows,
    63 at n = 256 and 7 at n = 2048.  An error in any slab raises the one
    the whole stack raises."""

    @pytest.mark.parametrize("n, slabs", [(256, 3), (2048, 26)])
    def test_estimate_H_in_slabs(self, example1_path, n, slabs, monkeypatch):
        spec = load_problem(example1_path, n=n)
        whole = functional_on_samples(spec.h2, *sphere_family(spec.grid, 1.0, CONE_KNOTS))
        seen = recorded_slabs(monkeypatch)
        assert estimate_H(spec, 2, 1.0) == float(np.max(whole))
        assert [h for h, _, _ in seen] == [spec.h2] * slabs  # 181 rows
        assert_slabs_stack_to_the_family(seen, spec.grid, 1.0, CONE_KNOTS)

    def test_falsifier_in_slabs(self, example2_path, monkeypatch):
        spec = load_problem(example2_path, n=2048)
        seen = recorded_slabs(monkeypatch)
        assert falsify_linear_growth(spec, spec.witness).consistent
        # 25 rows per radius: slabs of 7, 7, 7 and 4 rows, h1 then h2 on each
        assert [h for h, _, _ in seen] == [spec.h1, spec.h2] * 16
        rows = seen[::2]
        for k, rho in enumerate((1.0, 2.0, 4.0, 8.0)):
            assert_slabs_stack_to_the_family(rows[4 * k:4 * k + 4], spec.grid, rho, FALSIFY_KNOTS)

    # In both files exp(1000*(U(1) - 3)) overflows on every row at rho = 4,
    # the constant 4 first, and DU(9/10)/3 leaves [0,1] on the ramp of slope 4
    # over [0, 1] from u(0) = 0; the load samples rho <= 2, where neither
    # happens.  After the constant, row 0, each pair a < b of the knots
    # gives 4 rows, in order.
    def test_sampled_H_raises_the_error_of_the_whole_stack(self, tmp_path, capsys):
        # 10 knots, k/9: (0, 1/9) rows 1-4, (0, 2/9) rows 5-8, ..., (0, 1)
        # rows 33-36.  The first slab, rows 0-6, ends by 2/9, where
        # DU(9/10) = 0; the overflow there loses to the domain error of
        # row 33, in the slab of rows 28-34.
        text = (PROBLEMS / "example1.prob").read_text()
        text = text[:text.index("[bounds]")]  # every bound sampled
        path = tmp_path / "sampled.prob"
        path.write_text(edited(text, ("h1 = U(1/4) + DU(3/4)^2",
                                      "h1 = exp(1000*(U(1) - 3)) + U(DU(9/10)/3)")))
        assert main(["certify-existence", "--problem", str(path), "--n", "2048",
                     "--r", "0.05", "--R", "4"]) == 2
        assert capsys.readouterr() == ("", "error: sampled bound h1(4.0): [functionals] h1 = "
                                           "'exp(1000.0*(U(1.0) - 3.0)) + U(DU(9.0/10.0)/3.0)': "
                                           "evaluation point 1.3333333333333333 outside [0,1]\n")

    def test_falsifier_raises_the_error_of_the_whole_stack(self, tmp_path, capsys):
        # 4 knots, k/3: (0, 1/3) rows 1-4, (0, 2/3) rows 5-8, (0, 1) rows
        # 9-12, (1/3, 2/3) rows 13-16, (1/3, 1) rows 17-20, (2/3, 1) rows
        # 21-24.  At rho = 1 and 2 both h_i are at most sup u = u(1).  At
        # rho = 4, h2 overflows in the first slab, rows 0-6, where h1 is
        # finite, but h1's domain error on row 9, in the second slab, is
        # the one the whole stack raises first.
        text = edited((PROBLEMS / "example2.prob").read_text(),
                      ("h1 = U(1/4) * cos(DU(3/4))^2", "h1 = U(DU(9/10)/3)"),
                      ("h2 = U(3/4) * sin(DU(1/4))^2", "h2 = U(1) + exp(1000*(U(1) - 3))"))
        path = tmp_path / "witness.prob"
        path.write_text(text)
        assert main(["certify-nonexistence", "--problem", str(path), "--n", "2048"]) == 2
        assert capsys.readouterr() == ("", "error: [functionals] h1 = 'U(DU(9.0/10.0)/3.0)': "
                                           "evaluation point 1.3333333333333333 outside [0,1]\n")


class TestBoundSet:
    def test_declared_entries_are_certified(self, example1):
        b = BoundSet(example1)
        fu = b.f_upper(1.0)
        assert fu.rigor == "certified" and fu.value == fu.raw
        assert fu.value == pytest.approx(E2, abs=1e-12)
        assert b.f_lower(0.05).value == 1.0
        assert b.h_upper(1, 1.0).value == 2.0
        assert b.h_upper(2, 1.0).value == 2.0

    def test_declared_upper_monotone_in_rho(self, example1):
        b = BoundSet(example1)
        values = [b.f_upper(r).value for r in (0.25, 0.5, 1.0, 2.0)]
        assert values == sorted(values)

    def test_sampler_fallback_is_heuristic_and_inflated(self, example1):
        b = BoundSet(replace(example1, bounds={}))
        fu = b.f_upper(1.0)
        fl = b.f_lower(1.0)
        h1 = b.h_upper(1, 1.0)
        assert fu.rigor == fl.rigor == h1.rigor == "heuristic"
        assert fu.value == pytest.approx(fu.raw * 1.05)
        assert fl.value == pytest.approx(fl.raw * 0.95)
        assert fu.value >= fl.value
        assert h1.raw == estimate_H(example1, 1, 1.0)

    def test_inflation_widens_negative_estimates(self):
        # f = u - 2 is negative on the whole box at rho = 1, and so is h1
        spec = tiny_spec(f="u - 2", h1="U(1) - 5")
        b = BoundSet(spec)
        fu, fl, h1 = b.f_upper(1.0), b.f_lower(1.0), b.h_upper(1, 1.0)
        assert fu.raw < 0 and fl.raw < 0 and h1.raw < 0
        assert fu.value > fu.raw and h1.value > h1.raw
        assert fl.value < fl.raw
        assert fu.value == pytest.approx(fu.raw + 0.05 * abs(fu.raw))
        assert fl.value == pytest.approx(fl.raw - 0.05 * abs(fl.raw))

    def test_sampled_once_per_slot_and_rho(self, example1, monkeypatch):
        calls = []

        def counting(spec, rho, upward):
            calls.append((rho, upward))
            return estimate_f_extrema(spec, rho, upward)

        monkeypatch.setattr(hammcert.bounds, "estimate_f_extrema", counting)
        spec = replace(example1, bounds={"h1": parse("rho", "bound"), "h2": parse("rho", "bound")})
        check_existence(spec, BoundSet(spec), 0.5, 1.0)
        assert calls == [(1.0, True), (0.5, False)]  # f_upper at R, then f_lower at r

    def test_mixed_declared_and_sampled(self, example1):
        b = BoundSet(replace(example1, bounds={"f_upper": parse("exp(2*rho)", "bound")}))
        assert b.f_upper(1.0).rigor == "certified"
        assert b.f_lower(0.05).rigor == "heuristic"

    def test_constants_are_tagged_where_resolved(self, example1, quadrature_spec):
        def tags(spec):
            return {e.name: (e.value, e.rigor) for e in BoundSet(spec).constants()}

        assert tags(example1) == {
            "K": (0.5, "certified"), "Kstar": (1.0, "certified"),
            "gamma1(1)": (1.0, "certified"), "gamma2(1)": (1.0, "certified"),
            "sup|gamma1'|": (0.0, "certified"), "sup|gamma2'|": (1.0, "certified")}
        quadrature = tags(quadrature_spec)
        assert quadrature["K"] == quadrature["Kstar"] == (0.33333587646484375, "heuristic")

    def test_witness_entries_are_certified(self, example2):
        entries = BoundSet(example2).witness(LinearGrowthWitness(3.0, 0.5, 0.0))
        assert [(e.name, e.value, e.rigor) for e in entries] \
            == [("tau", 3.0, "certified"), ("xi1", 0.5, "certified"), ("xi2", 0.0, "certified")]

    def test_rigor_names_each_capped_entry_then_each_failed_check(self, example1):
        b = BoundSet(replace(example1, bounds={}))
        declared = BoundSet(example1)
        assert b.rigor(declared.constants()) == ()
        assert b.rigor((declared.f_upper(1.0), b.h_upper(2, 1.0), b.f_lower(0.5))) \
            == ("h2(1.0)", "f_lower(0.5)")
        text = edited(ZERO_PROBLEM, ("gamma2 = t", "gamma2 = t - 1/2"), ("f = u", "f = u - 1"))
        warned = BoundSet(loads_problem(text))
        assert warned.rigor(()) == ("gamma2 >= 0", "f >= 0")
        assert warned.rigor(b.constants()[:1] + (b.f_upper(1.0),)) \
            == ("f_upper(1.0)", "gamma2 >= 0", "f >= 0")

    def test_negative_declared_bound_rejected(self, example1):
        b = BoundSet(replace(example1, bounds={"f_upper": parse("1 - rho", "bound")}))
        with pytest.raises(ParameterError):
            b.f_upper(2.0)


def test_package_draws_no_random_numbers():
    # Every sampled input comes from a lattice or a closed-form family.
    pattern = re.compile(r"np\.random|default_rng|import random")
    sources = sorted(pathlib.Path(hammcert.bounds.__file__).parent.glob("*.py"))
    assert sources and not [(path.name, line) for path in sources
                            for line in path.read_text().splitlines() if pattern.search(line)]
