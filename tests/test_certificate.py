import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammcert.bounds import BoundSet, LinearGrowthWitness
from hammcert.certificate import check_existence, check_nonexistence
from hammcert.errors import ParameterError
from hammcert.expr import parse
from hammcert.problem import loads_problem

from problem_texts import ZERO_PROBLEM, edited

E2 = math.exp(2.0)
R_EX1 = 1.0
r_EX1 = 1 / 20


class TestExistenceExample1:
    def test_feasible_point_is_certified(self, example1):
        cert = check_existence(example1, BoundSet(example1), r_EX1, R_EX1)
        assert cert.lhs_value_branch == pytest.approx(E2 / 20 + 2 / 11 + 2 / 12, abs=1e-9)
        assert cert.lhs_deriv_branch == pytest.approx(E2 / 10 + 2 / 12, abs=1e-9)
        assert cert.lhs_idx0 == 1 / 20  # exact equality, non-strict pass
        assert cert.lower_margin == 0.0
        assert cert.verdict == "certified"
        assert cert.passed and cert.rigor == "certified"
        assert cert.upper_margin == pytest.approx(1.0 - (E2 / 10 + 2 / 12), abs=1e-9)

    def test_lambda_zero_fails_idx0(self, example1):
        spec = replace(example1, lam=0.0)
        cert = check_existence(spec, BoundSet(example1), r_EX1, R_EX1)
        assert cert.lhs_idx0 == 0.0
        assert cert.verdict == "fail"

    def test_doubled_lambda_fails_deriv_branch(self, example1):
        spec = replace(example1, lam=0.2)
        cert = check_existence(spec, BoundSet(example1), r_EX1, R_EX1)
        assert cert.lhs_deriv_branch == pytest.approx(E2 / 5 + 1 / 6, abs=1e-9)
        assert cert.lhs_deriv_branch > 1.0
        assert cert.verdict == "fail"

    def test_bad_radii(self, example1):
        with pytest.raises(ParameterError):
            check_existence(example1, BoundSet(example1), 1.0, 0.05)
        with pytest.raises(ParameterError):
            check_existence(example1, BoundSet(example1), 0.0, 1.0)


class TestRigorPropagation:
    def test_heuristic_bounds_give_heuristic_pass(self, example1):
        bounds = BoundSet(replace(example1, bounds={}))
        # deflated f_lower cannot hit the worked example's equality case at
        # r = 1/20, so certify a slightly smaller inner radius
        cert = check_existence(example1, bounds, 0.04, 1.0)
        assert cert.verdict == "heuristic-pass"
        assert cert.rigor == "heuristic"

    def test_one_sampled_entry_taints_rigor(self, example1):
        bounds = BoundSet(replace(example1, bounds={
            "f_upper": parse("exp(2*rho)", "bound"),
            "f_lower": parse("1", "bound"),
            "h1": parse("rho + rho^2", "bound"),
        }))
        cert = check_existence(example1, bounds, r_EX1, R_EX1)
        assert cert.h2_R.rigor == "heuristic"
        assert cert.rigor == "heuristic"
        assert cert.verdict in ("heuristic-pass", "fail")

    def test_quadrature_kernel_constants_are_heuristic(self, quadrature_spec):
        spec = quadrature_spec
        assert spec.kernel.K(spec.grid) == spec.kernel.Kstar(spec.grid) == 0.33333587646484375
        cert = check_existence(spec, BoundSet(spec), 0.1000003, 1.0)
        assert cert.lhs_idx0 >= cert.r  # passes on the quadrature constants only
        assert {e.rigor for e in (cert.f_upper_R, cert.f_lower_r, cert.h1_R, cert.h2_R)} \
            == {"certified"}
        assert (cert.verdict, cert.rigor) == ("heuristic-pass", "heuristic")
        assert cert.heuristic_inputs == ("K", "Kstar")

    def test_node_maximum_of_t_dependent_dgamma_is_heuristic(self, example1_path):
        with open(example1_path, encoding="utf-8") as fh:
            text = fh.read()
        for old, new in (("gamma2 = t\n", "gamma2 = t + (1 - cos(7*t))/7\n"),
                         ("eta2 = 1/12\n", "eta2 = 1/24\n")):
            assert old in text
            text = text.replace(old, new)
        spec = loads_problem(text)
        dgamma2_sup = BoundSet(spec).constants()[5]
        assert dgamma2_sup.value < 2.0  # the nodes miss the supremum 2 of 1 + sin(7t)
        cert = check_existence(spec, BoundSet(spec), r_EX1, R_EX1)
        assert (cert.verdict, cert.rigor) == ("heuristic-pass", "heuristic")
        assert cert.heuristic_inputs == ("sup|gamma2'|",)


class TestExistenceStructure:
    @given(st.floats(min_value=0, max_value=0.2), st.floats(min_value=0, max_value=0.2),
           st.floats(min_value=0, max_value=0.2), st.floats(min_value=0.001, max_value=0.1))
    @settings(max_examples=40, deadline=None)
    def test_lhs_monotone_in_parameters(self, example1, lam, eta1, eta2, bump):
        bounds = BoundSet(example1)
        spec = replace(example1, lam=lam, eta1=eta1, eta2=eta2)
        base = check_existence(spec, bounds, r_EX1, R_EX1)
        for bumped in (replace(spec, lam=lam + bump), replace(spec, eta1=eta1 + bump),
                       replace(spec, eta2=eta2 + bump)):
            more = check_existence(bumped, bounds, r_EX1, R_EX1)
            assert more.lhs_value_branch >= base.lhs_value_branch
            assert more.lhs_deriv_branch >= base.lhs_deriv_branch
            assert more.lhs_idx0 >= base.lhs_idx0

    def test_slot_swap_symmetry(self, example1):
        # exchanging the (gamma_i, h_i, eta_i) slots leaves the verdict alone
        swapped_spec = loads_problem(edited(
            ZERO_PROBLEM,
            ("gamma1 = 1\ngamma2 = t", "gamma1 = t\ngamma2 = 1"),
            ("h1 = U(1)", "h1 = INT(U(s)^3 + DU(s))"), ("h2 = DU(0)", "h2 = U(1/4) + DU(3/4)^2"),
            ("f = u", "f = exp(t*(u + v))"), ("lambda = 0", f"lambda = {example1.lam!r}"),
            ("eta1 = 0", f"eta1 = {example1.eta2!r}"), ("eta2 = 0", f"eta2 = {example1.eta1!r}")),
            n=64)
        swapped_bounds = BoundSet(replace(swapped_spec, bounds={
            "f_upper": parse("exp(2*rho)", "bound"), "f_lower": parse("1", "bound"),
            "h1": parse("rho^3 + rho", "bound"), "h2": parse("rho + rho^2", "bound")}))
        orig = check_existence(example1, BoundSet(example1), r_EX1, R_EX1)
        swap = check_existence(swapped_spec, swapped_bounds, r_EX1, R_EX1)
        assert swap.verdict == orig.verdict
        assert max(swap.lhs_value_branch, swap.lhs_deriv_branch) == pytest.approx(
            max(orig.lhs_value_branch, orig.lhs_deriv_branch), abs=1e-12)
        assert swap.lhs_idx0 == orig.lhs_idx0


class TestNonexistence:
    def test_example2_feasible_point(self, example2):
        cert = check_nonexistence(example2, example2.witness)
        assert cert.lhs == pytest.approx(0.95, abs=1e-12)
        assert cert.passed
        assert cert.margin == pytest.approx(0.05, abs=1e-12)

    def test_all_zero_parameters_pass(self, example2):
        cert = check_nonexistence(replace(example2, lam=0.0, eta1=0.0, eta2=0.0),
                                  example2.witness)
        assert cert.lhs == 0.0 and cert.passed

    def test_boundary_is_strict(self, example2):
        cert = check_nonexistence(replace(example2, lam=2 / 3, eta1=0.0, eta2=0.0),
                                  example2.witness)
        assert cert.lhs == 1.0  # exactly on the boundary
        assert not cert.passed

    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1),
           st.floats(min_value=0.001, max_value=0.5))
    @settings(max_examples=40, deadline=None)
    def test_lhs_monotone(self, example2, lam, eta1, bump):
        w = example2.witness
        spec = replace(example2, lam=lam, eta1=eta1, eta2=0.1)
        base = check_nonexistence(spec, w)
        assert check_nonexistence(replace(spec, lam=lam + bump), w).lhs >= base.lhs
        assert check_nonexistence(replace(spec, eta1=eta1 + bump), w).lhs >= base.lhs
