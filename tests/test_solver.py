import warnings
from dataclasses import replace

import numpy as np
import pytest

from hammcert.errors import ParameterError
from hammcert.expr import parse
from hammcert.grid import (CONE_TOL, Grid, GridFunction, c1_distance, c1_norm, consistency_defect,
                           in_cone)
from hammcert.problem import apply_T, load_problem
from hammcert.solver import MAX_ITERATIONS, TOL_FIXPOINT, _lockstep, multistart_solve

from grid_checks import consistency_tol, monotone_defect


def solve_from_zero(spec, tol=TOL_FIXPOINT, max_iter=MAX_ITERATIONS):
    """Picard from the zero function: the only start of a one-start solve."""
    [res] = multistart_solve(spec, starts=1, tol=tol, max_iter=max_iter)
    return res


def solve_from(spec, u0):
    """Picard from the cone function u0, as a stack of one."""
    return _lockstep(spec, GridFunction.stack([u0]), TOL_FIXPOINT, MAX_ITERATIONS)[0]


class TestPicard:
    def test_example2_zero_is_fixed_point(self, example2):
        res = solve_from_zero(example2)
        assert res.converged
        assert res.iterations == 1
        assert res.norm == 0.0 and res.residual == 0.0
        assert res.cone_ok

    def test_zero_parameters_converge_immediately(self, example1):
        spec = replace(example1, lam=0.0, eta1=0.0, eta2=0.0)
        res = solve_from_zero(spec)
        assert res.converged and res.iterations == 1 and res.norm == 0.0

    def test_example1_nontrivial_solution(self, example1):
        res = solve_from_zero(example1)
        assert res.converged
        assert res.residual <= 1e-10
        assert res.cone_ok
        assert 1 / 20 <= res.norm <= 1.0

    def test_matches_finer_grid_reference(self, example1, example1_path):
        fine = load_problem(example1_path, n=1000)
        ref = solve_from_zero(fine, tol=1e-12)
        res = solve_from_zero(example1)
        assert ref.converged
        assert res.norm == pytest.approx(ref.norm, abs=1e-6)

    def test_reported_residual_is_reproducible(self, example1):
        res = solve_from_zero(example1)
        assert abs(c1_distance(res.u, apply_T(example1, res.u)) - res.residual) <= 1e-12

    def test_iterates_stay_monotone_and_in_cone(self, example1):
        u = GridFunction.zero(example1.grid)
        for _ in range(10):
            u = apply_T(example1, u)
            assert in_cone(u)
            assert monotone_defect(u) <= CONE_TOL

    def test_grid_refinement_scaling(self, example1_path):
        norms = {}
        for n in (128, 256, 512):
            spec = load_problem(example1_path, n=n)
            res = solve_from_zero(spec, tol=1e-12)
            assert res.converged
            norms[n] = res.norm
        d1 = abs(norms[128] - norms[256])
        d2 = abs(norms[256] - norms[512])
        assert 2.5 <= d1 / d2 <= 6.0  # trapezoid order: ratio near 4

    def test_non_cone_start_rejected(self, example1):
        g = example1.grid
        bad = GridFunction(g, -np.ones(g.n + 1), np.zeros(g.n + 1))
        with pytest.raises(ParameterError):
            solve_from(example1, bad)

    def test_bad_tolerance(self, example1):
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                solve_from_zero(example1, tol=tol)
            with pytest.raises(ParameterError):
                multistart_solve(example1, starts=2, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_iteration_cap_at_least_one(self, example1, max_iter):
        with pytest.raises(ParameterError, match="iteration cap must be at least 1"):
            multistart_solve(example1, starts=2, max_iter=max_iter)
        with pytest.raises(ParameterError, match="iteration cap must be at least 1"):
            solve_from_zero(example1, max_iter=max_iter)

    def test_max_iterations_status(self, example1):
        res = solve_from_zero(example1, max_iter=3)
        assert res.status == "max-iterations"
        assert res.iterations == 3
        assert res.residual > 1e-10

    def test_divergence_from_large_start(self, example1):
        # the exponential nonlinearity blows up from far outside the annulus
        res = solve_from(example1, GridFunction.ramp(example1.grid, 10.0))
        assert res.status == "diverged"


class TestMultistart:
    def test_example1_finds_annulus_solution(self, example1):
        results = multistart_solve(example1, starts=8, seed=0)
        good = [r for r in results if r.converged and 1 / 20 <= r.norm <= 1.0]
        assert good
        assert all(r.cone_ok for r in good)

    def test_example2_only_trivial(self, example2):
        results = multistart_solve(example2, starts=10, seed=1)
        assert all(r.converged for r in results)
        assert all(r.norm <= 1e-8 for r in results)

    def test_sorted_and_deduplicated(self, example1):
        results = multistart_solve(example1, starts=12, seed=0)
        norms = [r.norm for r in results]
        assert norms == sorted(norms)
        converged = [r for r in results if r.converged]
        for i, a in enumerate(converged):
            for b in converged[i + 1:]:
                assert abs(a.norm - b.norm) >= 10 * 1e-10

    def test_deterministic(self, example2):
        a = multistart_solve(example2, starts=6, seed=42)
        b = multistart_solve(example2, starts=6, seed=42)
        assert [(r.status, r.norm, r.residual) for r in a] == \
               [(r.status, r.norm, r.residual) for r in b]

    def test_zero_spec_collapses_to_single_result(self, example1):
        spec = replace(example1, lam=0.0, eta1=0.0, eta2=0.0)
        results = multistart_solve(spec, starts=5, seed=0)
        assert len(results) == 1
        assert results[0].converged and results[0].norm == 0.0

    def test_overflow_diverges_without_a_warning(self, example1):
        # eta1*h1 overflows in the first application, in every start
        spec = replace(example1, eta1=1e300, h1=parse("U(1/4) + 1e300", "functional"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = multistart_solve(spec, starts=3, seed=0)
        assert [(r.status, r.norm, r.iterations) for r in results] == [("diverged", np.inf, 1)] * 3

    def test_needs_at_least_one_start(self, example1):
        with pytest.raises(ParameterError):
            multistart_solve(example1, starts=0)

    def test_grid_override(self, example1_path):
        results = multistart_solve(load_problem(example1_path, n=64), starts=1, seed=0)
        assert results[0].u.grid == Grid(64)


class TestVerifySolution:
    """A solve's result re-checked on its own u, with the grid functions
    the solver reports through: residual, norm, cone and consistency."""

    def test_converged_solution_report(self, example1):
        res = solve_from_zero(example1)
        assert c1_distance(res.u, apply_T(example1, res.u)) == res.residual <= TOL_FIXPOINT
        assert res.cone_ok and in_cone(res.u)
        assert c1_norm(res.u) == res.norm and 1 / 20 <= res.norm <= 1.0
        assert consistency_defect(res.u) <= consistency_tol(example1.grid.n)

    def test_zero_is_not_a_fixed_point_of_example1(self, example1):
        zero = GridFunction.zero(example1.grid)
        assert c1_distance(zero, apply_T(example1, zero)) > 0.01  # T0 has derivative lam at t=0

    def test_zero_on_zero_problem(self, example1):
        spec = replace(example1, lam=0.0, eta1=0.0, eta2=0.0)
        res = solve_from_zero(spec)
        assert res.residual == c1_distance(res.u, apply_T(spec, res.u)) == 0.0
        assert res.norm == 0.0 and res.cone_ok
