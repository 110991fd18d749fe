import numpy as np
import pytest

from hammcert.errors import ParameterError
from hammcert.grid import CONE_TOL, Grid, GridFunction, c1_norm, in_cone
from hammcert.problem import apply_T, load_problem
from hammcert.solver import TOL_FIXPOINT, multistart_solve, picard_solve, verify_solution

from grid_checks import consistency_tol, monotone_defect


class TestPicard:
    def test_example2_zero_is_fixed_point(self, example2):
        res = picard_solve(example2, GridFunction.zero(example2.grid))
        assert res.converged
        assert res.iterations == 1
        assert res.norm == 0.0 and res.residual == 0.0
        assert res.cone_ok

    def test_zero_parameters_converge_immediately(self, example1):
        spec = example1.with_params(0.0, 0.0, 0.0)
        res = picard_solve(spec, GridFunction.zero(spec.grid))
        assert res.converged and res.iterations == 1 and res.norm == 0.0

    def test_example1_nontrivial_solution(self, example1):
        res = picard_solve(example1, GridFunction.zero(example1.grid))
        assert res.converged
        assert res.residual <= 1e-10
        assert res.cone_ok
        assert 1 / 20 <= res.norm <= 1.0

    def test_matches_finer_grid_reference(self, example1, example1_path):
        fine = load_problem(example1_path, n=1000)
        ref = picard_solve(fine, GridFunction.zero(fine.grid), tol=1e-12)
        res = picard_solve(example1, GridFunction.zero(example1.grid))
        assert ref.converged
        assert res.norm == pytest.approx(ref.norm, abs=1e-6)

    def test_reported_residual_is_reproducible(self, example1):
        res = picard_solve(example1, GridFunction.zero(example1.grid))
        report = verify_solution(example1, res.u)
        assert abs(report.residual - res.residual) <= 1e-12

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
            res = picard_solve(spec, GridFunction.zero(spec.grid), tol=1e-12)
            assert res.converged
            norms[n] = res.norm
        d1 = abs(norms[128] - norms[256])
        d2 = abs(norms[256] - norms[512])
        assert 2.5 <= d1 / d2 <= 6.0  # trapezoid order: ratio near 4

    def test_non_cone_start_rejected(self, example1):
        g = example1.grid
        bad = GridFunction(g, -np.ones(g.n + 1), np.zeros(g.n + 1))
        with pytest.raises(ParameterError):
            picard_solve(example1, bad)

    def test_bad_tolerance(self, example1):
        for tol in (0.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                picard_solve(example1, GridFunction.zero(example1.grid), tol=tol)
            with pytest.raises(ParameterError):
                multistart_solve(example1, starts=2, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_iteration_cap_at_least_one(self, example1, max_iter):
        with pytest.raises(ParameterError, match="iteration cap must be at least 1"):
            multistart_solve(example1, starts=2, max_iter=max_iter)
        with pytest.raises(ParameterError, match="iteration cap must be at least 1"):
            picard_solve(example1, GridFunction.zero(example1.grid), max_iter=max_iter)

    def test_max_iterations_status(self, example1):
        res = picard_solve(example1, GridFunction.zero(example1.grid), max_iter=3)
        assert res.status == "max-iterations"
        assert res.iterations == 3
        assert res.residual > 1e-10

    def test_divergence_from_large_start(self, example1):
        # the exponential nonlinearity blows up from far outside the annulus
        res = picard_solve(example1, GridFunction.ramp(example1.grid, 10.0))
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
        spec = example1.with_params(0.0, 0.0, 0.0)
        results = multistart_solve(spec, starts=5, seed=0)
        assert len(results) == 1
        assert results[0].converged and results[0].norm == 0.0

    def test_needs_at_least_one_start(self, example1):
        with pytest.raises(ParameterError):
            multistart_solve(example1, starts=0)

    def test_grid_override(self, example1_path):
        results = multistart_solve(load_problem(example1_path, n=64), starts=1, seed=0)
        assert results[0].u.grid == Grid(64)


class TestVerifySolution:
    def test_converged_solution_report(self, example1):
        res = picard_solve(example1, GridFunction.zero(example1.grid))
        report = verify_solution(example1, res.u)
        assert report.residual <= TOL_FIXPOINT
        assert report.cone_ok
        assert 1 / 20 <= report.norm <= 1.0
        assert report.consistency_defect <= consistency_tol(example1.grid.n)

    def test_zero_is_not_a_fixed_point_of_example1(self, example1):
        report = verify_solution(example1, GridFunction.zero(example1.grid))
        assert report.residual > 0.01  # T0 has derivative lam at t=0

    def test_zero_on_zero_problem(self, example1):
        spec = example1.with_params(0.0, 0.0, 0.0)
        report = verify_solution(spec, GridFunction.zero(spec.grid))
        assert report.residual == 0.0
