import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammcert.errors import EvaluationError, ShapeError
from hammcert.grid import Grid, integrate_tail
from hammcert.kernel import (FocalKernel, Kernel, check_kernel_hypotheses,
                             constant_K, constant_Kstar, kernel_from_exprs)


@pytest.fixture(scope="module")
def focal():
    return FocalKernel()


class TestFocalConstants:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 10, 49, 64, 100, 256, 333, 1000])
    def test_K_exact(self, focal, n):
        assert constant_K(focal, Grid(n)) == 0.5

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 10, 49, 64, 100, 256, 333, 1000])
    def test_Kstar_exact(self, focal, n):
        assert constant_Kstar(focal, Grid(n)) == 1.0


class TestGenericConstants:
    def test_zero_kernel(self):
        k = kernel_from_exprs("0", "0")
        g = Grid(50)
        assert constant_K(k, g) == 0.0
        assert constant_Kstar(k, g) == 0.0

    def test_product_kernel_K(self):
        # k(1,s) = s, affine, so trapezoid lands on 1/2 up to rounding
        k = kernel_from_exprs("t*s", "s")
        assert constant_K(k, Grid(100)) == pytest.approx(0.5, abs=1e-12)

    def test_dk_independent_of_t(self):
        k = kernel_from_exprs("t*s", "s")
        assert constant_Kstar(k, Grid(100)) == pytest.approx(0.5, abs=1e-4)

    def test_kstar_dominates_every_row(self):
        k = kernel_from_exprs("t*s", "s*(1 - t/2)")
        g = Grid(40)
        kstar = constant_Kstar(k, g)
        drows = k.integrals(g, np.ones(g.n + 1))[1]
        for j in range(0, g.n + 1, 5):
            assert drows[j] <= kstar + 1e-15

    def test_broken_kernel_raises(self):
        k = Kernel(k=lambda t, s: 1.0 / (s - s), dk=lambda t, s: s * 0.0)
        with pytest.raises(EvaluationError):
            constant_K(k, Grid(8))


class TestRows:
    def test_focal_row_at_one(self, focal):
        g = Grid(64)
        assert focal.integrals(g, np.ones(65))[0][64] == pytest.approx(0.5, abs=1e-12)

    def test_focal_row_at_zero(self, focal):
        g = Grid(64)
        assert focal.integrals(g, np.ones(65))[0][0] == 0.0

    def test_focal_deriv_row_quarter(self, focal):
        g = Grid(8)
        assert focal.integrals(g, np.ones(9))[1][2] == pytest.approx(0.75, abs=1e-12)

    def test_focal_deriv_row_is_tail_integral(self, focal):
        g = Grid(32)
        F = np.exp(g.nodes)
        drows = focal.integrals(g, F)[1]
        for j in (0, 7, 16, 32):
            assert drows[j] == pytest.approx(integrate_tail(F, g, j), abs=1e-14)

    def test_focal_rows_nondecreasing_in_t(self, focal):
        g = Grid(32)
        rng = np.random.default_rng(5)
        F = rng.random(33)
        rows = focal.integrals(g, F)[0].tolist()
        assert all(b >= a - 1e-15 for a, b in zip(rows, rows[1:]))

    def test_rows_nonnegative_for_cone_input(self, focal):
        g = Grid(16)
        rng = np.random.default_rng(11)
        F = rng.random(17)
        for kern in (focal, kernel_from_exprs("t*s", "s")):
            rows, drows = kern.integrals(g, F)
            for j in (0, 8, 16):
                assert rows[j] >= 0.0
                assert drows[j] >= 0.0

    def test_shape_and_index_errors(self, focal):
        # the focal derivative row is the tail integral, which checks both
        g = Grid(8)
        with pytest.raises(ShapeError):
            integrate_tail(np.ones(8), g, 0)
        with pytest.raises(ShapeError):
            integrate_tail(np.ones(9), g, 9)


class TestIntegrals:
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([2, 3, 8, 257, 1024]), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-3, 1e3))
    def test_focal_matches_dense_weights(self, n, seed, scale):
        focal = FocalKernel()
        g = Grid(n)
        F = scale * np.random.default_rng(seed).random(n + 1)
        values, derivs = focal.integrals(g, F)
        tol = 1e-13 * max(1.0, float(np.abs(F).sum()))
        assert np.max(np.abs(values - focal.value_weight_matrix(g) @ F)) <= tol
        assert np.max(np.abs(derivs - focal.deriv_weight_matrix(g) @ F)) <= tol

    def test_focal_builds_no_dense_weights(self):
        focal = FocalKernel()
        focal.integrals(Grid(64), np.ones(65))
        assert focal._cache.get(64, {}).keys().isdisjoint({"value_weights", "deriv_weights"})
        g = Grid(2048)
        F = np.random.default_rng(0).random(2049)
        rows, drows = focal.integrals(g, F)
        row, drow = rows[700], drows[700]
        assert focal._cache.get(2048, {}).keys().isdisjoint({"value_weights", "deriv_weights"})
        assert row == pytest.approx(focal.value_weight_matrix(g)[700] @ F, rel=1e-13)
        assert drow == pytest.approx(focal.deriv_weight_matrix(g)[700] @ F, rel=1e-13)


class TestHypothesisChecks:
    def test_focal_passes(self, focal):
        results = check_kernel_hypotheses(focal)
        assert [r.name for r in results] == [
            "kernel k >= 0", "kernel dk >= 0", "kernel k <= Phi", "kernel dk <= Psi"]
        assert all(r.ok for r in results)

    def test_negative_kernel_warns(self):
        k = kernel_from_exprs("t - s", "1")
        results = check_kernel_hypotheses(k)
        assert any(r.name == "kernel k >= 0" and not r.ok for r in results)

    def test_domination_violation_warns(self):
        k = Kernel(k=lambda t, s: np.minimum(s, t), dk=lambda t, s: np.where(s <= t, 0.0, 1.0),
                   phi=lambda s: 0.5 * s)
        results = check_kernel_hypotheses(k)
        assert any(r.name == "kernel k <= Phi" and not r.ok for r in results)

    def test_no_dominators_no_domination_rows(self):
        k = kernel_from_exprs("t*s", "s")
        names = [r.name for r in check_kernel_hypotheses(k)]
        assert "kernel k <= Phi" not in names

    def test_expression_dominators(self):
        k = kernel_from_exprs("t*s", "s", phi_src="s", psi_src="1")
        results = check_kernel_hypotheses(k)
        assert all(r.ok for r in results)
        assert {"kernel k <= Phi", "kernel dk <= Psi"} <= {r.name for r in results}
