import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammcert.errors import EvaluationError, ShapeError
from hammcert.expr import eval_kernel_expr, parse
from hammcert.grid import Grid, cumulative_integral
from hammcert.kernel import FocalKernel, Kernel, check_kernel_hypotheses, kernel_from_exprs


@pytest.fixture(scope="module")
def focal():
    return FocalKernel()


class TestFocalConstants:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 10, 49, 64, 100, 256, 333, 1000])
    def test_K_exact(self, focal, n):
        assert focal.K(Grid(n)) == 0.5

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 10, 49, 64, 100, 256, 333, 1000])
    def test_Kstar_exact(self, focal, n):
        assert focal.Kstar(Grid(n)) == 1.0


class TestGenericConstants:
    def test_zero_kernel(self):
        k = kernel_from_exprs("0")
        g = Grid(50)
        assert k.K(g) == 0.0
        assert k.Kstar(g) == 0.0

    def test_product_kernel_K(self):
        # k(1,s) = s, affine, so trapezoid lands on 1/2 up to rounding
        k = kernel_from_exprs("t*s")
        assert k.K(Grid(100)) == pytest.approx(0.5, abs=1e-12)

    def test_dk_independent_of_t(self):
        k = kernel_from_exprs("t*s")
        assert k.Kstar(Grid(100)) == pytest.approx(0.5, abs=1e-4)

    def test_kstar_dominates_every_row(self):
        k = kernel_from_exprs("t*s - t^2*s/4")  # dk = s*(1 - t/2)
        g = Grid(40)
        kstar = k.Kstar(g)
        drows = k.integrals(g, np.ones(g.n + 1))[1]
        for j in range(0, g.n + 1, 5):
            assert drows[j] <= kstar + 1e-15

    def test_broken_kernel_raises(self):
        k = Kernel(k=lambda t, s: 1.0 / (s - s), dk=lambda t, s: s * 0.0)
        with pytest.raises(EvaluationError):
            k.K(Grid(8))


class TestDerivedDk:
    # The custom kernels the tests declare, each with its t-derivative in closed form.
    @pytest.mark.parametrize("k_src, dk_src", [
        ("t*s", "s"), ("t*s^2", "s^2"), ("t*sqrt(s)", "sqrt(s)"),
        ("(t-0.4)^2 + (s-0.7)^2 - 0.01", "2*(t-0.4)"),
    ])
    def test_bit_identical_to_the_declared_dk(self, k_src, dk_src):
        derived = kernel_from_exprs(k_src)
        declared = parse(dk_src, "kernel")
        lattice = np.linspace(0.0, 1.0, 64)
        for pts in (lattice, Grid(256).nodes):
            t, s = pts[:, None], pts[None, :]
            want = np.broadcast_to(eval_kernel_expr(declared, t, s), (len(pts), len(pts)))
            assert np.array_equal(derived._sample(derived.dk, t, s, "dk"), want)


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
            tail = g.h * (F[j:].sum() - 0.5 * (F[j] + F[-1])) if j < g.n else 0.0
            assert drows[j] == pytest.approx(tail, abs=1e-14)

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
        for kern in (focal, kernel_from_exprs("t*s")):
            rows, drows = kern.integrals(g, F)
            for j in (0, 8, 16):
                assert rows[j] >= 0.0
                assert drows[j] >= 0.0

    def test_shape_and_index_errors(self):
        # the focal derivative row is the rise of the trapezoid
        # antiderivative, which checks the shape of one row or a stack
        g = Grid(8)
        with pytest.raises(ShapeError):
            cumulative_integral(np.ones(8), g)
        with pytest.raises(ShapeError):
            cumulative_integral(np.ones((2, 10)), g)


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

    @pytest.mark.parametrize("shape", [(257,), (8, 257)])
    def test_focal_in_place_rows_are_the_formulas_bit_for_bit(self, focal, shape):
        # Each row written out of place, every temporary a new array.
        g = Grid(256)
        F = 1e3 * np.random.default_rng(7).random(shape)
        t = g.nodes
        wF = g.weights * F
        below = np.cumsum(wF, axis=-1)
        steps = np.cumsum(0.5 * g.h * (F[..., 1:] + F[..., :-1]), axis=-1)
        C = np.concatenate([np.zeros(shape[:-1] + (1,)), steps], axis=-1)
        values, derivs = focal.integrals(g, F)
        assert values.tobytes() == (np.cumsum(t * wF, axis=-1) + t * (below[..., -1:] - below)).tobytes()
        assert derivs.tobytes() == (C[..., -1:] - C).tobytes()
        assert cumulative_integral(F, g).tobytes() == C.tobytes()

    def test_focal_builds_no_dense_weights(self):
        focal = FocalKernel()
        focal.integrals(Grid(64), np.ones(65))
        assert focal._cache == {}
        g = Grid(2048)
        F = np.random.default_rng(0).random(2049)
        rows, drows = focal.integrals(g, F)
        row, drow = rows[700], drows[700]
        assert focal._cache == {}
        assert row == pytest.approx(focal.value_weight_matrix(g)[700] @ F, rel=1e-13)
        assert drow == pytest.approx(focal.deriv_weight_matrix(g)[700] @ F, rel=1e-13)


class TestHypothesisChecks:
    def test_focal_passes(self, focal):
        results = check_kernel_hypotheses(focal, 64)
        assert [r.name for r in results] == ["kernel k >= 0", "kernel dk >= 0"]
        assert all(r.ok for r in results)

    def test_negative_kernel_warns(self):
        k = kernel_from_exprs("t - s")
        results = check_kernel_hypotheses(k, 64)
        assert any(r.name == "kernel k >= 0" and not r.ok for r in results)
