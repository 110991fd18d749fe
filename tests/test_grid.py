import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hammcert.errors import DomainError, ParameterError, ShapeError
from hammcert.expr import eval_functional, parse
from hammcert.grid import (CONE_TOL, Grid, GridFunction, c1_distance, c1_norm,
                           cone_defect, consistency_defect, cumulative_integral,
                           in_cone, integrate)
from hammcert.kernel import FocalKernel
from hammcert.solver import MAX_ITERATIONS, STARTS, TOL_FIXPOINT, multistart_solve


def quad_function(n: int) -> GridFunction:
    g = Grid(n)
    return GridFunction(g, g.nodes**2, 2 * g.nodes)


class TestGrid:
    def test_nodes(self):
        g = Grid(4)
        assert g.n == 4
        np.testing.assert_array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_too_small(self, n):
        with pytest.raises(ParameterError):
            Grid(n)

    def test_equality_by_size(self):
        assert Grid(8) == Grid(8)
        assert Grid(8) != Grid(16)

    def test_nodes_read_only(self):
        g = Grid(4)
        with pytest.raises(ValueError):
            g.nodes[0] = 1.0

    def test_trapezoid_weights_are_read_only(self):
        g = Grid(4)
        np.testing.assert_array_equal(g.weights, [0.125, 0.25, 0.25, 0.25, 0.125])
        with pytest.raises(ValueError):
            g.weights[0] = 1.0


class TestNorm:
    def test_zero(self):
        assert c1_norm(GridFunction.zero(Grid(5))) == 0.0

    def test_ramp_is_one(self):
        assert c1_norm(GridFunction.ramp(Grid(7), 1.0)) == 1.0

    def test_quadratic(self):
        # sup|u| = 1 and sup|u'| = 2 on [0,1]
        assert c1_norm(quad_function(10)) == 2.0

    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_positive_homogeneity(self, alpha):
        u = quad_function(16)
        assert c1_norm(GridFunction(u.grid, alpha * u.values, alpha * u.dvalues)) \
            == alpha * c1_norm(u)

    def test_distance_grid_mismatch(self):
        with pytest.raises(ShapeError):
            c1_distance(GridFunction.zero(Grid(4)), GridFunction.zero(Grid(8)))


def value_at(u: GridFunction, a, atom: str = "U") -> float:
    """u(a) (or u'(a) with atom "DU") through the functional atom."""
    return eval_functional(parse(f"{atom}({float(a)!r})", "functional"), u)


class TestEval:
    def test_node_value(self):
        u = GridFunction.ramp(Grid(4), 1.0)
        assert value_at(u, 0.25) == 0.25

    def test_linear_reproduced(self):
        u = GridFunction.ramp(Grid(4), 1.0)
        assert value_at(u, 0.3) == pytest.approx(0.3, abs=1e-15)
        assert value_at(u, 0.3, "DU") == 1.0

    def test_quadratic_interpolation_error(self):
        u = quad_function(100)
        assert value_at(u, 0.5) == pytest.approx(0.25, abs=1e-4)

    def test_exact_at_every_node(self):
        rng = np.random.default_rng(3)
        g = Grid(17)
        u = GridFunction(g, rng.random(18), rng.random(18))
        for j in range(18):
            assert value_at(u, g.nodes[j]) == u.values[j]
            assert value_at(u, g.nodes[j], "DU") == u.dvalues[j]

    @pytest.mark.parametrize("a", [-0.1, 1.1, 2.0])
    def test_outside_domain(self, a):
        u = GridFunction.zero(Grid(4))
        with pytest.raises(DomainError):
            value_at(u, a)

    def test_nan_point_is_outside_domain(self):
        # NaN fails both a < 0 and a > 1, and is no point of [0,1] either
        u = GridFunction.zero(Grid(4))
        with pytest.raises(DomainError, match=r"^evaluation point nan outside \[0,1\]$"):
            eval_functional(parse("U(0/0)", "functional"), u)


class TestQuadrature:
    @pytest.mark.parametrize("n", [2, 5, 16, 49, 100, 333])
    def test_affine_exact_to_rounding(self, n):
        g = Grid(n)
        assert integrate(g.nodes, g) == pytest.approx(0.5, abs=1e-14)
        assert integrate(np.ones(n + 1), g) == pytest.approx(1.0, abs=1e-14)
        assert integrate(2.0 - 3.0 * g.nodes, g) == pytest.approx(0.5, abs=1e-14)

    def test_quadratic_converges(self):
        g = Grid(100)
        assert integrate(g.nodes**2, g) == pytest.approx(1 / 3, abs=1e-4)

    # The integral over [t_j, 1] is the antiderivative's rise from t_j to 1,
    # the form the focal kernel's derivative row takes.
    def test_tail_full_range(self):
        g = Grid(10)
        cum = cumulative_integral(np.ones(11), g)
        assert cum[-1] - cum[0] == pytest.approx(1.0, abs=1e-15)

    def test_tail_constant(self):
        g = Grid(8)
        cum = cumulative_integral(np.ones(9), g)
        assert cum[-1] - cum[2] == pytest.approx(0.75, abs=1e-15)

    def test_tail_linear(self):
        g = Grid(100)
        cum = cumulative_integral(g.nodes, g)
        assert cum[-1] - cum[50] == pytest.approx(0.375, abs=1e-4)

    def test_tail_at_last_node_is_zero(self):
        g = Grid(6)
        samples = np.random.default_rng(0).normal(size=(3, 7))
        assert FocalKernel().integrals(g, samples)[1][:, -1].tolist() == [0.0, 0.0, 0.0]

    def test_shape_errors(self):
        g = Grid(4)
        with pytest.raises(ShapeError):
            integrate(np.ones(4), g)
        with pytest.raises(ShapeError):
            cumulative_integral(np.ones((2, 6)), g)

    def test_cumulative_matches_total(self):
        g = Grid(12)
        samples = np.sin(g.nodes)
        cum = cumulative_integral(samples, g)
        assert cum[0] == 0.0
        assert cum[-1] == pytest.approx(integrate(samples, g), abs=1e-14)


class TestConeAndConsistency:
    def test_consistency_of_integrated_derivative(self):
        g = Grid(32)
        dv = np.cos(g.nodes)
        u = GridFunction(g, 0.3 + cumulative_integral(dv, g), dv)
        assert consistency_defect(u) == 0.0

    def test_cone_defect(self):
        g = Grid(4)
        u = GridFunction(g, [0, 1, 2, 3, 4], [1, 1, -0.5, 1, 1])
        assert cone_defect(u) == 0.5
        assert not in_cone(u)

    def test_tiny_negative_is_inside(self):
        g = Grid(4)
        u = GridFunction(g, np.full(5, -CONE_TOL / 2), np.zeros(5))
        assert in_cone(u)


class TestOwnership:
    """No one can write a GridFunction's samples, and a row owns its own."""

    def test_caller_writes_do_not_reach_it(self):
        g = Grid(4)
        values, dvalues = np.arange(5.0), np.ones(5)
        u = GridFunction(g, values, dvalues)
        wide = GridFunction(g, np.broadcast_to(values, (2, 5)), np.broadcast_to(dvalues, (2, 5)))
        values[0] = dvalues[0] = 7.0
        assert u.values[0] == wide.values[1, 0] == 0.0 and u.dvalues[0] == wide.dvalues[1, 0] == 1.0

    def test_a_read_only_array_it_is_handed_is_taken_as_it_is(self):
        g = Grid(4)
        a = np.zeros(5)
        a.flags.writeable = False
        assert GridFunction(g, a, a).values is a

    def test_builders_give_read_only_samples(self):
        g = Grid(8)
        stack = GridFunction.stack([GridFunction.zero(g), GridFunction.ramp(g, 2.0)])
        for u in (GridFunction.zero(g), GridFunction.ramp(g, 2.0), stack, stack[1],
                  stack[np.array([True, False])]):
            for samples in (u.values, u.dvalues):
                with pytest.raises(ValueError, match="read-only"):
                    samples[..., 0] = 1.0

    def test_a_row_owns_its_samples(self):
        g = Grid(8)
        stack = GridFunction.stack([GridFunction.ramp(g, s) for s in (1.0, 2.0, 3.0)])
        for row in (stack[1], stack[-1]):
            assert row.values.base is None and row.dvalues.base is None

    def test_solve_results_own_their_rows(self, example1):
        # A result's u that viewed its stack would keep all eight rows alive.
        n = example1.grid.n
        for res in multistart_solve(example1, STARTS, TOL_FIXPOINT, MAX_ITERATIONS):
            for samples in (res.u.values, res.u.dvalues):
                assert samples.base is None or samples.base.size == n + 1
