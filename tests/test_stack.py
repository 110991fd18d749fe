"""A stack of functions is evaluated in one pass, bit for bit as its rows
are one at a time: interpolation, functionals, the operator and the
Picard iteration.  The sphere_family stack of cone functions is built in
one pass, each row from its own parameters."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammcert.errors import DomainError, EvaluationError, ShapeError
from hammcert.expr import eval_functional, parse
from hammcert.grid import (Grid, GridFunction, c1_distance, c1_norm, cone_defect,
                           consistency_defect, in_cone, interp_rows, sphere_family,
                           sphere_row_name)
from hammcert.kernel import Kernel
from hammcert.problem import apply_T, loads_problem
from hammcert.solver import (DIVERGENCE_CAP, STARTS, SolveResult, _lockstep, _start_functions,
                             multistart_solve)

from grid_checks import family_rows
from problem_texts import ZERO_PROBLEM

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def assert_same(a, b):
    """Equal bit for bit, signed zeros included; NaN only where NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(a[~nan], b[~nan])
    assert np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan]))


def unchecked(n, h1=None, h2=None, f=None, **fields):
    """The zero problem on n subintervals with the given entries swapped in
    after its load, so the load-time checks never see them."""
    exprs = {key: parse(src, role) for key, role, src in
             (("h1", "functional", h1), ("h2", "functional", h2), ("f", "nonlinearity", f))
             if src is not None}
    return replace(loads_problem(ZERO_PROBLEM, n=n), **exprs, **fields)


def cone_stack(grid, seed, k):
    rng = np.random.default_rng(seed)
    return family_rows(grid, rng, rng.uniform(0.05, 1.0, size=k))


class TestInterpolation:
    @given(n=st.integers(2, 40), k=st.integers(1, 5), seed=SEEDS,
           specials=st.lists(st.sampled_from([0.0, -0.0, np.inf, -np.inf]), max_size=4),
           extra=st.lists(st.floats(0.0, 1.0), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_np_interp(self, n, k, seed, specials, extra):
        g = Grid(n)
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=(k, n + 1)) * 10.0 ** rng.integers(-3, 4)
        # signed zeros and infinities reach np.interp's node rule and NaN fallback
        for value in specials:
            samples[rng.integers(k), rng.integers(n + 1)] = value
        points = np.concatenate(([0.0, 1.0], g.nodes, rng.uniform(0.0, 1.0, 7), extra))
        with np.errstate(all="ignore"):
            shared = interp_rows(samples, g, points[None, :])
            per_row = interp_rows(samples, g, np.tile(points, (k, 1)))
            for i in range(k):
                ref = np.interp(points, g.nodes, samples[i])
                assert_same(shared[i], ref)
                assert_same(per_row[i], ref)

    @pytest.mark.parametrize("points", [[0.0, 0.25, 0.5, 0.75], [0.1, 1 / 3, 0.6, 1.0]],
                             ids=["nodes", "off-nodes"])
    def test_planned_points_equal_np_interp(self, points):
        # On n = 8 the first set is all nodes, which returns the gathered node
        # samples; the second needs the slopes, and 1 is the last interval's end.
        g = Grid(8)
        samples = np.random.default_rng(5).normal(size=(3, 9))
        points = np.array(points)
        for _ in range(2):  # the plan is made by the first call, read by the second
            got = interp_rows(samples, g, points)
            for i in range(3):
                assert_same(got[i], np.interp(points, g.nodes, samples[i]))
        assert len(g._plans) == 1

    def test_one_point_set_on_two_grids(self):
        # Equal point sets on two grids: each grid plans with its own nodes.
        grids = [Grid(4), Grid(7)]
        rng = np.random.default_rng(9)
        samples = [rng.normal(size=(2, g.n + 1)) for g in grids]
        points = np.array([0.25, 0.5, 0.9])
        for _ in range(3):
            for g, y in zip(grids, samples):
                got = interp_rows(y, g, points.copy())
                for i in range(2):
                    assert_same(got[i], np.interp(points, g.nodes, y[i]))

    @pytest.mark.parametrize("point, shown", [(1.5, "1.5"), (-0.25, "-0.25"), (np.nan, "nan")])
    def test_a_point_outside_is_refused_on_every_call(self, point, shown):
        g = Grid(8)
        samples = np.zeros((2, 9))
        for _ in range(3):
            with pytest.raises(DomainError, match=rf"^evaluation point {shown} outside \[0,1\]$"):
                interp_rows(samples, g, np.array([0.5, point]))
        assert g._plans == {}

    def test_points_that_read_u_are_not_planned(self):
        # A point set that reads u changes from one function to the next:
        # only U(1/4), shared by every function, is planned.
        g = Grid(8)
        h = parse("U(U(1/4)) + INT(DU(U(s)/2))", "functional")
        for slope in (0.1, 0.2, 0.3):
            eval_functional(h, GridFunction.ramp(g, slope))
        assert len(g._plans) == 1


FUNCTIONALS = [
    "U(1/4) + DU(3/4)^2",          # example1
    "INT(U(s)^3 + DU(s))",
    "U(1/4) * cos(DU(3/4))^2",     # example2
    "U(3/4) * sin(DU(1/4))^2",
    "U(U(1/4)) + DU(U(3/4)/2)",    # nested: one point per row
    "INT(U(U(s)) * DU(s/2))",
    "U(1) + DU(1) + U(0) + INT(1) + INT(U(1/3))",
]


class TestFunctionals:
    @given(n=st.integers(2, 64), k=st.integers(1, 6), seed=SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_stack_equals_rows(self, n, k, seed):
        u = cone_stack(Grid(n), seed, k)
        for src in FUNCTIONALS:
            h = parse(src, "functional")
            stacked = eval_functional(h, u)
            assert stacked.shape == (k,)
            for i in range(k):
                single = eval_functional(h, u[i])
                assert isinstance(single, float)
                assert_same(stacked[i], single)

    def test_failing_rows_are_named(self):
        g = Grid(8)
        u = GridFunction.stack([GridFunction.ramp(g, s) for s in (1.0, 0.5, 2.0, 0.5)])
        h = parse("1/(U(1/2) - 0.25)", "functional")  # infinite where u(1/2) = 1/4
        with pytest.raises(EvaluationError) as err:
            eval_functional(h, u)
        assert err.value.rows == (1, 3)
        assert "row 1 of a stack of 4" in str(err.value)
        with pytest.raises(EvaluationError) as err:
            eval_functional(h, u[1])
        assert "row" not in str(err.value)


def assert_cone_stack(u, n, count, norms):
    """u is a C-contiguous (count, n+1) stack of consistent cone functions,
    each with C1 norm norms[i]."""
    assert u.values.shape == u.dvalues.shape == (count, n + 1)
    assert u.values.flags.c_contiguous and u.dvalues.flags.c_contiguous
    assert np.all(in_cone(u))
    # the values integrate the derivative rows, up to the rounding of their sums
    assert np.all(consistency_defect(u) <= 1e-13 * n * c1_norm(u))
    np.testing.assert_allclose(c1_norm(u), norms, rtol=1e-12, atol=0)


class TestSphereFamily:
    @given(n=st.integers(2, 64), k=st.integers(2, 8), rho=st.floats(0.01, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_stack_contract(self, n, k, rho):
        u, params = sphere_family(Grid(n), rho, k)
        count = params.shape[0]
        assert_cone_stack(u, n, count, np.full(count, rho))
        # only a ramp from 0 whose interval holds no node is left out
        assert count == 1 + 2 * k * (k - 1) or n < k - 1

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_row_count(self, k):
        u, params = sphere_family(Grid(256), 1.0, k)
        assert u.values.shape == (1 + 2 * k * (k - 1), 257) == (params.shape[0], 257)

    def test_rows_follow_their_parameters(self):
        # Row i has derivative slope_i on the nodes of [a_i, b_i] and 0 off
        # them, starts from u0_i, and is then scaled to C1 norm rho; the
        # constant rho comes first, and a ramp from 0 needs no scaling.
        g, rho = Grid(256), 2.5
        u, params = sphere_family(g, rho, 10)
        slope, a, b, u0 = params.T
        assert tuple(params[0]) == (0.0, 0.0, 1.0, rho)
        scale = np.max(u.dvalues, axis=1)[1:] / slope[1:]
        inside = (a[:, None] <= g.nodes) & (g.nodes <= b[:, None])
        np.testing.assert_array_equal(u.dvalues, np.where(inside, u.dvalues.max(axis=1)[:, None], 0.0))
        np.testing.assert_allclose(u.values[1:, 0], scale * u0[1:], rtol=1e-15, atol=0)
        from_zero = u0[1:] == 0.0  # 45 pairs, and the ramp of slope rho on [0, 1] twice
        assert from_zero.sum() == 46 and np.all(scale[from_zero] == 1.0)
        np.testing.assert_allclose(u.values[1:, -1][~from_zero], rho, rtol=0.01)
        assert set(slope[1:] / rho) == {1.0, 0.5, 0.25}
        np.testing.assert_allclose(c1_norm(u), rho, rtol=1e-15, atol=0)

    def test_radii_give_blocks_of_rows(self):
        # rho = 0 is the sphere of the zero function: one row, named as such
        g = Grid(32)
        u, params = sphere_family(g, (0.0, 0.5, 2.0), 3)
        assert u.values.shape == (1 + 2 * 13, 33)
        assert not u.values[0].any() and not u.dvalues[0].any()
        assert sphere_row_name(*params[0]) == "the zero function"
        for block, rho in ((1, 0.5), (2, 2.0)):
            one, one_params = sphere_family(g, rho, 3)
            rows = slice(1 + 13 * (block - 1), 1 + 13 * block)
            assert_same(u.values[rows], one.values)
            assert_same(u.dvalues[rows], one.dvalues)
            assert_same(params[rows], one_params)

    @pytest.mark.parametrize("row, name", [
        (0, "the constant 2"),
        (1, "the ramp of slope 2 on [0, 0.5] from u(0) = 0"),
        (4, "the ramp of slope 0.5 on [0, 0.5] from u(0) = 1.75"),
    ])
    def test_row_names_give_the_parameters(self, row, name):
        _, params = sphere_family(Grid(32), 2.0, 3)
        assert sphere_row_name(*params[row]) == name

    def test_coarse_grid_leaves_out_the_zero_rows(self):
        # [1/9, 2/9] holds no node of Grid(4), so its ramp from 0 is zero
        u, params = sphere_family(Grid(4), 1.0, 10)
        assert params.shape[0] < 181
        np.testing.assert_allclose(c1_norm(u), 1.0, rtol=1e-15, atol=0)


class TestApplyT:
    @pytest.mark.parametrize("name", ["example1", "example2"])
    @given(seed=SEEDS, k=st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_focal_stack_equals_rows(self, name, request, seed, k):
        spec = request.getfixturevalue(name)
        u = cone_stack(spec.grid, seed, k)
        w = apply_T(spec, u)
        for i in range(k):
            single = apply_T(spec, u[i])
            assert_same(w.values[i], single.values)
            assert_same(w.dvalues[i], single.dvalues)

    @given(seed=SEEDS, k=st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_expression_kernel_stack_equals_rows(self, seed, k):
        # a kink on the nodes, which only a Kernel of functions can declare
        step = Kernel(k=lambda t, s: np.minimum(s, t),
                      dk=lambda t, s: np.minimum(1.0, np.maximum(0.0, (s - t) * 1e9)))
        spec = unchecked(64, kernel=step, h1="U(1/4) + DU(3/4)^2", h2="INT(U(s)^3 + DU(s))",
                         f="exp(t*(u + v))", lam=0.1, eta1=1 / 11, eta2=1 / 12)
        u = cone_stack(spec.grid, seed, k)
        w = apply_T(spec, u)
        for i in range(k):
            single = apply_T(spec, u[i])
            assert_same(w.values[i], single.values)
            assert_same(w.dvalues[i], single.dvalues)

    def test_non_finite_f_names_rows(self):
        spec = unchecked(16, f="sqrt(1/2 - u)", lam=0.1)
        u = GridFunction.stack([GridFunction.ramp(spec.grid, s) for s in (0.2, 0.9, 0.4, 2.0)])
        with pytest.raises(EvaluationError) as err:
            apply_T(spec, u)
        assert err.value.rows == (1, 3)
        assert "row 1 of a stack of 4" in str(err.value)


def reference_picard(spec, u0, tol, max_iter):
    """The Picard loop on one start, as it ran before starts were stacked."""
    u, residual = u0, np.inf

    def result(status, u, iterations, residual):
        return SolveResult(status, u, iterations, residual, c1_norm(u), in_cone(u))

    for it in range(max_iter):
        try:
            w = apply_T(spec, u)
        except EvaluationError:
            if it == 0:
                raise
            return result("diverged", u, it, residual)
        residual = c1_distance(u, w)
        if residual <= tol:
            return result("converged", u, it + 1, residual)
        if c1_norm(w) > DIVERGENCE_CAP:
            return result("diverged", w, it + 1, residual)
        u = w
    try:
        w = apply_T(spec, u)
    except EvaluationError:  # the residual's application fails: diverged at the cap
        return result("diverged", u, max_iter, residual)
    return result("max-iterations", u, max_iter, c1_distance(u, w))


def reference_multistart(spec, starts, tol, max_iter):
    results = [reference_picard(spec, u0, tol, max_iter)
               for u0 in _start_functions(spec, starts)]
    results.sort(key=lambda res: (res.norm, res.status, res.residual))
    kept = []
    for res in results:
        if res.converged and any(k.converged and c1_distance(res.u, k.u) < 10 * tol for k in kept):
            continue
        kept.append(res)
    return kept


def assert_same_results(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.status, a.iterations, repr(a.residual), repr(a.norm), a.cone_ok) \
            == (b.status, b.iterations, repr(b.residual), repr(b.norm), b.cone_ok)
        assert a.u.grid == b.u.grid and not a.u.is_stack
        assert_same(a.u.values, b.u.values)
        assert_same(a.u.dvalues, b.u.dvalues)


class TestLockstep:
    @pytest.mark.parametrize("name, annulus", [("example1", (1 / 20, 1.0)), ("example1", (None, None)),
                                               ("example2", (None, None))])
    @pytest.mark.parametrize("fewer", range(3))
    def test_multistart_equals_per_start_reference(self, name, annulus, fewer, request):
        spec = request.getfixturevalue(name)
        r, R = annulus
        starts = STARTS - 2 * fewer  # 8, 6 and 4 starts; the last ramp is 10 in each
        got = multistart_solve(spec, starts, 1e-10, 10_000)
        want = reference_multistart(spec, starts, 1e-10, 10_000)
        assert_same_results(got, want)
        if r is not None:  # the test `solve --r --R` applies to every row
            assert [r <= res.norm <= R for res in got] == [r <= res.norm <= R for res in want]
            assert any(res.converged and r <= res.norm <= R for res in got)
        if name == "example1":
            # the ramp-10 start overflows exp on its second application
            # while a smaller start goes on and converges
            assert any(res.status == "diverged" and res.iterations == 1 for res in got)
            assert any(res.converged for res in got)

    def test_max_iterations_equals_reference(self, example1):
        got = multistart_solve(example1, 6, 1e-10, 3)
        assert_same_results(got, reference_multistart(example1, 6, 1e-10, 3))
        assert {res.status for res in got} >= {"max-iterations"}

    def test_residual_overflow_at_the_cap_diverges(self, example1):
        # the ramp-10 start overflows exp on its second application, which
        # at max_iter=1 only measures the residual, and silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = multistart_solve(example1, 8, 1e-10, 1)
        assert_same_results(got, reference_multistart(example1, 8, 1e-10, 1))
        assert [(res.status, res.iterations) for res in got if res.status != "max-iterations"] \
            == [("diverged", 1)]
        assert len(got) == 8

    @pytest.mark.parametrize("slope", [0.0, 0.3, 10.0])
    def test_picard_equals_reference(self, example1, slope):
        u0 = GridFunction.ramp(example1.grid, slope)
        got = _lockstep(example1, GridFunction.stack([u0]), 1e-10, 10_000)[0]
        assert_same_results([got], [reference_picard(example1, u0, 1e-10, 10_000)])

    def test_first_application_error_propagates(self):
        spec = unchecked(32, h1="U(1/4)", h2="DU(3/4)", f="exp(100*t*(u + v))",
                         lam=0.1, eta1=0.1, eta2=0.1)
        with pytest.raises(EvaluationError, match="row"):
            multistart_solve(spec, 8, 1e-10, 10_000)


class TestStackShape:
    def test_rows_and_substacks(self):
        g = Grid(4)
        u = GridFunction.stack([GridFunction.ramp(g, 1.0), GridFunction.zero(g)])
        assert u.is_stack and u.values.flags.c_contiguous
        assert not u[0].is_stack and u[0].values.tolist() == g.nodes.tolist()
        assert u[np.array([False, True])].values.shape == (1, 5)
        assert cone_defect(u).tolist() == [0.0, 0.0]

    def test_mixed_grids_rejected(self):
        with pytest.raises(ShapeError):
            GridFunction.stack([GridFunction.zero(Grid(4)), GridFunction.zero(Grid(8))])

    def test_single_function_has_no_rows(self):
        with pytest.raises(TypeError):
            GridFunction.zero(Grid(4))[0]
