"""A stack of functions is evaluated in one pass, bit for bit as its rows
are one at a time: interpolation, functionals, the operator and the
Picard iteration.  A stack of random cone functions is drawn in one
batch, each row from the law of a single draw."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hammcert.errors import EvaluationError, ShapeError
from hammcert.expr import eval_functional, parse
from hammcert.grid import (Grid, GridFunction, c1_distance, c1_norm, cone_defect,
                           consistency_defect, in_cone, interp_rows, random_cone_function)
from hammcert.kernel import Kernel
from hammcert.problem import apply_T, loads_problem
from hammcert.solver import (DIVERGENCE_CAP, STARTS, SolveResult, _lockstep, _start_functions,
                             multistart_solve)

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
    return random_cone_function(grid, rng, norm=rng.uniform(0.05, 1.0, size=k), count=k)


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


class TestRandomDraws:
    @given(n=st.integers(2, 64), count=st.integers(0, 6), seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_stack_contract(self, n, count, seed):
        g = Grid(n)
        norms = np.random.default_rng(seed + 1).uniform(0.01, 10.0, size=count)
        stack = random_cone_function(g, np.random.default_rng(seed), norm=norms, count=count)
        assert_cone_stack(stack, n, count, norms)
        again = random_cone_function(g, np.random.default_rng(seed), norm=norms, count=count)
        assert_same(again.values, stack.values)
        assert_same(again.dvalues, stack.dvalues)

    def test_empty_stack(self):
        u = random_cone_function(Grid(8), np.random.default_rng(0), norm=1.0, count=0)
        assert u.is_stack and u.values.shape == u.dvalues.shape == (0, 9)

    def test_rows_follow_their_knots(self):
        # the draws in the order the stack takes them: knot counts, interior
        # knots, knot slopes, u(0); unused knot slots reach no node.  Row i
        # is interpolated shifted by 3i, which moves its nodes and knots by
        # at most one rounding of 3*count.  Each row is then scaled to C1
        # norm 1, and u(0) gives its scale to a rounding or two.
        n, count = 256, 300
        shift_error = 2 * np.spacing(3.0 * count)
        u = random_cone_function(Grid(n), np.random.default_rng(11), norm=1.0, count=count)
        rng = np.random.default_rng(11)
        k = rng.integers(2, 7, size=count)
        interior = rng.uniform(0.0, 1.0, size=(count, 6))
        slopes = rng.gamma(1.5, 1.0, size=(count, 8))
        u0 = rng.gamma(1.0, 0.5, size=count)
        scale = u.values[:, 0] / u0
        assert set(k) == {2, 3, 4, 5, 6}
        for i in range(count):
            knots = np.concatenate(([0.0], np.sort(interior[i, :k[i]]), [1.0]))
            want = scale[i] * np.interp(Grid(n).nodes, knots, slopes[i, :k[i] + 2])
            steepest = scale[i] * np.max(np.abs(np.diff(slopes[i, :k[i] + 2]) / np.diff(knots)))
            assert np.all(np.abs(u.dvalues[i] - want) <= shift_error * steepest + 2e-15 * want.max())
        last = slopes[np.arange(count), k + 1]
        np.testing.assert_allclose(u.dvalues[:, -1], scale * last, rtol=2e-15, atol=0)
        np.testing.assert_allclose(u.dvalues[:, 0], scale * slopes[:, 0], rtol=2e-15, atol=0)
        np.testing.assert_allclose(c1_norm(u), 1.0, rtol=1e-12, atol=0)

    def test_row_norms(self):
        u = random_cone_function(Grid(32), np.random.default_rng(0), norm=[0.5, 2.0], count=2)
        np.testing.assert_allclose(c1_norm(u), [0.5, 2.0], rtol=1e-12)
        assert in_cone(u).all()


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
