"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criteria 4 and 5 corroborate the two theorems numerically and
carry wall-clock budgets; everything else is exact or toleranced
arithmetic against independently computed values.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from hammcert.bounds import (BoundSet, LinearGrowthWitness, estimate_f_extrema,
                             falsify_linear_growth)
from hammcert.certificate import check_existence, check_nonexistence
from hammcert.expr import eval_functional, eval_nonlinearity, parse, to_source
from hammcert.grid import CONE_TOL, Grid, cone_defect, consistency_defect
from hammcert.kernel import FocalKernel
from hammcert.problem import apply_T
from hammcert.solver import MAX_ITERATIONS, TOL_FIXPOINT, multistart_solve
from hammcert.sweep import axis_values, run_sweep

from grid_checks import consistency_tol, family_rows

E2 = math.exp(2.0)


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS — {text}")


def test_criterion_1_kernel_constants_exact():
    """K = 1/2 and K* = 1 bitwise, for every grid size, in under a millisecond."""
    sizes = list(range(2, 65)) + [100, 128, 256, 333, 512, 1000]
    worst = 0.0
    for n in sizes:
        kernel = FocalKernel()  # fresh instance: no warm cache
        grid = Grid(n)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            K = kernel.K(grid)
            Kstar = kernel.Kstar(grid)
            best = min(best, time.perf_counter() - t0)
        assert K == 0.5, f"n={n}: K={K!r}"
        assert Kstar == 1.0, f"n={n}: K*={Kstar!r}"
        worst = max(worst, best)
    assert worst < 1e-3, f"slowest constant evaluation took {worst * 1e3:.3f} ms"
    _report(1, f"K=0.5 and K*=1.0 exactly for {len(sizes)} grid sizes, "
               f"slowest {worst * 1e6:.0f} us")


def test_criterion_2_example1_existence_certificate(example1):
    cert = check_existence(example1, BoundSet(example1), r=1 / 20, R=1.0)
    value_oracle = E2 / 20 + 2 / 11 + 2 / 12
    deriv_oracle = E2 / 10 + 2 / 12
    assert cert.lhs_value_branch == pytest.approx(value_oracle, abs=1e-9)
    assert cert.lhs_deriv_branch == pytest.approx(deriv_oracle, abs=1e-9)
    assert cert.lhs_idx0 == 1 / 20, "idx0 must sit exactly on the equality"
    assert cert.lower_margin == 0.0
    assert cert.passed, "non-strict lower comparison must accept equality"
    assert cert.verdict == "certified"
    _report(2, f"value branch {cert.lhs_value_branch:.6f}, "
               f"deriv branch {cert.lhs_deriv_branch:.6f}, idx0 == r, certified pass")


def test_criterion_3_example2_nonexistence_certificate(example2):
    cert = check_nonexistence(example2, example2.witness)
    assert cert.lhs == pytest.approx(0.95, abs=1e-12)
    assert cert.passed
    boundary = check_nonexistence(replace(example2, lam=2 / 3, eta1=0.0, eta2=0.0),
                                  example2.witness)
    assert boundary.lhs == 1.0
    assert not boundary.passed, "lhs == 1 must fail the strict comparison"
    _report(3, f"lhs {cert.lhs!r} passes, boundary lhs 1.0 fails strictly")


def test_criterion_4_solver_corroborates_existence(example1):
    assert example1.grid.n == 256
    t0 = time.perf_counter()
    results = multistart_solve(example1, 8, TOL_FIXPOINT, MAX_ITERATIONS)
    elapsed = time.perf_counter() - t0
    good = [res for res in results if res.converged and res.residual <= 1e-10
            and res.cone_ok and 1 / 20 <= res.norm <= 1.0]
    if not good:
        pytest.fail(
            "certificate passes but Picard iteration found no fixed point in the "
            "annulus; the existence theorem is index-theoretic and guarantees no "
            "iteration scheme, so treat this as a solver limitation, not a "
            "contradiction of the certificate"
        )
    for res in good:
        assert cone_defect(res.u) <= CONE_TOL
        assert consistency_defect(res.u) <= consistency_tol(example1.grid.n)
    assert elapsed < 10.0, f"solve took {elapsed:.1f}s"
    _report(4, f"fixed point with norm {good[0].norm:.6f} in [1/20, 1], "
               f"residual {good[0].residual:.2e}, {elapsed:.2f}s")


def test_criterion_5_solver_corroborates_nonexistence(example2):
    t0 = time.perf_counter()
    results = multistart_solve(example2, 50, TOL_FIXPOINT, MAX_ITERATIONS)
    elapsed = time.perf_counter() - t0
    assert results, "multistart returned nothing"
    assert all(res.converged for res in results), \
        [(res.status, res.norm) for res in results if not res.converged]
    worst = max(res.norm for res in results)
    assert worst <= 1e-8, f"found a purportedly nontrivial fixed point, norm {worst}"
    assert elapsed < 30.0, f"solve took {elapsed:.1f}s"
    _report(5, f"{len(results)} distinct results from 50 starts, all trivial "
               f"(max norm {worst:.2e}), {elapsed:.2f}s")


@pytest.mark.parametrize("which", ["example1", "example2"])
def test_criterion_6_cone_invariance(which, request):
    # inputs drawn from the ball ||u|| <= R = 1 that the certificates address;
    # the defect of the integral term scales with the oscillation of f along
    # the input, so an absolute tolerance only makes sense on that ball
    spec = request.getfixturevalue(which)
    rng = np.random.default_rng(0)
    tol = consistency_tol(spec.grid.n)
    worst_cone, worst_consist = 0.0, 0.0
    for _ in range(200):
        u = family_rows(spec.grid, rng, [rng.uniform(0.02, 1.0)])[0]
        w = apply_T(spec, u)
        worst_cone = max(worst_cone, cone_defect(w))
        worst_consist = max(worst_consist, consistency_defect(w))
    assert worst_cone <= CONE_TOL
    assert worst_consist <= tol
    _report(6, f"{which}: 200 sphere-family inputs stay in the cone "
               f"(defect {worst_cone:.1e}) and consistent (defect {worst_consist:.1e} "
               f"<= {tol:.1e})")


def test_criterion_7_bounds_sanity(example1, example2):
    max_est, min_est = (estimate_f_extrema(example1, 1.0, upward) for upward in (True, False))
    assert 7.0 <= max_est <= E2
    assert 1.0 <= min_est <= 1.01
    ok = falsify_linear_growth(example2, example2.witness)
    assert ok.consistent
    bad = falsify_linear_growth(example1, LinearGrowthWitness(3.0, 1.0, 1.0))
    assert not bad.consistent
    t, u, v = bad.counterexample.point
    assert eval_nonlinearity(example1.f, t, u, v) > 3.0 * u
    _report(7, f"f extrema ({max_est:.4f}, {min_est:.4f}) in range; tau=3 confirmed "
               f"for the oscillatory f and refuted for the exponential one at {bad.counterexample.point}")


def test_criterion_8_sweep_reproduction(example2):
    ax = axis_values(0.0, 1.0, 20)
    t0 = time.perf_counter()
    table = run_sweep(BoundSet(example2), ax, ax, ax, r=1 / 20, R=1.0, witness=example2.witness)
    elapsed = time.perf_counter() - t0
    assert len(table) == 8000
    assert "conflict" not in table["classification"]
    nonexistence = table["classification"] == "nonexistence"
    expected = (3 / 2) * table["lambda"] + table["eta1"] + table["eta2"] < 1
    mismatches = np.count_nonzero(nonexistence != expected)
    assert not mismatches, f"{mismatches} cells disagree with the closed-form inequality"
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    certified = np.count_nonzero(nonexistence)
    _report(8, f"20^3 sweep: {certified} nonexistence cells match (3/2)l+e1+e2<1 "
               f"exactly, no conflicts, {elapsed:.1f}s")


def test_criterion_9_parser_suite(example1):
    sources = [
        ("exp(t*(u + v))", "nonlinearity"),
        ("U(0.25) + DU(0.75)^2", "functional"),
        ("u*(2 - t*sin(u*v))", "nonlinearity"),
    ]
    for src, role in sources:
        ast = parse(src, role)
        printed = to_source(ast)
        assert parse(printed, role) == ast
        assert to_source(parse(printed, role)) == printed
    f1 = parse(sources[0][0], "nonlinearity")
    assert eval_nonlinearity(f1, 1.0, 1.0, 1.0) == pytest.approx(E2, abs=1e-9)
    assert eval_nonlinearity(f1, 0.0, 4.2, 3.3) == pytest.approx(1.0, abs=1e-9)
    f2 = parse(sources[2][0], "nonlinearity")
    assert eval_nonlinearity(f2, 0.5, 1.0, 0.0) == pytest.approx(2.0, abs=1e-9)
    grid = Grid(256)
    from hammcert.grid import GridFunction
    ramp = GridFunction.ramp(grid, 1.0)
    h1 = parse(sources[1][0], "functional")
    assert eval_functional(h1, ramp) == pytest.approx(1.25, abs=1e-9)
    h2 = parse("INT(U(s)^3 + DU(s))", "functional")
    assert eval_functional(h2, ramp) == pytest.approx(1.25, abs=1e-3)
    _report(9, "the worked-example expressions re-parse stably and match "
               "hand-computed values at 1e-9 / 1e-3")
