"""Fixed points of T by Picard iteration, with cone checks.

Successive substitution is the only solve primitive: the operator is
positive on the cone and, at the feasible parameters the certificates
accept, the iteration contracts in practice.  The existence theorem is
index-theoretic and promises nothing about Picard, so failure to converge
is reported explicitly (diverged / max-iterations) rather than treated as
evidence against a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ParameterError
from .grid import (CONE_TOL, GridFunction, c1_distance, c1_norm, cone_defect, in_cone,
                   random_cone_function)
from .problem import ProblemSpec, apply_T

TOL_FIXPOINT = 1e-10
MAX_ITERATIONS = 10_000
DIVERGENCE_CAP = 1e8


@dataclass(frozen=True)
class SolveResult:
    status: str  # 'converged' | 'max-iterations' | 'diverged'
    u: GridFunction
    iterations: int
    residual: float  # c1_norm(u - Tu) for the returned u (stale if diverged)
    norm: float
    cone_ok: bool

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _result(status: str, u: GridFunction, iterations: int, residual: float) -> SolveResult:
    return SolveResult(status, u, iterations, float(residual), c1_norm(u), in_cone(u))


@np.errstate(over="ignore", invalid="ignore")  # an overflowing row diverges, silently
def _lockstep(spec: ProblemSpec, starts: GridFunction, tol: float,
              max_iter: int) -> list[SolveResult]:
    """Picard from every row of the stack at once, one result per row.

    Each row leaves the active stack when it converges or diverges, so it
    runs exactly the iterations it would run alone.  An EvaluationError
    names the rows it hit: those diverge with their last residual, and the
    application is repeated for the rest, the last one included: after the
    cap, one more application only measures the residual of each row left.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ParameterError(f"tolerance must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ParameterError(f"iteration cap must be at least 1, got {max_iter}")
    defect = cone_defect(starts)
    if np.any(defect > CONE_TOL):
        raise ParameterError(
            f"start function leaves the cone by {defect[np.argmax(defect > CONE_TOL)]:.3g}"
        )
    results: list[SolveResult | None] = [None] * starts.values.shape[0]
    active = np.arange(starts.values.shape[0])
    u = starts
    residual = np.full(active.size, np.inf)
    for it in range(max_iter + 1):
        while active.size:
            try:
                w = apply_T(spec, u)
                break
            except EvaluationError as exc:
                if it == 0:
                    raise
                failed = (np.isin(np.arange(active.size), exc.rows) if exc.rows
                          else np.ones(active.size, dtype=bool))
                for i in np.flatnonzero(failed):
                    results[active[i]] = _result("diverged", u[i], it, residual[i])
                active, u, residual = active[~failed], u[~failed], residual[~failed]
        if not active.size:
            break
        residual = c1_distance(u, w)
        if it == max_iter:
            for i in range(active.size):
                results[active[i]] = _result("max-iterations", u[i], max_iter, residual[i])
            break
        converged = residual <= tol
        diverged = ~converged & (c1_norm(w) > DIVERGENCE_CAP)
        for i in np.flatnonzero(converged):
            results[active[i]] = _result("converged", u[i], it + 1, residual[i])
        for i in np.flatnonzero(diverged):
            results[active[i]] = _result("diverged", w[i], it + 1, residual[i])
        going = ~(converged | diverged)
        active, u, residual = active[going], w[going], residual[going]
    return results


def _start_functions(spec: ProblemSpec, starts: int, rng: np.random.Generator) -> GridFunction:
    """The stack of starts: zero, log-spaced ramps, then random cone functions
    with norms 10^U(-2, 1), drawn in one batch."""
    grid = spec.grid
    n_ramps = max(1, (starts - 1) // 2) if starts > 1 else 0
    n_random = starts - 1 - n_ramps
    ramps = [GridFunction.ramp(grid, rho) for rho in np.logspace(-2, 1, n_ramps)]
    norms = 10.0 ** rng.uniform(-2, 1, size=n_random)
    return GridFunction.stack([GridFunction.zero(grid), *ramps,
                               random_cone_function(grid, rng, norm=norms, count=n_random)])


def multistart_solve(spec: ProblemSpec, starts: int = 8, seed: int = 0,
                     tol: float = TOL_FIXPOINT,
                     max_iter: int = MAX_ITERATIONS) -> list[SolveResult]:
    """Picard from the zero start, log-spaced ramps, and random cone starts.

    All starts iterate in lockstep as one stack, each with the result it
    would reach alone.  Converged results within c1 distance 10*tol of an
    already kept one are dropped as numerical twins.  Output is sorted by
    norm, so the aggregation order does not depend on scheduling.
    """
    if starts < 1:
        raise ParameterError(f"need at least one start, got {starts}")
    rng = np.random.default_rng(seed)
    results = _lockstep(spec, _start_functions(spec, starts, rng), tol, max_iter)
    results.sort(key=lambda res: (res.norm, res.status, res.residual))
    kept: list[SolveResult] = []
    for res in results:
        if res.converged and any(
            k.converged and c1_distance(res.u, k.u) < 10 * tol for k in kept
        ):
            continue
        kept.append(res)
    return kept
