"""Certificate inputs: extrema of the nonlinearity and functional suprema.

The existence certificate needs an upper bound on the max of f over
[0,1] x [0,rho]^2, a lower bound on its min, and upper bounds on the
functional suprema H_i over the sphere of cone functions with C1 norm rho.
Lattice and sphere sampling bound these extrema from the *wrong* side, so
sampled values are always labelled heuristic (and nudged by a safety
factor before use); the certified label is reserved for closed-form bounds
declared in the problem file, which is how the worked examples supply them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError, IncompleteBoundsError, ParameterError
from .expr import Expr, eval_bound, eval_functional, eval_nonlinearity
from .grid import CONE_TOL, GridFunction, c1_norm, random_cone_function

DEFAULT_INFLATION = 1.05


@dataclass(frozen=True)
class BoundEntry:
    """One bound value with its raw (pre-inflation) estimate and rigor tag."""

    value: float
    raw: float
    rigor: str  # 'certified' | 'heuristic'


@dataclass(frozen=True)
class LinearGrowthWitness:
    """Constants tau, xi_1, xi_2 for the non-existence certificate:
    f(t,u,v) <= tau*u everywhere and h_i[u] <= xi_i * sup|u| on the cone."""

    tau: float
    xi1: float
    xi2: float

    def __post_init__(self):
        for name, val in (("tau", self.tau), ("xi1", self.xi1), ("xi2", self.xi2)):
            if val < 0:
                raise ParameterError(f"witness {name} must be non-negative, got {val}")


@dataclass(frozen=True)
class Counterexample:
    kind: str  # 'f-negative' | 'f-growth' | 'h1' | 'h2'
    point: tuple | None  # (t, u, v) for the f kinds
    value: float
    bound: float
    detail: str


@dataclass(frozen=True)
class FalsificationResult:
    consistent: bool
    counterexample: Counterexample | None
    points_checked: int


def estimate_f_extrema(spec, rho: float, m: int = 64) -> tuple[float, float]:
    """Sampled (max, min) of f over [0,1] x [0,rho]^2.

    An m^3 lattice scan followed by one coordinate refinement pass around
    the best cell of each extremum.  The max estimate is a *lower* bound of
    the true max and the min estimate an *upper* bound of the true min:
    heuristic direction, by construction.
    """
    if rho <= 0:
        raise ParameterError(f"rho must be positive, got {rho}")
    if m < 2:
        raise ParameterError(f"lattice size must be at least 2, got {m}")
    axes = (np.linspace(0.0, 1.0, m), np.linspace(0.0, rho, m), np.linspace(0.0, rho, m))
    vals = eval_nonlinearity(spec.f, axes[0][:, None, None], axes[1][None, :, None],
                             axes[2][None, None, :])
    vals = np.broadcast_to(np.asarray(vals), (m, m, m))
    max_est = _refined_extremum(spec, axes, vals, rho, m, sign=+1)
    min_est = _refined_extremum(spec, axes, vals, rho, m, sign=-1)
    return max_est, min_est


def _refined_extremum(spec, axes, vals, rho, m, sign) -> float:
    flat = sign * vals
    idx = np.unravel_index(int(np.argmax(flat)), vals.shape)
    best = float(vals[idx])
    uppers = (1.0, rho, rho)
    local = []
    for axis, i, hi in zip(axes, idx, uppers):
        cell = hi / (m - 1)
        local.append(np.linspace(max(0.0, axis[i] - cell), min(hi, axis[i] + cell), m))
    fine = eval_nonlinearity(spec.f, local[0][:, None, None], local[1][None, :, None],
                             local[2][None, None, :])
    fine = np.broadcast_to(np.asarray(fine), (m, m, m))
    refined = float(np.max(sign * fine)) * sign
    return max(best, refined) if sign > 0 else min(best, refined)


def sphere_family(spec, rho: float, samples: int, rng: np.random.Generator) -> GridFunction:
    """A stack of cone functions with C1 norm exactly rho, drawn from the sphere.

    The rows are the ramp rho*t, the constant rho (derivative zero, still
    attains ||u|| = rho), and ``samples`` rescaled random non-decreasing
    functions.
    """
    grid = spec.grid
    n1 = grid.n + 1
    return GridFunction.stack([
        GridFunction.ramp(grid, rho),
        GridFunction(grid, np.full(n1, rho), np.zeros(n1)),
        random_cone_function(grid, rng, norm=rho, count=samples),
    ])


def estimate_H(spec, i: int, rho: float, samples: int = 200, seed: int = 0) -> float:
    """Heuristic sup of h_i over the sphere of cone functions with norm rho."""
    if i not in (1, 2):
        raise ParameterError(f"functional index must be 1 or 2, got {i}")
    if rho <= 0:
        raise ParameterError(f"rho must be positive, got {rho}")
    h = spec.h1 if i == 1 else spec.h2
    rng = np.random.default_rng([seed, i])
    values = eval_functional(h, sphere_family(spec, rho, samples, rng))
    return float(values[np.argmax(values)])  # the first maximum, as max() picks


def falsify_linear_growth(spec, witness: LinearGrowthWitness, budget: int = 4096,
                          seed: int = 0) -> FalsificationResult:
    """Try to refute 0 <= f <= tau*u and h_i[u] <= xi_i * sup|u|.

    Samples lattices plus random points over expanding boxes [0, 2^k]^2 in
    (u,v), and random cone functions on matching spheres, until the point
    budget runs out or a violation turns up.  Returns the first violating
    point found (deterministic for a fixed seed).
    """
    if budget < 1:
        raise ParameterError(f"budget must be at least 1, got {budget}")
    rng = np.random.default_rng(seed)
    m = 8
    checked = 0
    k = 0
    while checked < budget:
        rho = 2.0**k
        t_ax = np.linspace(0.0, 1.0, m)
        u_ax = np.linspace(0.0, rho, m)
        lattice = np.stack(np.meshgrid(t_ax, u_ax, u_ax, indexing="ij"), axis=-1).reshape(-1, 3)
        rand = rng.random((m**3, 3)) * np.array([1.0, rho, rho])
        for pts in (lattice, rand):
            ce = _check_growth_points(spec, witness, pts)
            checked += len(pts)
            if ce is not None:
                return FalsificationResult(False, ce, checked)
        ce = _check_functionals(spec, witness, random_cone_function(
            spec.grid, rng, norm=rho, count=4))
        if ce is not None:
            return FalsificationResult(False, ce, checked)
        k += 1
    return FalsificationResult(True, None, checked)


def _check_functionals(spec, witness, u: GridFunction) -> Counterexample | None:
    """The first row of the stack, and in it the first h_i, with
    h_i[u] > xi_i * sup u + CONE_TOL."""
    checks = ((1, spec.h1, witness.xi1), (2, spec.h2, witness.xi2))
    try:
        values = [eval_functional(h, u) for _, h, _ in checks]
    except (DomainError, EvaluationError):
        values = None  # evaluate row by row below, so the first failure in order surfaces
    for row in range(u.values.shape[0]):
        u_fn = u[row]
        sup = float(np.max(u_fn.values))
        for k, (i, h, xi) in enumerate(checks):
            hv = float(values[k][row]) if values is not None else eval_functional(h, u_fn)
            if hv > xi * sup + CONE_TOL:
                return Counterexample(
                    kind=f"h{i}",
                    point=None,
                    value=hv,
                    bound=xi * sup,
                    detail=f"cone function with C1 norm {c1_norm(u_fn):.6g}, sup {sup:.6g}",
                )
    return None


def _check_growth_points(spec, witness, pts) -> Counterexample | None:
    t, u, v = pts[:, 0], pts[:, 1], pts[:, 2]
    fv = np.asarray(eval_nonlinearity(spec.f, t, u, v))
    bad = (fv < -CONE_TOL) | (fv > witness.tau * u + CONE_TOL)
    if not bad.any():
        return None
    j = int(np.argmax(bad))
    point = (float(t[j]), float(u[j]), float(v[j]))
    if fv[j] < -CONE_TOL:
        return Counterexample("f-negative", point, float(fv[j]), 0.0,
                              f"f{point} = {fv[j]:.6g} < 0")
    return Counterexample("f-growth", point, float(fv[j]), float(witness.tau * u[j]),
                          f"f{point} = {fv[j]:.6g} > tau*u = {witness.tau * u[j]:.6g}")


def _widened(raw: float, upward: bool) -> float:
    """raw moved by (DEFAULT_INFLATION - 1) * |raw|, up for an upper bound
    and down for a lower one, whatever the sign of raw."""
    return raw * (DEFAULT_INFLATION if (raw >= 0) == upward else 2.0 - DEFAULT_INFLATION)


class BoundSet:
    """f_upper, f_lower and H_i as functions of rho, each tagged with rigor.

    Declared closed-form expressions (in the variable rho) yield certified
    entries.  After ``with_sampler`` a slot without a declaration is
    sampled once per rho and comes back heuristic, with the safety factor
    applied to the raw estimate; without a sampler a missing slot raises
    IncompleteBoundsError.  The heuristic sampler draws from the sphere
    ||u|| = rho, which is what the definition of H_i prescribes.
    """

    def __init__(self, f_upper: Expr | None = None, f_lower: Expr | None = None,
                 h1: Expr | None = None, h2: Expr | None = None):
        self._exprs = {"f_upper": f_upper, "f_lower": f_lower, "h1": h1, "h2": h2}
        self._sampling = None  # (spec, m, samples, seed) once with_sampler attached one
        self._sampled: dict = {}  # (slot, rho) -> heuristic BoundEntry

    def with_sampler(self, spec, m: int = 64, samples: int = 200, seed: int = 0) -> "BoundSet":
        out = BoundSet(**self._exprs)
        out._sampling = (spec, m, samples, seed)
        return out

    def _declared(self, expr: Expr, rho: float, label: str) -> BoundEntry:
        val = eval_bound(expr, rho)
        if val < 0:
            raise ParameterError(f"declared bound {label}({rho}) = {val} is negative")
        return BoundEntry(val, val, "certified")

    def _resolve(self, slot: str, rho: float, upward: bool) -> BoundEntry:
        expr = self._exprs[slot]
        if expr is not None:
            return self._declared(expr, rho, slot)
        if self._sampling is None:
            raise IncompleteBoundsError(f"no declared {slot} bound and no sampler attached")
        key = (slot, rho)
        if key not in self._sampled:
            spec, m, samples, seed = self._sampling
            if slot in ("h1", "h2"):
                raw = estimate_H(spec, int(slot[1]), rho, samples, seed)
            else:
                raw = estimate_f_extrema(spec, rho, m)[0 if upward else 1]
            self._sampled[key] = BoundEntry(_widened(raw, upward), raw, "heuristic")
        return self._sampled[key]

    def f_upper(self, rho: float) -> BoundEntry:
        return self._resolve("f_upper", rho, upward=True)

    def f_lower(self, rho: float) -> BoundEntry:
        return self._resolve("f_lower", rho, upward=False)

    def h_upper(self, i: int, rho: float) -> BoundEntry:
        if i not in (1, 2):
            raise ParameterError(f"functional index must be 1 or 2, got {i}")
        return self._resolve(f"h{i}", rho, upward=True)
