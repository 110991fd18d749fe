"""Certificate inputs, each tagged with its rigor, and the one rigor rule.

The existence certificate needs an upper bound on the max of f over
[0,1] x [0,rho]^2, a lower bound on its min, and upper bounds on the
functional suprema H_i over the sphere of cone functions with C1 norm rho.
Lattice and sphere sampling bound these extrema from the *wrong* side, so
sampled values are always labelled heuristic (and nudged by a safety
factor before use); the certified label is reserved for closed-form bounds
declared in the problem file, which is how the worked examples supply them.
BoundSet also resolves the constants K, K*, gamma_i(1), ||gamma_i'|| and
the growth witness, and BoundSet.rigor is the only rule that names what
caps a certificate: the inputs it used that are not certified, and the
load's failed hypothesis checks.

The sampled f extrema scan LATTICE_M^3 lattices through expr.lattice_extrema,
slab by slab along t, so no lattice-sized array is ever built.
functionals_on_sphere evaluates h_i on sphere_family rows likewise, in
slabs of whole rows of at most LATTICE_SLAB samples, for a sampled H_i
(181 rows), the falsifier's h_i check (25 rows per radius) and the
load's check (40 rows), so no stack grows with n: one estimate_H on
example1 at n = 4096 peaked at 12.1 MiB for h1 and 22.6 MiB for h2 as
one stack, 0.54 MiB in slabs of 3 rows.  An error in any slab is raised
as the whole stack raises it.  A sampled bound that is not finite names
its slot and radius, and the lattice point where it overflowed or the
parameters of the sphere_family row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError, ParameterError
from .expr import (LATTICE_SLAB, Expr, eval_bound, eval_functional, eval_nonlinearity, labelled,
                   lattice_extrema, variables)
from .grid import CONE_TOL, GridFunction, c1_norm, sphere_family, sphere_row_name, sphere_slabs

DEFAULT_INFLATION = 1.05
# The one sampling budget: lattice size for f, sphere_family knots per H_i,
# for the load's h_i check and for the falsifier's, falsifier points.
LATTICE_M = 64
CONE_KNOTS = 10
CHECK_KNOTS = 3
FALSIFY_KNOTS = 4
FALSIFY_POINTS = 4096


@dataclass(frozen=True)
class BoundEntry:
    """One certificate input: its value, its raw (pre-inflation) estimate,
    its rigor tag and its name."""

    value: float
    raw: float
    rigor: str  # 'certified' | 'heuristic'
    name: str


def _tagged(name: str, value: float, certified: bool) -> BoundEntry:
    return BoundEntry(value, value, "certified" if certified else "heuristic", name)


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


def estimate_f_extrema(spec, rho: float, upward: bool) -> float:
    """Sampled max of f over [0,1] x [0,rho]^2 if ``upward``, else its min,
    on one LATTICE_M^3 lattice.

    The max estimate is a *lower* bound of the true max and the min estimate
    an *upper* bound of the true min: heuristic direction, by construction.
    """
    if rho <= 0:
        raise ParameterError(f"rho must be positive, got {rho}")
    axes = [np.linspace(0.0, end, LATTICE_M) for end in (1.0, rho, rho)]
    lo, _, hi, _ = lattice_extrema(spec.f, *axes)
    return hi if upward else lo


def estimate_H(spec, i: int, rho: float) -> float:
    """Heuristic sup of h_i over the sphere_family of CONE_KNOTS knots at rho."""
    if i not in (1, 2):
        raise ParameterError(f"functional index must be 1 or 2, got {i}")
    if rho <= 0:
        raise ParameterError(f"rho must be positive, got {rho}")
    values, _, _ = functionals_on_sphere((spec.h1 if i == 1 else spec.h2,), spec.grid, rho,
                                         CONE_KNOTS)
    return float(values[0, np.argmax(values[0])])  # the first maximum, as max() picks


def functional_on_samples(h: Expr, u: GridFunction, params: np.ndarray) -> np.ndarray:
    """eval_functional(h, u) on a stack of cone samples, row i built from
    params[i] as sphere_family builds it.  A non-finite value names the entry
    of h, the parameters of the first row it occurs on and that row's C1 norm."""
    try:
        return eval_functional(h, u)
    except EvaluationError as exc:
        row = exc.rows[0]
        message = f"non-finite on {sphere_row_name(*params[row])} (C1 norm {c1_norm(u[row]):.6g})"
        raise EvaluationError(labelled(h, message), rows=exc.rows) from exc


def functionals_on_sphere(hs, grid, rho, knots: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each functional of ``hs`` on sphere_family(grid, rho, knots), built and
    evaluated slab by slab (grid.sphere_slabs, at most LATTICE_SLAB samples
    each): the (len(hs), rows) values, the (rows, 4) row parameters and
    each row's sup u.

    A non-finite value or a point outside [0,1] in any slab raises the
    error the whole stack raises: the whole family is then built and
    evaluated, each functional in turn, each naming the first row of its
    own tree walk."""
    values, params, sups = [], [], []
    try:
        for u, p in sphere_slabs(grid, rho, knots, LATTICE_SLAB):
            values.append([functional_on_samples(h, u, p) for h in hs])
            params.append(p)
            sups.append(np.max(u.values, axis=1))
    except (DomainError, EvaluationError):
        u, p = sphere_family(grid, rho, knots)
        for h in hs:
            functional_on_samples(h, u, p)
        raise
    return np.concatenate(values, axis=1), np.concatenate(params), np.concatenate(sups)


def falsify_linear_growth(spec, witness: LinearGrowthWitness) -> FalsificationResult:
    """Try to refute 0 <= f <= tau*u and h_i[u] <= xi_i * sup|u|.

    For rho = 1, 2, 4, 8 in turn, checks f on a lattice of
    FALSIFY_POINTS // 4 points of [0,1] x [0,rho]^2 (2m t-values by m x m
    in (u,v)), then h_i on the sphere_family of FALSIFY_KNOTS knots at rho.
    Returns the first violation found.
    """
    m = round((FALSIFY_POINTS / 8) ** (1 / 3))
    checked = 0
    for rho in (1.0, 2.0, 4.0, 8.0):
        u_ax = np.linspace(0.0, rho, m)
        lattice = np.stack(np.meshgrid(np.linspace(0.0, 1.0, 2 * m), u_ax, u_ax, indexing="ij"),
                           axis=-1).reshape(-1, 3)
        checked += len(lattice)
        ce = (_check_growth_points(spec, witness, lattice)
              or _check_functionals(spec, witness, rho, FALSIFY_KNOTS))
        if ce is not None:
            return FalsificationResult(False, ce, checked)
    return FalsificationResult(True, None, checked)


def _check_functionals(spec, witness, rho: float, knots: int) -> Counterexample | None:
    """The first row of sphere_family(spec.grid, rho, knots), and in it the
    first h_i, with h_i[u] > xi_i * sup u + CONE_TOL, named by its row; a
    non-finite h_i names entry and row."""
    values, params, sup = functionals_on_sphere((spec.h1, spec.h2), spec.grid, rho, knots)
    xi = np.array([[witness.xi1], [witness.xi2]])
    with np.errstate(all="ignore"):  # xi*sup may overflow to inf, which bounds nothing
        bad = values > xi * sup + CONE_TOL
    if not bad.any():
        return None
    row = int(np.argmax(bad.any(axis=0)))
    i = int(np.argmax(bad[:, row]))
    value, bound = float(values[i, row]), float(xi[i, 0] * sup[row])
    return Counterexample(f"h{i + 1}", None, value, bound,
                          f"h{i + 1}[{sphere_row_name(*params[row])}] = {value:.6g} "
                          f"> xi{i + 1}*sup u = {bound:.6g}")


def _check_growth_points(spec, witness, pts) -> Counterexample | None:
    t, u, v = pts[:, 0], pts[:, 1], pts[:, 2]
    fv = np.broadcast_to(eval_nonlinearity(spec.f, t, u, v), t.shape)  # f may be constant
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
    """Every certificate input of one problem as a BoundEntry, and the one
    place its rigor is tagged.

    A bound slot (f_upper, f_lower or H_i, in rho) that ``spec.bounds``
    declares is certified.  Any other is sampled at each lookup and heuristic,
    the safety factor applied: f by one LATTICE_M^3 lattice, H_i by the
    sphere_family of CONE_KNOTS knots on ||u|| = rho.  K and K* are certified iff
    Kernel.exact; gamma_i(1) and a declared witness are; ||gamma_i'||, a node
    maximum, is iff gamma_i' is free of t, as only then is it the supremum.
    """

    def __init__(self, spec):
        self.spec = spec

    def _declared(self, expr: Expr, rho: float, label: str) -> BoundEntry:
        try:
            val = eval_bound(expr, rho)
        except EvaluationError as exc:
            raise EvaluationError(f"declared bound {label}({rho}): {exc}") from exc
        if val < 0:
            raise ParameterError(f"declared bound {label}({rho}) = {val} is negative")
        return _tagged(f"{label}({rho})", val, True)

    def _resolve(self, slot: str, rho: float, upward: bool) -> BoundEntry:
        expr = self.spec.bounds.get(slot)
        if expr is not None:
            return self._declared(expr, rho, slot)
        try:
            raw = (estimate_H(self.spec, int(slot[1]), rho) if slot in ("h1", "h2")
                   else estimate_f_extrema(self.spec, rho, upward))
        except (EvaluationError, DomainError) as exc:
            raise type(exc)(f"sampled bound {slot}({rho}): {exc}") from exc
        return BoundEntry(_widened(raw, upward), raw, "heuristic", f"{slot}({rho})")

    def f_upper(self, rho: float) -> BoundEntry:
        return self._resolve("f_upper", rho, upward=True)

    def f_lower(self, rho: float) -> BoundEntry:
        return self._resolve("f_lower", rho, upward=False)

    def h_upper(self, i: int, rho: float) -> BoundEntry:
        if i not in (1, 2):
            raise ParameterError(f"functional index must be 1 or 2, got {i}")
        return self._resolve(f"h{i}", rho, upward=True)

    def constants(self) -> tuple[BoundEntry, ...]:
        """K, K*, gamma_1(1), gamma_2(1), ||gamma_1'|| and ||gamma_2'||."""
        spec, exact = self.spec, self.spec.kernel.exact
        g1, g2, dg1, dg2 = spec.coefficients
        return (_tagged("K", spec.kernel.K(spec.grid), exact),
                _tagged("Kstar", spec.kernel.Kstar(spec.grid), exact),
                _tagged("gamma1(1)", float(g1[-1]), True), _tagged("gamma2(1)", float(g2[-1]), True),
                _tagged("sup|gamma1'|", float(np.max(np.abs(dg1))), not variables(spec.dgamma1)),
                _tagged("sup|gamma2'|", float(np.max(np.abs(dg2))), not variables(spec.dgamma2)))

    def witness(self, w: LinearGrowthWitness) -> tuple[BoundEntry, ...]:
        return tuple(_tagged(key, getattr(w, key), True) for key in ("tau", "xi1", "xi2"))

    def rigor(self, entries) -> tuple[str, ...]:
        """The names that cap the rigor of a certificate built from
        ``entries``: each entry that is not certified, then each load check
        that failed.  The certificate is 'certified' iff there are none."""
        return (tuple(e.name for e in entries if e.rigor != "certified")
                + tuple(row.name for row in self.spec.warnings))
