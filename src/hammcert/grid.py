"""Uniform grids on [0,1], sampled C1 candidates, norms and quadrature.

A candidate solution is stored as node samples of u and u' on a uniform
grid.  All integrals in the package reduce to composite trapezoid sums on
these nodes; kernel kinks are handled upstream by splitting at nodes, so
the rules here never need to know about them.  The cone functions that
the sampled bounds and checks evaluate come from one closed-form family,
sphere_family: no sample is random.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import CheckResult, DomainError, ParameterError, ShapeError

# Node values of a cone function, and the samples of every sign check, may
# dip this far below zero before we treat it as a genuine violation rather
# than floating-point noise.
CONE_TOL = 1e-9


def sign_check(name: str, worst: float, at: tuple, axes: dict, where: str) -> CheckResult:
    """The check `name` on the minimum ``worst`` of lattice samples, found at
    index ``at`` of the lattice: a warning names that point (``axes`` maps
    each variable to its axis, one per dimension), a pass reports the
    minimum followed by ``where``."""
    if worst < -CONE_TOL:
        point = ", ".join(f"{var}={ax[i]:.4g}" for (var, ax), i in zip(axes.items(), at))
        return CheckResult(name, "warn", f"min {worst:.3g} at {point}")
    return CheckResult(name, "pass", f"min {worst:.3g} {where}")


class Grid:
    """Uniform partition of [0,1] into n subintervals, nodes t_j = j/n, with
    the read-only trapezoid weights of its nodes; it keeps the
    interpolation plans that interp_rows makes on it."""

    __slots__ = ("n", "h", "nodes", "weights", "_plans")

    def __init__(self, n: int):
        if n < 2:
            raise ParameterError(f"grid needs at least 2 subintervals, got n={n}")
        self.n = int(n)
        self.h = 1.0 / self.n
        self.nodes = np.linspace(0.0, 1.0, self.n + 1)
        self.weights = np.full(self.n + 1, self.h)
        self.weights[[0, -1]] *= 0.5
        self.nodes.flags.writeable = self.weights.flags.writeable = False
        self._plans = {}

    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("Grid", self.n))

    def __repr__(self) -> str:
        return f"Grid(n={self.n})"


class GridFunction:
    """Samples of u and u' on a grid.  Immutable after construction.

    A stack of k functions on one grid is a GridFunction with (k, n+1)
    samples, row i being function i.  Every operation here acts row by
    row on a stack, with the arithmetic it uses on a single function, so
    a single function behaves as a stack of one.

    No one can write the samples of a GridFunction.  The constructor takes
    a read-only float64 C-ordered array that owns its memory as it is: the
    package's builders hand over the arrays they have just made, read-only.
    Anything else, a caller's writeable array or a view, is copied.  A row
    of a stack is a copy too, so that it does not keep the stack alive.
    """

    __slots__ = ("grid", "values", "dvalues")

    def __init__(self, grid: Grid, values, dvalues):
        values, dvalues = _owned(values), _owned(dvalues)
        if (values.ndim not in (1, 2) or values.shape[-1] != grid.n + 1
                or dvalues.shape != values.shape):
            raise ShapeError(
                f"expected {grid.n + 1} samples (or rows of them) for {grid!r}, "
                f"got {values.shape} and {dvalues.shape}"
            )
        self.grid = grid
        self.values = values
        self.dvalues = dvalues

    @classmethod
    def zero(cls, grid: Grid) -> "GridFunction":
        z = _frozen(np.zeros(grid.n + 1))
        return cls(grid, z, z)

    @classmethod
    def ramp(cls, grid: Grid, slope: float) -> "GridFunction":
        """u(t) = slope * t, the canonical cone direction."""
        return cls(grid, _frozen(slope * grid.nodes), _frozen(np.full(grid.n + 1, slope)))

    @classmethod
    def stack(cls, functions) -> "GridFunction":
        """The stack whose row i is functions[i]; all must share one grid."""
        functions = list(functions)
        grids = {u.grid for u in functions}
        if len(grids) != 1:
            raise ShapeError(f"a stack needs functions on one grid, got {sorted(grids, key=repr)}")
        return cls(grids.pop(), _frozen(np.concatenate([np.atleast_2d(u.values) for u in functions])),
                   _frozen(np.concatenate([np.atleast_2d(u.dvalues) for u in functions])))

    @property
    def is_stack(self) -> bool:
        return self.values.ndim == 2

    def __getitem__(self, index) -> "GridFunction":
        """Row ``index`` of a stack, or the sub-stack an index array selects."""
        if not self.is_stack:
            raise TypeError("a single GridFunction has no rows")
        # an index array selects a fresh copy, handed over; an int, a view, is copied
        return GridFunction(self.grid, _frozen(self.values[index]), _frozen(self.dvalues[index]))

    def __repr__(self) -> str:
        if self.is_stack:
            return f"GridFunction(n={self.grid.n}, rows={self.values.shape[0]})"
        return f"GridFunction(n={self.grid.n}, norm={c1_norm(self):.6g})"


def _frozen(samples: np.ndarray) -> np.ndarray:
    """samples, made read-only: how a builder hands a fresh array to a
    GridFunction, which then takes it without a copy."""
    samples.flags.writeable = False
    return samples


def _owned(samples) -> np.ndarray:
    """samples as a read-only float64 C-ordered array that no one can write:
    such an array that owns its memory as it is, a copy of anything else.
    C order keeps every row contiguous, which row sums rely on to round as
    the sum of a single function does."""
    if not (isinstance(samples, np.ndarray) and samples.base is None
            and not samples.flags.writeable and samples.dtype == np.float64
            and samples.flags.c_contiguous):
        samples = _frozen(np.array(samples, dtype=float, order="C"))
    return samples


def _first_max(*values):
    """Python's max(values) elementwise: a later value wins only when it is
    strictly larger, which fixes the result for NaN and for 0.0 vs -0.0.
    A 0-d result comes back as a float."""
    out = values[0]
    for v in values[1:]:
        out = np.where(v > out, v, out)
    return float(out) if np.ndim(out) == 0 else out


def c1_norm(u: GridFunction):
    """Grid approximation of max(||u||_inf, ||u'||_inf); one per row of a stack."""
    return _first_max(np.max(np.abs(u.values), axis=-1), np.max(np.abs(u.dvalues), axis=-1))


def c1_distance(u: GridFunction, w: GridFunction):
    """c1_norm of u - w; both functions (or stacks) must live on the same grid."""
    if u.grid != w.grid:
        raise ShapeError(f"grid mismatch: {u.grid!r} vs {w.grid!r}")
    if u.values.shape != w.values.shape:
        raise ShapeError(f"shape mismatch: {u.values.shape} vs {w.values.shape}")
    gap = np.subtract(u.values, w.values)  # one array for both differences
    dv = np.max(np.abs(gap, out=gap), axis=-1)
    np.subtract(u.dvalues, w.dvalues, out=gap)
    dd = np.max(np.abs(gap, out=gap), axis=-1)
    return _first_max(dv, dd)


def interp_rows(samples: np.ndarray, grid: Grid, a) -> np.ndarray:
    """Row i of the (k, n+1) node samples, linearly interpolated at a[i].

    ``a`` has shape (m,), the same m points for every row, or (k, m) or
    (1, m), points that may differ by row.  The arithmetic is np.interp's:
    slope*(a - t_j) + y_j, the value from the right node when that is NaN,
    and the node sample itself at every node, 1 included.  A point outside
    [0,1], NaN included, is a DomainError.  The check, the intervals and the
    node tests of a shared (m,) point set are planned once and cached on
    the grid.  Run it under np.errstate(all="ignore").
    """
    a = np.asarray(a, dtype=float)
    plan = grid._plans.get(a.tobytes()) if a.ndim == 1 else None
    if plan is None:
        inside = (a >= 0.0) & (a <= 1.0)
        if not inside.all():
            raise DomainError(f"evaluation point {a[~inside][0]} outside [0,1]")
        nodes = grid.nodes
        # a in [0,1] puts j in [0, n]; a = 1 uses the last interval.
        j = np.minimum(nodes.searchsorted(a, side="right") - 1, grid.n - 1)
        x0, x1 = nodes[j], nodes[j + 1]
        plan = (j, x0, x1, a == x0, a == x1)
        if a.ndim == 1:
            grid._plans[a.tobytes()] = plan
    j, x0, x1, at0, at1 = plan
    if j.ndim == 2 and j.shape[0] > 1:
        y0, y1 = np.take_along_axis(samples, j, axis=1), np.take_along_axis(samples, j + 1, axis=1)
    else:  # take() keeps the gathered rows C-contiguous
        y0 = samples.take(j.reshape(-1), axis=1)
        if at0.all():  # every point a node: what the np.where below returns
            return y0
        y1 = samples.take(j.reshape(-1) + 1, axis=1)
    slope = (y1 - y0) / (x1 - x0)
    out = slope * (a - x0) + y0
    nan = np.isnan(out)
    if nan.any():
        right = slope * (a - x1) + y1
        out = np.where(nan, np.where(np.isnan(right) & (y0 == y1), y0, right), out)
    return np.where(at0, y0, np.where(at1, y1, out))


def _check_samples(samples, grid: Grid) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    if samples.ndim not in (1, 2) or samples.shape[-1] != grid.n + 1:
        raise ShapeError(f"expected {grid.n + 1} samples (or rows of them), got {samples.shape}")
    return samples


def integrate(samples, grid: Grid):
    """Composite trapezoid value of the integral over [0,1]; one per row
    of a (k, n+1) stack, whose rows must be C-contiguous to round as a
    single function's sum does."""
    samples = _check_samples(samples, grid)
    out = grid.h * (np.sum(samples, axis=-1) - 0.5 * (samples[..., 0] + samples[..., -1]))
    return float(out) if out.ndim == 0 else out


def cumulative_integral(samples, grid: Grid) -> np.ndarray:
    """Trapezoid antiderivative at every node: F_j = int_0^{t_j} samples,
    along the last axis."""
    samples = _check_samples(samples, grid)
    out = np.empty(samples.shape)
    out[..., 0] = 0.0
    steps = np.add(samples[..., 1:], samples[..., :-1], out=out[..., 1:])
    steps *= 0.5 * grid.h
    np.cumsum(steps, axis=-1, out=steps)
    return out


def cone_defect(u: GridFunction):
    """How far u pokes below the cone: max(0, -min u, -min u')."""
    return _first_max(0.0, -np.min(u.values, axis=-1), -np.min(u.dvalues, axis=-1))


def in_cone(u: GridFunction):
    return cone_defect(u) <= CONE_TOL


def consistency_defect(u: GridFunction):
    """Max over nodes of |u(t_j) - u(0) - int_0^{t_j} u'| (trapezoid)."""
    rebuilt = u.values[..., :1] + cumulative_integral(u.dvalues, u.grid)
    return _first_max(np.max(np.abs(u.values - rebuilt), axis=-1))


def sphere_family(grid: Grid, rho, k: int) -> tuple[GridFunction, np.ndarray]:
    """Cone functions with C1 norm rho in closed form, and the (slope, a, b,
    u(0)) each row is built from; rho is one radius or a sequence of them,
    each giving a block of rows.

    A row has u' = s*rho on the nodes of [a, b] and 0 elsewhere, and starts
    from u(0) = rho*(1 - s*(b - a)), so that u(1) = rho, or from 0.  Row 0,
    s = 0 on [0, 1], is the constant rho; then for each pair a < b of
    np.linspace(0, 1, k) come s = 1 from 0 and s = 1, 1/2, 1/4 from
    rho*(1 - s*(b - a)): 1 + 2k(k-1) rows.  The values are the trapezoid
    antiderivative of u', which rises over the nodes of [a, b] widened by
    h/2 at each end inside [0, 1], and each row is scaled so its C1 norm is
    rho up to rounding, never above it.  A ramp from 0 whose interval holds
    no node (on a grid with n < k - 1) is left out; rho = 0 gives one row,
    row 0, the zero function.
    """
    return next(sphere_slabs(grid, rho, k, None))


def sphere_slabs(grid: Grid, rho, k: int, points):
    """sphere_family(grid, rho, k) slab by slab: its rows in order, as many
    as fit in ``points`` samples at a time and at least one, or all of them
    if ``points`` is None.  Each row is built with the arithmetic of the
    whole family, so the slabs stacked are that family bit for bit."""
    # (s, a, b, u(0)) of each row at rho = 1
    s, a, b, u0 = np.array([(0.0, 0.0, 1.0, 1.0)] + [
        (s, a, b, start * (1.0 - s * (b - a)))
        for a, b in itertools.combinations(np.linspace(0.0, 1.0, k).tolist(), 2)
        for s, start in ((1.0, 0.0), (1.0, 1.0), (0.5, 1.0), (0.25, 1.0))]).T
    # u' = s on the nodes j0..j1, so its trapezoid sums rise by s*h per
    # node from node lo to node hi, half a node beyond each end within [0, n].
    j0, j1 = grid.nodes.searchsorted(a), grid.nodes.searchsorted(b, side="right") - 1
    lo, hi = np.maximum(j0 - 0.5, 0.0), np.minimum(j1 + 0.5, grid.n)
    norm = np.maximum(u0 + s * grid.h * (hi - lo), s * (j0 <= j1))
    # Each output row: its row above (one block per radius, row 0 alone for
    # radius 0) and its radius.
    keep = np.flatnonzero(norm > 0)
    radii = np.atleast_1d(rho)
    sizes = np.where(radii == 0, 1, keep.size)
    row = np.concatenate([keep[:size] for size in sizes])
    r = np.repeat(radii, sizes)
    step = r.size if points is None else max(1, points // (grid.n + 1))
    j = np.arange(grid.n + 1)
    for i in range(0, r.size, step):
        rows, rs = row[i:i + step], r[i:i + step]
        slope, start = rs * s[rows] / norm[rows], rs * u0[rows] / norm[rows]
        values = j - lo[rows, None]
        np.clip(values, 0.0, (hi - lo)[rows, None], out=values)
        values *= (slope * grid.h)[:, None]
        values += start[:, None]
        np.minimum(values, rs[:, None], out=values)  # u(1) = rho may round above it
        dvalues = slope[:, None] * ((j0[rows, None] <= j) & (j <= j1[rows, None]))
        yield (GridFunction(grid, _frozen(values), _frozen(dvalues)),
               np.column_stack((rs * s[rows], a[rows], b[rows], rs * u0[rows])))


def sphere_row_name(slope: float, a: float, b: float, u0: float) -> str:
    """A row of sphere_family (or the zero function, slope 0 from u(0) = 0)
    named by its parameters."""
    if slope == 0:
        return f"the constant {u0:.6g}" if u0 else "the zero function"
    return f"the ramp of slope {slope:.6g} on [{a:.6g}, {b:.6g}] from u(0) = {u0:.6g}"
