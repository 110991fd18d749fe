"""Uniform grids on [0,1], sampled C1 candidates, norms and quadrature.

A candidate solution is stored as node samples of u and u' on a uniform
grid.  All integrals in the package reduce to composite trapezoid sums on
these nodes; kernel kinks are handled upstream by splitting at nodes, so
the rules here never need to know about them.
"""

from __future__ import annotations

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
    """Uniform partition of [0,1] into n subintervals, nodes t_j = j/n."""

    __slots__ = ("n", "h", "nodes")

    def __init__(self, n: int):
        if n < 2:
            raise ParameterError(f"grid needs at least 2 subintervals, got n={n}")
        self.n = int(n)
        self.h = 1.0 / self.n
        nodes = np.linspace(0.0, 1.0, self.n + 1)
        nodes.flags.writeable = False
        self.nodes = nodes

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
    """

    __slots__ = ("grid", "values", "dvalues")

    def __init__(self, grid: Grid, values, dvalues):
        # C order keeps every row contiguous, which row sums rely on to
        # round as the sum of a single function does.
        values = np.array(values, dtype=float, order="C")
        dvalues = np.array(dvalues, dtype=float, order="C")
        if (values.ndim not in (1, 2) or values.shape[-1] != grid.n + 1
                or dvalues.shape != values.shape):
            raise ShapeError(
                f"expected {grid.n + 1} samples (or rows of them) for {grid!r}, "
                f"got {values.shape} and {dvalues.shape}"
            )
        values.flags.writeable = False
        dvalues.flags.writeable = False
        self.grid = grid
        self.values = values
        self.dvalues = dvalues

    @classmethod
    def zero(cls, grid: Grid) -> "GridFunction":
        z = np.zeros(grid.n + 1)
        return cls(grid, z, z)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "GridFunction":
        return cls(grid, np.full(grid.n + 1, value), np.zeros(grid.n + 1))

    @classmethod
    def ramp(cls, grid: Grid, slope: float) -> "GridFunction":
        """u(t) = slope * t, the canonical cone direction."""
        return cls(grid, slope * grid.nodes, np.full(grid.n + 1, slope))

    @classmethod
    def stack(cls, functions) -> "GridFunction":
        """The stack whose row i is functions[i]; all must share one grid."""
        functions = list(functions)
        grids = {u.grid for u in functions}
        if len(grids) != 1:
            raise ShapeError(f"a stack needs functions on one grid, got {sorted(grids, key=repr)}")
        return cls(grids.pop(), np.concatenate([np.atleast_2d(u.values) for u in functions]),
                   np.concatenate([np.atleast_2d(u.dvalues) for u in functions]))

    @property
    def is_stack(self) -> bool:
        return self.values.ndim == 2

    def __getitem__(self, index) -> "GridFunction":
        """Row ``index`` of a stack, or the sub-stack an index array selects."""
        if not self.is_stack:
            raise TypeError("a single GridFunction has no rows")
        return GridFunction(self.grid, self.values[index], self.dvalues[index])

    def __repr__(self) -> str:
        if self.is_stack:
            return f"GridFunction(n={self.grid.n}, rows={self.values.shape[0]})"
        return f"GridFunction(n={self.grid.n}, norm={c1_norm(self):.6g})"


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
    dv = np.max(np.abs(u.values - w.values), axis=-1)
    dd = np.max(np.abs(u.dvalues - w.dvalues), axis=-1)
    return _first_max(dv, dd)


def interp_rows(samples: np.ndarray, grid: Grid, a) -> np.ndarray:
    """Row i of the (k, n+1) node samples, linearly interpolated at a[i].

    ``a`` has shape (1, m), the same m points for every row, or (k, m).
    The arithmetic is np.interp's: slope*(a - t_j) + y_j, the value from
    the right node when that is NaN, and the node sample itself at every
    node, 1 included.  A point outside [0,1], NaN included, is a
    DomainError.  Run it under np.errstate(all="ignore").
    """
    a = np.asarray(a, dtype=float)
    inside = (a >= 0.0) & (a <= 1.0)
    if not inside.all():
        raise DomainError(f"evaluation point {a[~inside][0]} outside [0,1]")
    nodes = grid.nodes
    # a in [0,1] puts j in [0, n]; a = 1 uses the last interval.
    j = np.minimum(nodes.searchsorted(a, side="right") - 1, grid.n - 1)
    if j.shape[0] == 1:  # take() keeps the gathered rows C-contiguous
        y0, y1 = samples.take(j[0], axis=1), samples.take(j[0] + 1, axis=1)
    else:
        y0, y1 = np.take_along_axis(samples, j, axis=1), np.take_along_axis(samples, j + 1, axis=1)
    x0, x1 = nodes[j], nodes[j + 1]
    slope = (y1 - y0) / (x1 - x0)
    out = slope * (a - x0) + y0
    nan = np.isnan(out)
    if nan.any():
        right = slope * (a - x1) + y1
        out = np.where(nan, np.where(np.isnan(right) & (y0 == y1), y0, right), out)
    return np.where(a == x0, y0, np.where(a == x1, y1, out))


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
    steps = 0.5 * grid.h * (samples[..., 1:] + samples[..., :-1])
    out = np.empty(samples.shape)
    out[..., 0] = 0.0
    np.cumsum(steps, axis=-1, out=out[..., 1:])
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


def random_cone_function(grid: Grid, rng: np.random.Generator, norm,
                         count: int) -> GridFunction:
    """A stack of ``count`` random non-negative, non-decreasing candidates
    with C1 norms ``norm`` (one target, or one per row).

    Each row draws k uniform on {2..6} interior knots, sorted U(0,1), and
    a piecewise-linear derivative through k+2 Gamma(1.5, 1) values at 0,
    the knots and 1; its values integrate that from u(0) ~ Gamma(1, 0.5).
    Each row is then rescaled so its C1 norm equals its target up to
    rounding: the sphere used when sampling functional suprema.  The whole
    stack takes one block of draws per quantity and one interpolation.
    """
    rows = int(count)
    if rows < 0:
        raise ParameterError(f"need a non-negative number of functions, got {count}")
    norm = np.broadcast_to(np.asarray(norm, dtype=float), (rows,))
    if np.any(norm <= 0):
        raise ParameterError(f"target norm must be positive, got {norm[norm <= 0][0]}")
    k = rng.integers(2, 7, size=rows)
    interior = rng.uniform(0.0, 1.0, size=(rows, 6))
    knot_d = rng.gamma(1.5, 1.0, size=(rows, 8))
    u0 = rng.gamma(1.0, 0.5, size=rows)
    # Unused knot slots move to [1.5, 2.5), beyond every node; sorting then
    # puts row i's knots at 0, its k interior knots, 1, and those slots, in
    # the order of its slopes knot_d[i].  Row i is shifted by 3i, so one
    # interpolation on increasing knots serves every row.
    unused = np.arange(6) >= k[:, None]
    knot_t = np.sort(np.column_stack((np.zeros(rows), interior + 1.5 * unused, np.ones(rows))))
    shift = 3.0 * np.arange(rows)[:, None]
    dvalues = (np.interp(grid.nodes + shift, (knot_t + shift).ravel(), knot_d.ravel()) if rows
               else np.empty((0, grid.n + 1)))
    values = u0[:, None] + cumulative_integral(dvalues, grid)
    # gamma draws are positive, so the C1 norm is the larger row maximum
    scale = (norm / np.maximum(values.max(axis=1), dvalues.max(axis=1)))[:, None]
    values *= scale
    dvalues *= scale
    return GridFunction(grid, values, dvalues)
