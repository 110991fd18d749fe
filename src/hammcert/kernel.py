"""Integral kernels k(t,s), their t-derivatives, and the kernel constants.

The built-in right-focal Green's function (k = min(s,t), the kernel of
u'' = -delta with u(0) = u'(1) = 0) gets special treatment: its kink lies
on a node whenever t does, its derivative row integrals reduce to tail
integrals, and its constants are known in closed form (K = 1/2, K* = 1).
Its value and derivative rows at all nodes come from prefix and suffix
sums, in O(n) time and memory.  Generic kernels go through node-aligned
trapezoid quadrature with dense (n+1)^2 weight matrices, cached per grid:
about 134 MB per matrix at n = 4096.  These two matrices are all a kernel
caches; K and K* are computed when asked for.  A kernel declared by an
expression k gets its dk by differentiating k in t.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import CheckResult, EvaluationError
from .expr import derived_entry, eval_kernel_expr, parse_entry
from .grid import Grid, cumulative_integral, integrate, sign_check


class Kernel:
    """A kernel k(t,s) >= 0 with non-negative t-derivative dk(t,s).

    ``k`` and ``dk`` must accept numpy arrays (broadcasting).  Instances
    are immutable in spirit; the only mutation is a cache of the two dense
    (n+1)^2 trapezoid weight matrices through which ``integrals`` applies
    the kernel, built on first use for each grid and kept for the kernel's
    lifetime.
    """

    exact = False  # whether K and K* are the true constants, not estimates

    def __init__(self, k, dk):
        self.k = k
        self.dk = dk
        self._cache: dict[tuple[int, bool], np.ndarray] = {}  # (n, deriv) -> weights

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def _weights(self, grid: Grid, deriv: bool) -> np.ndarray:
        key = (grid.n, deriv)
        if key not in self._cache:
            make = self._make_deriv_weights if deriv else self._make_value_weights
            self._cache[key] = make(grid)
        return self._cache[key]

    @staticmethod
    def _trap_weights(grid: Grid) -> np.ndarray:
        w = np.full(grid.n + 1, grid.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def _make_value_weights(self, grid: Grid) -> np.ndarray:
        kmat = self._sample(self.k, grid.nodes[:, None], grid.nodes[None, :], "k")
        return kmat * self._trap_weights(grid)

    def _make_deriv_weights(self, grid: Grid) -> np.ndarray:
        dkmat = self._sample(self.dk, grid.nodes[:, None], grid.nodes[None, :], "dk")
        return dkmat * self._trap_weights(grid)

    def _sample(self, fn, t, s, label: str) -> np.ndarray:
        try:
            with np.errstate(all="ignore"):
                out = np.asarray(fn(t, s), dtype=float)
        except EvaluationError:
            raise  # an expression kernel's error names its entry and point
        except Exception as exc:
            raise EvaluationError(f"kernel {label}(t,s) failed to evaluate: {exc}") from exc
        out = np.broadcast_to(out, np.broadcast_shapes(np.shape(t), np.shape(s)))
        if not np.isfinite(out).all():
            raise EvaluationError(f"kernel {label}(t,s) produced non-finite values")
        return out

    def value_weight_matrix(self, grid: Grid) -> np.ndarray:
        """W with W[j] @ F = int_0^1 k(t_j, s) F(s) ds by trapezoid."""
        return self._weights(grid, deriv=False)

    def deriv_weight_matrix(self, grid: Grid) -> np.ndarray:
        """Same for the derivative rows int_0^1 dk(t_j, s) F(s) ds."""
        return self._weights(grid, deriv=True)

    def K(self, grid: Grid) -> float:
        """K = int_0^1 k(1,s) ds by trapezoid."""
        return integrate(self._sample(self.k, np.float64(1.0), grid.nodes, "k"), grid)

    def Kstar(self, grid: Grid) -> float:
        """K* = sup over t of int_0^1 dk(t,s) ds, taken over grid nodes."""
        return float(np.max(self._weights(grid, deriv=True).sum(axis=1)))

    def integrals(self, grid: Grid, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every node row at once: (int k(t_j,s) F(s) ds, int dk(t_j,s) F(s) ds).

        F is one function's node samples or a (k, n+1) stack of them; each
        stack row gets its own matrix-vector product, since one
        matrix-matrix product would round differently.
        """
        W, D = self.value_weight_matrix(grid), self.deriv_weight_matrix(grid)
        rows = F.reshape(-1, F.shape[-1])
        return (np.array([W @ f for f in rows]).reshape(F.shape),
                np.array([D @ f for f in rows]).reshape(F.shape))


class FocalKernel(Kernel):
    """Green's function for the right focal conditions u(0) = u'(1) = 0.

    k(t,s) = s for s <= t and t otherwise; dk(t,s) jumps from 0 to 1 at
    s = t.  K and K* are exact: the trapezoid rule on node-aligned pieces
    reproduces 1/2 and 1 - t_j in exact arithmetic, so the closed forms are
    used directly.
    """

    exact = True

    def __init__(self):
        super().__init__(
            k=lambda t, s: np.minimum(s, t),
            dk=lambda t, s: np.where(s <= t, 0.0, 1.0),
        )

    def _make_deriv_weights(self, grid: Grid) -> np.ndarray:
        # Row j holds the trapezoid weights of the integral over [t_j, 1]:
        # the derivative row with the jump split at node j.
        n, h = grid.n, grid.h
        w = np.triu(np.full((n + 1, n + 1), h))
        idx = np.arange(n + 1)
        w[idx, idx] *= 0.5
        w[:, n] *= 0.5
        w[n, :] = 0.0
        return w

    def integrals(self, grid: Grid, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The trapezoid rows of the dense weights, without forming them.

        Row j of the value integral is sum_{i<=j} s_i w_i F_i plus
        t_j * sum_{i>j} w_i F_i; row j of the derivative integral is the
        trapezoid integral of F over [t_j, 1].  The sums run along the
        last axis, so a stack F is done row by row in one pass.
        Each temporary is overwritten in place once read, with the
        arithmetic of those formulas.
        """
        t = grid.nodes
        wF = self._trap_weights(grid) * F
        below = np.cumsum(wF, axis=-1)
        wF *= t
        values = np.cumsum(wF, axis=-1, out=wF)
        np.subtract(below[..., -1:], below, out=below)
        below *= t
        values += below
        del below
        C = cumulative_integral(F, grid)
        return values, np.subtract(C[..., -1:], C, out=C)

    def K(self, grid: Grid) -> float:
        return 0.5

    def Kstar(self, grid: Grid) -> float:
        return 1.0


def kernel_from_exprs(k_src: str) -> Kernel:
    """Build a Kernel from an expression in t and s; dk is its derivative in t.

    An error names the problem-file entry, as in ``[kernel] k = '...'``, and
    one in the derived dk reads ``dk from [kernel] k = '...'``.
    """
    k = parse_entry("kernel", "k", k_src, "kernel")
    return Kernel(k=partial(eval_kernel_expr, k),
                  dk=partial(eval_kernel_expr, derived_entry(k, "t", "dk")))


def check_kernel_hypotheses(kernel: Kernel, m: int) -> list[CheckResult]:
    """Sampled falsification of the signs of k and dk on an m x m lattice.

    These are warnings, not proofs: the lattice can refute the standing
    hypotheses but cannot establish measurability or a.e. statements.
    """
    pts = np.linspace(0.0, 1.0, m)
    t = pts[:, None]
    s = pts[None, :]
    kvals = kernel._sample(kernel.k, t, s, "k")
    dkvals = kernel._sample(kernel.dk, t, s, "dk")
    return [sign_check(label, float(vals.min()),
                       np.unravel_index(int(vals.argmin()), vals.shape),
                       {"t": pts, "s": pts}, f"on {m}x{m} lattice")
            for label, vals in (("kernel k >= 0", kvals), ("kernel dk >= 0", dkvals))]
