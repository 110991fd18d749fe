"""Tolerances and defects the tests check grid functions against."""

import numpy as np

from hammcert.bounds import CONE_KNOTS
from hammcert.grid import GridFunction, sphere_family


def consistency_tol(n: int) -> float:
    """Tolerance for the u(t) = u(0) + int u' defect; tracks trapezoid order."""
    return 10.0 / n**2


def monotone_defect(u) -> float:
    """Largest decrease between consecutive node values of a single function
    (0 if non-decreasing)."""
    return max(0.0, float(np.max(u.values[:-1] - u.values[1:])))


def family_rows(grid, rng, radii) -> GridFunction:
    """A stack of one sphere_family row per radius, each row picked by rng."""
    families = [sphere_family(grid, rho, CONE_KNOTS)[0] for rho in radii]
    return GridFunction.stack([u[rng.integers(u.values.shape[0])] for u in families])
