"""Tolerances and defects the tests check grid functions against."""

import numpy as np


def consistency_tol(n: int) -> float:
    """Tolerance for the u(t) = u(0) + int u' defect; tracks trapezoid order."""
    return 10.0 / n**2


def monotone_defect(u) -> float:
    """Largest decrease between consecutive node values of a single function
    (0 if non-decreasing)."""
    return max(0.0, float(np.max(u.values[:-1] - u.values[1:])))
