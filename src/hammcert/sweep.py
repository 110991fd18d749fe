"""Classify a box of (lambda, eta1, eta2) parameter points by certificate.

Each lattice point gets the existence check at fixed (r, R) and, when a
growth witness is supplied, the non-existence check, both evaluated over
the whole lattice in one array pass.  The result is the sweep's table,
column by column.  Cells are points, not boxes: nothing is claimed
between lattice points.  Both certificates passing at once ('conflict')
is impossible when the declared inputs are sound, so that class exists
purely as a consistency alarm.
"""

from __future__ import annotations

import numpy as np

from .bounds import BoundSet, LinearGrowthWitness
from .certificate import existence_terms, nonexistence_terms
from .errors import ParameterError


def axis_values(start: float, stop: float, steps: int) -> np.ndarray:
    """Inclusive lattice along one axis; steps is the number of points."""
    if steps < 1:
        raise ParameterError(f"need at least one step per axis, got {steps}")
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise ParameterError(f"axis endpoints must be finite, got {start} and {stop}")
    if start < 0 or stop < 0:
        raise ParameterError("parameter box must be non-negative")
    if steps == 1:
        return np.array([float(start)])
    return np.linspace(float(start), float(stop), steps)


def run_sweep(bounds: BoundSet, lam_values, eta1_values, eta2_values, r: float, R: float,
              witness: LinearGrowthWitness | None = None) -> np.recarray:
    """The certificates at every lattice point, as one structured array.

    One row per point, in lexicographic order, and one field per column of
    the `sweep` CSV; classification is 'existence', 'nonexistence',
    'both-fail' or 'conflict', and nonexistence_lhs None without a witness.
    With (r, R) fixed the bound entries are fixed too, so both certificates
    are affine in the parameters and the lattice is evaluated in one array
    pass, bit for bit what the scalar certificates give at each point.
    """
    axes = [np.asarray(v, dtype=float) for v in (lam_values, eta1_values, eta2_values)]
    lam, eta1, eta2 = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
    cert = existence_terms(bounds, r, R, lam, eta1, eta2)
    growth = None if witness is None else nonexistence_terms(bounds, witness, lam, eta1, eta2)
    nonexists = np.zeros(lam.shape, dtype=bool) if growth is None else growth.passed
    classes = np.select([cert.passed & nonexists, cert.passed, nonexists],
                        ["conflict", "existence", "nonexistence"], "both-fail")
    # A non-existence cell carries that certificate's rigor, any other the existence one's.
    rigor = np.where(classes == "nonexistence", None if growth is None else growth.rigor, cert.rigor)
    nonexistence_lhs = np.full(lam.shape, None) if growth is None else growth.lhs
    return np.rec.fromarrays(
        [lam, eta1, eta2, classes, cert.lhs_value_branch, cert.lhs_deriv_branch, cert.lhs_idx0,
         nonexistence_lhs, rigor],
        names="lambda,eta1,eta2,classification,value_branch,deriv_branch,idx0,nonexistence_lhs,rigor")
