"""Classify a box of (lambda, eta1, eta2) parameter points by certificate.

Each lattice point gets the existence check at fixed (r, R) and, when a
growth witness is supplied, the non-existence check, both evaluated over
the whole lattice in one array pass.  Cells are points, not boxes:
nothing is claimed between lattice points.  Both certificates passing at
once ('conflict') is impossible when the declared inputs are sound, so
that class exists purely as a consistency alarm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BoundSet, LinearGrowthWitness
from .certificate import existence_terms, nonexistence_terms
from .errors import ParameterError


@dataclass(frozen=True)
class SweepCell:
    lam: float
    eta1: float
    eta2: float
    classification: str  # 'existence' | 'nonexistence' | 'both-fail' | 'conflict'
    value_branch: float
    deriv_branch: float
    idx0_value: float
    upper_margin: float
    lower_margin: float
    nonexistence_lhs: float | None
    rigor: str


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
              witness: LinearGrowthWitness | None = None) -> list[SweepCell]:
    """Evaluate the certificates at every lattice point, in lexicographic order.

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
    nonexistence_lhs = [None] * lam.size if growth is None else growth.lhs.tolist()
    return [SweepCell(*row) for row in zip(
        lam.tolist(), eta1.tolist(), eta2.tolist(), classes.tolist(),
        cert.lhs_value_branch.tolist(), cert.lhs_deriv_branch.tolist(), cert.lhs_idx0.tolist(),
        cert.upper_margin.tolist(), cert.lower_margin.tolist(), nonexistence_lhs, rigor.tolist())]


def conflict_cells(cells: list[SweepCell]) -> list[SweepCell]:
    return [c for c in cells if c.classification == "conflict"]
