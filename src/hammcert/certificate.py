"""Existence and non-existence certificates with per-inequality margins.

Existence (annulus localisation): solutions exist with r <= ||u|| <= R when

    max( lam*f_up(R)*K  + sum_i eta_i * gamma_i(1)   * H_i(R),
         lam*f_up(R)*K* + sum_i eta_i * ||gamma_i'|| * H_i(R) ) <= R
    and   lam * f_low(r) * min(K, K*) >= r.

Non-existence (only the zero solution): with growth witness (tau, xi_i),

    lam*tau*K + sum_i eta_i * xi_i * gamma_i(1) < 1.

Every input comes from bounds.BoundSet, whose rigor rule names what
capped each certificate; a certificate is 'certified' iff it names nothing.
Comparisons are exact floating comparisons and strictness matters: the
annulus inequalities are non-strict (the worked feasible point sits
exactly on the lower equality and must pass), the non-existence one is
strict (equality fails).  Margins are reported so near-boundary verdicts
are visible.  The left-hand sides are written once, elementwise in
(lambda, eta1, eta2), so a sweep evaluates a whole lattice with the same
floating-point operations as a single certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bounds import BoundEntry, BoundSet, LinearGrowthWitness
from .errors import ParameterError
from .problem import ProblemSpec

# A certificate's rigor: 'heuristic' exactly when BoundSet.rigor named an
# input or a failed load check that capped it, else 'certified'.
_RIGOR = property(lambda self: "heuristic" if self.heuristic_inputs else "certified")


@dataclass(frozen=True)
class ExistenceCertificate:
    """The annulus certificate at radii (r, R).

    Each left-hand side, margin and ``passed`` is a float (bool) at one
    parameter point, or an array of the parameters' shape on a lattice.
    """
    r: float
    R: float
    K: float
    Kstar: float
    lhs_value_branch: float
    lhs_deriv_branch: float
    lhs_idx0: float
    upper_margin: float  # R - max(branches)
    lower_margin: float  # lhs_idx0 - r
    passed: bool  # max(branches) <= R and lhs_idx0 >= r
    heuristic_inputs: tuple  # the names that kept rigor from 'certified'
    f_upper_R: BoundEntry
    f_lower_r: BoundEntry
    h1_R: BoundEntry
    h2_R: BoundEntry
    rigor = _RIGOR

    @property
    def verdict(self) -> str:
        """'certified' | 'heuristic-pass' | 'fail', at one parameter point."""
        if not self.passed:
            return "fail"
        return "heuristic-pass" if self.heuristic_inputs else "certified"


@dataclass(frozen=True)
class NonexistenceCertificate:
    lhs: float  # or an array of the parameters' shape on a lattice
    witness: LinearGrowthWitness
    heuristic_inputs: tuple  # as for ExistenceCertificate
    rigor = _RIGOR

    @property
    def passed(self) -> bool:
        return self.lhs < 1.0  # strict: lhs == 1 fails

    @property
    def margin(self) -> float:
        return 1.0 - self.lhs


def check_radii(r: float, R: float) -> None:
    """Reject radii unless 0 < r < R < inf."""
    if not 0 < r < R:
        raise ParameterError(f"need 0 < r < R, got r={r}, R={R}")
    if not np.isfinite(R):
        raise ParameterError(f"outer radius R must be finite, got {R}")


@np.errstate(over="ignore", invalid="ignore")  # an overflowing side fails, silently
def existence_terms(bounds: BoundSet, r: float, R: float, lam, eta1, eta2) -> ExistenceCertificate:
    """The annulus certificate at radii 0 < r < R, elementwise in the parameters.

    lam, eta1 and eta2 are floats or equal-shape arrays.  Scalar and array
    evaluations do the same float operations in the same order, so they
    agree bit for bit.
    """
    check_radii(r, R)
    constants = bounds.constants()
    entries = (bounds.f_upper(R), bounds.f_lower(r), bounds.h_upper(1, R), bounds.h_upper(2, R))
    K, Kstar, g1, g2, dg1, dg2 = (e.value for e in constants)
    f_up, f_low, h1, h2 = (e.value for e in entries)
    value = lam * f_up * K + eta1 * g1 * h1 + eta2 * g2 * h2
    deriv = lam * f_up * Kstar + eta1 * dg1 * h1 + eta2 * dg2 * h2
    idx0 = lam * f_low * min(K, Kstar)
    top = np.where(deriv > value, deriv, value)  # picks what max(value, deriv) picks
    return ExistenceCertificate(r, R, K, Kstar, value, deriv, idx0, R - top, idx0 - r,
                                (top <= R) & (idx0 >= r),
                                bounds.rigor(constants + entries), *entries)


@np.errstate(over="ignore", invalid="ignore")
def nonexistence_terms(bounds: BoundSet, witness: LinearGrowthWitness,
                       lam, eta1, eta2) -> NonexistenceCertificate:
    """The linear-growth certificate, elementwise in the parameters."""
    K, _, g1, g2, _, _ = bounds.constants()
    tau, xi1, xi2 = bounds.witness(witness)
    lhs = lam * tau.value * K.value + eta1 * xi1.value * g1.value + eta2 * xi2.value * g2.value
    return NonexistenceCertificate(lhs, witness, bounds.rigor((K, g1, g2, tau, xi1, xi2)))


def check_existence(spec: ProblemSpec, bounds: BoundSet, r: float, R: float) -> ExistenceCertificate:
    """Evaluate the annulus certificate at radii 0 < r < R, at the parameters
    of ``spec``, with every input and the rigor from ``bounds``."""
    cert = existence_terms(bounds, r, R, spec.lam, spec.eta1, spec.eta2)
    # np.where made the upper margin and the pass test 0-d
    return replace(cert, upper_margin=float(cert.upper_margin), passed=bool(cert.passed))


def check_nonexistence(spec: ProblemSpec, witness: LinearGrowthWitness) -> NonexistenceCertificate:
    """Evaluate the linear-growth certificate; caller vets the witness first."""
    return nonexistence_terms(BoundSet(spec), witness, spec.lam, spec.eta1, spec.eta2)
