"""Existence and non-existence certificates with per-inequality margins.

Existence (annulus localisation): solutions exist with r <= ||u|| <= R when

    max( lam*f_up(R)*K  + sum_i eta_i * gamma_i(1)   * H_i(R),
         lam*f_up(R)*K* + sum_i eta_i * ||gamma_i'|| * H_i(R) ) <= R
    and   lam * f_low(r) * min(K, K*) >= r.

Non-existence (only the zero solution): with growth witness (tau, xi_i),

    lam*tau*K + sum_i eta_i * xi_i * gamma_i(1) < 1.

Comparisons are exact floating comparisons and strictness matters: the
annulus inequalities are non-strict (the worked feasible point sits
exactly on the lower equality and must pass), the non-existence one is
strict (equality fails).  Margins are reported so near-boundary verdicts
are visible.  The left-hand sides are written once, elementwise in
(lambda, eta1, eta2), so a sweep evaluates a whole lattice with the same
floating-point operations as a single certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BoundEntry, BoundSet, LinearGrowthWitness
from .errors import ParameterError
from .kernel import constant_K, constant_Kstar
from .problem import ProblemSpec


@dataclass(frozen=True)
class ExistenceCertificate:
    r: float
    R: float
    lhs_value_branch: float
    lhs_deriv_branch: float
    lhs_idx0: float
    upper_margin: float  # R - max(branches)
    lower_margin: float  # lhs_idx0 - r
    verdict: str  # 'certified' | 'heuristic-pass' | 'fail'
    f_upper_R: BoundEntry
    f_lower_r: BoundEntry
    h1_R: BoundEntry
    h2_R: BoundEntry

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"

    @property
    def rigor(self) -> str:
        return entries_rigor((self.f_upper_R, self.f_lower_r, self.h1_R, self.h2_R))


@dataclass(frozen=True)
class NonexistenceCertificate:
    lhs: float
    witness: LinearGrowthWitness

    @property
    def passed(self) -> bool:
        return self.lhs < 1.0  # strict: lhs == 1 fails

    @property
    def margin(self) -> float:
        return 1.0 - self.lhs


def existence_terms(spec: ProblemSpec, bounds: BoundSet, r: float, R: float, lam, eta1, eta2):
    """The annulus certificate at radii 0 < r < R, elementwise in the parameters.

    lam, eta1 and eta2 are floats or equal-shape arrays.  Returns the four
    bound entries, then the value branch, derivative branch, idx0 value,
    upper and lower margins and the pass test, each of the parameters'
    shape.  Scalar and array evaluations do the same float operations in
    the same order, so they agree bit for bit.
    """
    if not 0 < r < R:
        raise ParameterError(f"need 0 < r < R, got r={r}, R={R}")
    K = constant_K(spec.kernel, spec.grid)
    Kstar = constant_Kstar(spec.kernel, spec.grid)
    entries = (bounds.f_upper(R), bounds.f_lower(r), bounds.h_upper(1, R), bounds.h_upper(2, R))
    f_up, f_low, h1, h2 = (e.value for e in entries)
    value = lam * f_up * K + eta1 * spec.gamma1_at_1 * h1 + eta2 * spec.gamma2_at_1 * h2
    deriv = lam * f_up * Kstar + eta1 * spec.dgamma1_sup * h1 + eta2 * spec.dgamma2_sup * h2
    idx0 = lam * f_low * min(K, Kstar)
    top = np.where(deriv > value, deriv, value)  # picks what max(value, deriv) picks
    return entries, value, deriv, idx0, R - top, idx0 - r, (top <= R) & (idx0 >= r)


def entries_rigor(entries) -> str:
    """'certified' when every bound entry is, else 'heuristic'."""
    return "certified" if all(e.rigor == "certified" for e in entries) else "heuristic"


def growth_lhs(spec: ProblemSpec, witness: LinearGrowthWitness, lam, eta1, eta2):
    """Left-hand side of the non-existence certificate, elementwise in the parameters."""
    K = constant_K(spec.kernel, spec.grid)
    return (lam * witness.tau * K
            + eta1 * witness.xi1 * spec.gamma1_at_1
            + eta2 * witness.xi2 * spec.gamma2_at_1)


def check_existence(spec: ProblemSpec, bounds: BoundSet, r: float, R: float) -> ExistenceCertificate:
    """Evaluate the annulus certificate at radii 0 < r < R."""
    entries, value, deriv, idx0, upper, lower, ok = existence_terms(
        spec, bounds, r, R, spec.lam, spec.eta1, spec.eta2)
    if not ok:
        verdict = "fail"
    elif entries_rigor(entries) == "certified":
        verdict = "certified"
    else:
        verdict = "heuristic-pass"
    f_up, f_low, h1, h2 = entries
    return ExistenceCertificate(
        r=r,
        R=R,
        lhs_value_branch=value,
        lhs_deriv_branch=deriv,
        lhs_idx0=idx0,
        upper_margin=float(upper),  # np.where made it a 0-d array
        lower_margin=lower,
        verdict=verdict,
        f_upper_R=f_up,
        f_lower_r=f_low,
        h1_R=h1,
        h2_R=h2,
    )


def check_nonexistence(spec: ProblemSpec, witness: LinearGrowthWitness) -> NonexistenceCertificate:
    """Evaluate the linear-growth certificate; caller vets the witness first."""
    return NonexistenceCertificate(lhs=growth_lhs(spec, witness, spec.lam, spec.eta1, spec.eta2),
                                   witness=witness)
