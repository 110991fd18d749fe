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

from dataclasses import dataclass, replace

import numpy as np

from .bounds import BoundEntry, BoundSet, LinearGrowthWitness
from .errors import ParameterError
from .expr import variables
from .kernel import constant_K, constant_Kstar
from .problem import ProblemSpec


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
    rigor: str  # 'certified' | 'heuristic', as _existence_rigor decides
    f_upper_R: BoundEntry
    f_lower_r: BoundEntry
    h1_R: BoundEntry
    h2_R: BoundEntry

    @property
    def verdict(self) -> str:
        """'certified' | 'heuristic-pass' | 'fail', at one parameter point."""
        if not self.passed:
            return "fail"
        return "certified" if self.rigor == "certified" else "heuristic-pass"


@dataclass(frozen=True)
class NonexistenceCertificate:
    lhs: float  # or an array of the parameters' shape on a lattice
    witness: LinearGrowthWitness
    rigor: str  # 'certified' when K is exact, else 'heuristic'

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


def existence_terms(spec: ProblemSpec, bounds: BoundSet, r: float, R: float,
                    lam, eta1, eta2) -> ExistenceCertificate:
    """The annulus certificate at radii 0 < r < R, elementwise in the parameters.

    lam, eta1 and eta2 are floats or equal-shape arrays.  Scalar and array
    evaluations do the same float operations in the same order, so they
    agree bit for bit.
    """
    check_radii(r, R)
    K = constant_K(spec.kernel, spec.grid)
    Kstar = constant_Kstar(spec.kernel, spec.grid)
    entries = (bounds.f_upper(R), bounds.f_lower(r), bounds.h_upper(1, R), bounds.h_upper(2, R))
    f_up, f_low, h1, h2 = (e.value for e in entries)
    value = lam * f_up * K + eta1 * spec.gamma1_at_1 * h1 + eta2 * spec.gamma2_at_1 * h2
    deriv = lam * f_up * Kstar + eta1 * spec.dgamma1_sup * h1 + eta2 * spec.dgamma2_sup * h2
    idx0 = lam * f_low * min(K, Kstar)
    top = np.where(deriv > value, deriv, value)  # picks what max(value, deriv) picks
    return ExistenceCertificate(r, R, K, Kstar, value, deriv, idx0, R - top, idx0 - r,
                                (top <= R) & (idx0 >= r), _existence_rigor(spec, entries),
                                *entries)


def _existence_rigor(spec: ProblemSpec, entries) -> str:
    """'certified' when every bound entry is and every constant is exact,
    else 'heuristic'.

    K and K* are exact for an exact kernel only (Kernel.exact).
    ||gamma_i'|| is the maximum over the nodes, which is the supremum when
    gamma_i' is free of t.
    """
    exact = spec.kernel.exact and not variables(spec.dgamma1) and not variables(spec.dgamma2)
    certified = exact and all(e.rigor == "certified" for e in entries)
    return "certified" if certified else "heuristic"


def nonexistence_terms(spec: ProblemSpec, witness: LinearGrowthWitness,
                       lam, eta1, eta2) -> NonexistenceCertificate:
    """The linear-growth certificate, elementwise in the parameters.

    The witness is declared and gamma_i(1) is a point sample, so K alone
    decides the rigor.
    """
    K = constant_K(spec.kernel, spec.grid)
    lhs = (lam * witness.tau * K
           + eta1 * witness.xi1 * spec.gamma1_at_1
           + eta2 * witness.xi2 * spec.gamma2_at_1)
    return NonexistenceCertificate(lhs, witness, "certified" if spec.kernel.exact else "heuristic")


def check_existence(spec: ProblemSpec, bounds: BoundSet, r: float, R: float) -> ExistenceCertificate:
    """Evaluate the annulus certificate at radii 0 < r < R."""
    cert = existence_terms(spec, bounds, r, R, spec.lam, spec.eta1, spec.eta2)
    # np.where made the upper margin and the pass test 0-d
    return replace(cert, upper_margin=float(cert.upper_margin), passed=bool(cert.passed))


def check_nonexistence(spec: ProblemSpec, witness: LinearGrowthWitness) -> NonexistenceCertificate:
    """Evaluate the linear-growth certificate; caller vets the witness first."""
    return nonexistence_terms(spec, witness, spec.lam, spec.eta1, spec.eta2)
