"""Problem assembly: kernel, coefficient pair, functionals, nonlinearity,
parameters, and the operator

    Tu(t) = eta1*gamma1(t)*h1[u] + eta2*gamma2(t)*h2[u]
            + lambda * int_0^1 k(t,s) f(s, u(s), u'(s)) ds,

whose derivative row swaps in gamma_i' and dk.  Problems are declared in a
flat INI-style file (see docs/problem-format.md); the standing hypotheses
are validated by sampling at load time — sign violations of the sampled
data are structured warnings, bad parameters and mismatched declared
derivatives are errors.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import BoundSet, LinearGrowthWitness
from .errors import CheckResult, ParameterError, ProblemFileError
from .expr import (Expr, eval_coefficient, eval_constant, eval_functional,
                   eval_nonlinearity, parse)
from .grid import CONE_TOL, Grid, GridFunction, cone_defect, random_cone_function
from .kernel import FocalKernel, Kernel, check_kernel_hypotheses, kernel_from_exprs

FD_STEP = 1e-5
FD_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """One fully assembled problem instance.  Immutable; solves may share it."""

    kernel: Kernel
    gamma1: Expr
    gamma2: Expr
    dgamma1: Expr
    dgamma2: Expr
    h1: Expr
    h2: Expr
    f: Expr
    lam: float
    eta1: float
    eta2: float
    grid: Grid
    gamma1_at_1: float = 0.0
    gamma2_at_1: float = 0.0
    dgamma1_sup: float = 0.0
    dgamma2_sup: float = 0.0
    bounds: BoundSet | None = None
    witness: LinearGrowthWitness | None = None
    warnings: tuple = field(default=())
    # Node samples of gamma_i and gamma_i' per grid.  Not an init field, so
    # every replace() starts an empty cache and can never see stale samples.
    _coefficient_cache: dict = field(default_factory=dict, init=False, repr=False)

    def with_params(self, lam: float, eta1: float, eta2: float) -> "ProblemSpec":
        return replace(self, lam=lam, eta1=eta1, eta2=eta2)


def make_spec(kernel: Kernel, gamma1: str, gamma2: str, dgamma1: str, dgamma2: str,
              h1: str, h2: str, f: str, lam: float, eta1: float, eta2: float,
              n: int = 256, bounds: BoundSet | None = None,
              witness: LinearGrowthWitness | None = None,
              validate: bool = True) -> ProblemSpec:
    """Assemble and validate a ProblemSpec from expression strings."""
    for name, val in (("lambda", lam), ("eta1", eta1), ("eta2", eta2)):
        if val < 0:
            raise ParameterError(f"parameter {name} must be non-negative, got {val}")
    grid = Grid(n)
    spec = ProblemSpec(
        kernel=kernel,
        gamma1=parse(gamma1, "coefficient"),
        gamma2=parse(gamma2, "coefficient"),
        dgamma1=parse(dgamma1, "coefficient"),
        dgamma2=parse(dgamma2, "coefficient"),
        h1=parse(h1, "functional"),
        h2=parse(h2, "functional"),
        f=parse(f, "nonlinearity"),
        lam=float(lam),
        eta1=float(eta1),
        eta2=float(eta2),
        grid=grid,
        bounds=bounds,
        witness=witness,
    )
    _check_declared_derivatives(spec)
    spec = replace(
        spec,
        gamma1_at_1=float(eval_coefficient(spec.gamma1, 1.0)),
        gamma2_at_1=float(eval_coefficient(spec.gamma2, 1.0)),
        dgamma1_sup=float(np.max(np.abs(eval_coefficient(spec.dgamma1, grid.nodes)))),
        dgamma2_sup=float(np.max(np.abs(eval_coefficient(spec.dgamma2, grid.nodes)))),
    )
    if validate:
        warn = tuple(r for r in validate_spec(spec) if not r.ok)
        spec = replace(spec, warnings=warn)
    return spec


def _check_declared_derivatives(spec: ProblemSpec) -> None:
    # Central differences against the user-declared gamma_i'; catches a
    # mistyped derivative before it contaminates every certificate.
    probes = np.linspace(0.05, 0.95, 19)
    for label, g, dg in (("gamma1", spec.gamma1, spec.dgamma1),
                         ("gamma2", spec.gamma2, spec.dgamma2)):
        diff = np.asarray(eval_coefficient(g, probes + FD_STEP)) \
            - np.asarray(eval_coefficient(g, probes - FD_STEP))
        fd = np.broadcast_to(diff / (2 * FD_STEP), probes.shape)
        declared = np.broadcast_to(np.asarray(eval_coefficient(dg, probes)), probes.shape)
        gap = np.abs(fd - declared)
        if float(gap.max()) > FD_TOL:
            j = int(gap.argmax())
            raise ProblemFileError(
                f"declared derivative of {label} disagrees with finite differences: "
                f"at t={probes[j]:.4g} declared {float(declared[j]):.6g}, "
                f"measured {float(fd[j]):.6g}"
            )


def validate_spec(spec: ProblemSpec, m: int = 64, tol: float = 1e-9) -> list[CheckResult]:
    """All sampled hypothesis checks, pass rows included (the validate table)."""
    if m < 2:
        raise ParameterError(f"lattice size must be at least 2, got {m}")
    results = list(check_kernel_hypotheses(spec.kernel, m=m, tol=tol))
    t = spec.grid.nodes
    for label, e in (("gamma1 >= 0", spec.gamma1), ("gamma2 >= 0", spec.gamma2),
                     ("gamma1' >= 0", spec.dgamma1), ("gamma2' >= 0", spec.dgamma2)):
        vals = np.broadcast_to(np.asarray(eval_coefficient(e, t)), t.shape)
        worst = float(vals.min())
        if worst < -tol:
            j = int(vals.argmin())
            results.append(CheckResult(label, "warn", f"min {worst:.3g} at t={t[j]:.4g}"))
        else:
            results.append(CheckResult(label, "pass", f"min {worst:.3g} on grid nodes"))
    results.append(_check_f_sign(spec, m, tol))
    results.append(CheckResult("declared gamma' match", "pass",
                               f"finite differences agree within {FD_TOL:g}"))
    results.append(_check_functional_boundedness(spec, tol))
    return results


def _check_f_sign(spec: ProblemSpec, m: int, tol: float) -> CheckResult:
    ax_t = np.linspace(0.0, 1.0, m)
    ax_u = np.linspace(0.0, 1.0, m)
    vals = eval_nonlinearity(spec.f, ax_t[:, None, None], ax_u[None, :, None],
                             ax_u[None, None, :])
    vals = np.broadcast_to(np.asarray(vals), (m, m, m))
    worst = float(vals.min())
    if worst < -tol:
        i, j, k = np.unravel_index(int(vals.argmin()), vals.shape)
        return CheckResult("f >= 0", "warn",
                           f"min {worst:.3g} at t={ax_t[i]:.4g}, u={ax_u[j]:.4g}, v={ax_u[k]:.4g}")
    return CheckResult("f >= 0", "pass", f"min {worst:.3g} on {m}^3 lattice over [0,1]^3")


def _check_functional_boundedness(spec: ProblemSpec, tol: float) -> CheckResult:
    # 8 cone functions on each sphere rho = 0.5, 1, 2, as one stack.
    u = random_cone_function(spec.grid, np.random.default_rng(0),
                             norm=np.repeat([0.5, 1.0, 2.0], 8), count=24)
    # eval_functional raises on non-finite values
    worst = min(0.0, *(float(np.min(eval_functional(h, u))) for h in (spec.h1, spec.h2)))
    if worst < -tol:
        return CheckResult("functionals >= 0 and bounded", "warn",
                           f"found h[u] = {worst:.3g} < 0 on a cone sample")
    return CheckResult("functionals >= 0 and bounded", "pass",
                       "finite and non-negative on sampled cone functions")


def apply_T(spec: ProblemSpec, u: GridFunction) -> GridFunction:
    """One application of the operator; u must lie in the cone (within tolerance).

    Values and derivative rows use the same quadrature grid as u.  Tiny
    negative samples (cone drift within tolerance) are clamped to zero
    before f sees them, since f is only defined on [0, inf)^2.  A stack
    is mapped row by row in one pass; a non-finite f or h_i value raises
    an EvaluationError whose ``rows`` names the failing rows.
    """
    defect = np.atleast_1d(cone_defect(u))
    outside = defect > CONE_TOL
    if outside.any():
        i = int(np.argmax(outside))
        which = f"row {i} of the input stack" if u.is_stack else "input function"
        raise ParameterError(
            f"{which} leaves the cone by {defect[i]:.3g} (tolerance {CONE_TOL:g})"
        )
    grid = u.grid
    t = grid.nodes
    uc = np.maximum(u.values, 0.0)
    vc = np.maximum(u.dvalues, 0.0)
    rows = uc.shape[0] if u.is_stack else None
    fvals = np.broadcast_to(np.asarray(eval_nonlinearity(spec.f, t, uc, vc, rows=rows)), uc.shape)
    h1v = np.asarray(eval_functional(spec.h1, u))[..., None]
    h2v = np.asarray(eval_functional(spec.h2, u))[..., None]
    g1, g2, dg1, dg2 = _coefficient_samples(spec, grid)
    integral, dintegral = spec.kernel.integrals(grid, fvals)
    values = spec.eta1 * g1 * h1v + spec.eta2 * g2 * h2v + spec.lam * integral
    dvalues = spec.eta1 * dg1 * h1v + spec.eta2 * dg2 * h2v + spec.lam * dintegral
    return GridFunction(grid, values, dvalues)


def _coefficient_samples(spec: ProblemSpec, grid: Grid) -> tuple[np.ndarray, ...]:
    # Read-only (broadcast) views, shared by every apply_T on this grid.
    # An evaluation error is not cached, so it surfaces on each call.
    samples = spec._coefficient_cache.get(grid)
    if samples is None:
        t = grid.nodes
        samples = tuple(np.broadcast_to(np.asarray(eval_coefficient(e, t)), t.shape)
                        for e in (spec.gamma1, spec.gamma2, spec.dgamma1, spec.dgamma2))
        spec._coefficient_cache[grid] = samples
    return samples


# ---------------------------------------------------------------------------
# problem files

_REQUIRED = {
    "gamma": ("gamma1", "gamma2", "dgamma1", "dgamma2"),
    "functionals": ("h1", "h2"),
    "nonlinearity": ("f",),
    "parameters": ("lambda", "eta1", "eta2"),
}


def load_problem(path: str, n: int = 256, validate: bool = True) -> ProblemSpec:
    """Read a problem file (format in docs/problem-format.md)."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh, source=str(path))
    except OSError as exc:
        raise ProblemFileError(f"cannot read problem file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc
    return _spec_from_config(cp, path, n=n, validate=validate)


def loads_problem(text: str, n: int = 256, validate: bool = True) -> ProblemSpec:
    """Parse a problem declaration from a string (tests, docs examples)."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ProblemFileError(f"<string>: {exc}") from exc
    return _spec_from_config(cp, "<string>", n=n, validate=validate)


def _spec_from_config(cp: configparser.ConfigParser, path, n: int, validate: bool) -> ProblemSpec:
    for section, keys in _REQUIRED.items():
        if not cp.has_section(section):
            raise ProblemFileError(f"{path}: missing [{section}] section")
        for key in keys:
            if not cp.has_option(section, key):
                raise ProblemFileError(f"{path}: missing key {key!r} in [{section}]")

    def const(section: str, key: str) -> float:
        src = cp.get(section, key)
        try:
            return eval_constant(parse(src, "constant"))
        except Exception as exc:
            raise ProblemFileError(f"{path}: [{section}] {key} = {src!r}: {exc}") from exc

    kernel = _kernel_from_config(cp, path)
    try:
        bounds, witness = _bounds_from_config(cp, path)
        return make_spec(
            kernel,
            gamma1=cp.get("gamma", "gamma1"),
            gamma2=cp.get("gamma", "gamma2"),
            dgamma1=cp.get("gamma", "dgamma1"),
            dgamma2=cp.get("gamma", "dgamma2"),
            h1=cp.get("functionals", "h1"),
            h2=cp.get("functionals", "h2"),
            f=cp.get("nonlinearity", "f"),
            lam=const("parameters", "lambda"),
            eta1=const("parameters", "eta1"),
            eta2=const("parameters", "eta2"),
            n=n,
            bounds=bounds,
            witness=witness,
            validate=validate,
        )
    except ProblemFileError:
        raise
    except (ParameterError,) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except Exception as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc


def _kernel_from_config(cp: configparser.ConfigParser, path) -> Kernel:
    if not cp.has_section("kernel"):
        raise ProblemFileError(f"{path}: missing [kernel] section")
    if cp.has_option("kernel", "name"):
        name = cp.get("kernel", "name").strip()
        if name != "focal":
            raise ProblemFileError(f"{path}: unknown built-in kernel {name!r}")
        return FocalKernel()
    if not (cp.has_option("kernel", "k") and cp.has_option("kernel", "dk")):
        raise ProblemFileError(f"{path}: [kernel] needs either name=focal or both k and dk")
    try:
        return kernel_from_exprs(
            cp.get("kernel", "k"),
            cp.get("kernel", "dk"),
            cp.get("kernel", "phi", fallback=None),
            cp.get("kernel", "psi", fallback=None),
        )
    except Exception as exc:
        raise ProblemFileError(f"{path}: [kernel]: {exc}") from exc


def _bounds_from_config(cp, path) -> tuple[BoundSet | None, LinearGrowthWitness | None]:
    if not cp.has_section("bounds"):
        return None, None
    sec = cp["bounds"]

    def bound_expr(key: str) -> Expr | None:
        if key not in sec:
            return None
        try:
            return parse(sec[key], "bound")
        except Exception as exc:
            raise ProblemFileError(f"{path}: [bounds] {key} = {sec[key]!r}: {exc}") from exc

    entries = {key: bound_expr(key) for key in ("f_upper", "f_lower", "h1", "h2")}
    bounds = None
    if any(e is not None for e in entries.values()):
        bounds = BoundSet(**entries)

    witness_keys = [k for k in ("tau", "xi1", "xi2") if k in sec]
    witness = None
    if witness_keys:
        if len(witness_keys) != 3:
            raise ProblemFileError(
                f"{path}: [bounds] declares {witness_keys} but a witness needs tau, xi1 and xi2"
            )
        try:
            witness = LinearGrowthWitness(
                tau=eval_constant(parse(sec["tau"], "constant")),
                xi1=eval_constant(parse(sec["xi1"], "constant")),
                xi2=eval_constant(parse(sec["xi2"], "constant")),
            )
        except ProblemFileError:
            raise
        except Exception as exc:
            raise ProblemFileError(f"{path}: [bounds] witness: {exc}") from exc
    return bounds, witness
