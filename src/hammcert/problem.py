"""Problem assembly: kernel, coefficient pair, functionals, nonlinearity,
parameters, and the operator

    Tu(t) = eta1*gamma1(t)*h1[u] + eta2*gamma2(t)*h2[u]
            + lambda * int_0^1 k(t,s) f(s, u(s), u'(s)) ds,

whose derivative row swaps in dk = dk/dt and gamma_i'.  Both are derived
from k and gamma_i; only the built-in focal kernel writes its dk out.
Problems are declared in a flat INI-style file (see docs/problem-format.md).
The loader samples the standing hypotheses on LATTICE_M-point lattices
and, for the functionals, on the sphere_family of CHECK_KNOTS knots, built
and evaluated in slabs of at most LATTICE_SLAB samples, and keeps the
whole table as ``ProblemSpec.checks``: a sign violation of the sampled
data is a failed row, listed again in ``warnings``; bad parameters,
unknown sections or keys and non-finite samples are errors.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .bounds import CHECK_KNOTS, LATTICE_M, LinearGrowthWitness, functionals_on_sphere
from .errors import CheckResult, ParameterError, ProblemFileError, ShapeError
from .expr import (Expr, derived_entry, eval_coefficient, eval_constant, eval_functional,
                   eval_nonlinearity, lattice_extrema, parse_entry)
from .grid import CONE_TOL, Grid, GridFunction, cone_defect, sign_check, sphere_row_name
from .kernel import FocalKernel, Kernel, check_kernel_hypotheses, kernel_from_exprs

GRID_N = 256  # the grid subintervals of a load that names none


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """One fully assembled problem instance.  Immutable; solves may share it."""

    kernel: Kernel
    gamma1: Expr
    gamma2: Expr
    h1: Expr
    h2: Expr
    f: Expr
    lam: float
    eta1: float
    eta2: float
    grid: Grid
    bounds: dict = field(default_factory=dict)  # declared [bounds] slot -> its AST in rho
    witness: LinearGrowthWitness | None = None
    # The sampled hypothesis checks of the load, pass rows included.  A
    # replace() copy keeps them as loaded; validate_spec re-checks a copy.
    checks: tuple = field(default=())

    # gamma_i', derived from gamma_i when asked for: no copy goes stale.
    dgamma1 = property(lambda self: derived_entry(self.gamma1, "t", "gamma1'"))
    dgamma2 = property(lambda self: derived_entry(self.gamma2, "t", "gamma2'"))
    warnings = property(lambda self: tuple(r for r in self.checks if not r.ok))

    @cached_property
    def coefficients(self) -> tuple[np.ndarray, ...]:
        """gamma1, gamma2, gamma1' and gamma2' on the nodes of the spec's
        grid, as read-only (broadcast) views shared by every caller.  Each
        replace() copy samples its own; an evaluation error is not cached,
        so it surfaces on each read.  Both gamma_i are evaluated before
        either gamma_i' is derived."""
        t = self.grid.nodes
        return tuple(np.broadcast_to(np.asarray(eval_coefficient(getattr(self, key), t)), t.shape)
                     for key in ("gamma1", "gamma2", "dgamma1", "dgamma2"))


def validate_spec(spec: ProblemSpec) -> list[CheckResult]:
    """All sampled hypothesis checks, pass rows included (the validate table)."""
    results = check_kernel_hypotheses(spec.kernel, LATTICE_M)
    for label, vals in zip(("gamma1 >= 0", "gamma2 >= 0", "gamma1' >= 0", "gamma2' >= 0"),
                           spec.coefficients):
        results.append(sign_check(label, float(vals.min()), (int(vals.argmin()),),
                                  {"t": spec.grid.nodes}, "on grid nodes"))
    results.append(_check_f_sign(spec))
    results.append(_check_functional_boundedness(spec))
    return results


def _check_f_sign(spec: ProblemSpec) -> CheckResult:
    ax = np.linspace(0.0, 1.0, LATTICE_M)
    worst, at, _, _ = lattice_extrema(spec.f, ax, ax, ax)
    return sign_check("f >= 0", worst, at, {"t": ax, "u": ax, "v": ax},
                      f"on {LATTICE_M}^3 lattice over [0,1]^3")


def _check_functional_boundedness(spec: ProblemSpec) -> CheckResult:
    # The zero function, then the sphere_family on rho = 0.5, 1 and 2: 40 rows.
    values, params, _ = functionals_on_sphere((spec.h1, spec.h2), spec.grid,
                                              (0.0, 0.5, 1.0, 2.0), CHECK_KNOTS)
    i, row = np.unravel_index(int(np.argmin(values)), values.shape)  # h1 first, then by row
    if values[i, row] < -CONE_TOL:
        return CheckResult("functionals >= 0 and bounded", "warn",
                           f"h{i + 1}[{sphere_row_name(*params[row])}] = {values[i, row]:.3g} < 0")
    return CheckResult("functionals >= 0 and bounded", "pass",
                       "finite and non-negative on sampled cone functions")


def apply_T(spec: ProblemSpec, u: GridFunction) -> GridFunction:
    """One application of the operator; u must lie in the cone (within
    tolerance) and on the spec's grid, which the quadrature uses.  Tiny
    negative samples (cone drift within tolerance) are clamped to zero
    before f sees them, since f is only defined on [0, inf)^2.  A stack
    is mapped row by row in one pass; a non-finite f or h_i value raises
    an EvaluationError that names its entry, with the failing rows in ``rows``.
    Each temporary stack goes as soon as it has been read, and both rows
    are summed in place, in the order the formula reads, so that a stack
    of k rows needs a few stacks of working memory, not a dozen.
    """
    grid = spec.grid
    if u.grid != grid:
        raise ShapeError(f"grid mismatch: u on {u.grid!r}, the problem on {grid!r}")
    defect = np.atleast_1d(cone_defect(u))
    outside = defect > CONE_TOL
    if outside.any():
        i = int(np.argmax(outside))
        which = f"row {i} of the input stack" if u.is_stack else "input function"
        raise ParameterError(
            f"{which} leaves the cone by {defect[i]:.3g} (tolerance {CONE_TOL:g})"
        )
    t = grid.nodes
    uc = np.maximum(u.values, 0.0)
    vc = np.maximum(u.dvalues, 0.0)
    rows = uc.shape[0] if u.is_stack else None
    fvals = np.asarray(eval_nonlinearity(spec.f, t, uc, vc, rows=rows))
    del uc, vc
    h1v = np.asarray(eval_functional(spec.h1, u))[..., None]
    h2v = np.asarray(eval_functional(spec.h2, u))[..., None]
    g1, g2, dg1, dg2 = spec.coefficients
    integral, dintegral = spec.kernel.integrals(grid, np.broadcast_to(fvals, u.values.shape))
    del fvals
    values = _weighted_sum(spec, g1, g2, h1v, h2v, integral)
    del integral
    dvalues = _weighted_sum(spec, dg1, dg2, h1v, h2v, dintegral)
    values.flags.writeable = dvalues.flags.writeable = False  # handed over, not copied
    return GridFunction(grid, values, dvalues)


def _weighted_sum(spec: ProblemSpec, g1, g2, h1v, h2v, integral: np.ndarray) -> np.ndarray:
    """eta1*g1*h1v + eta2*g2*h2v + lam*integral, added in that order into
    the first term; ``integral`` is scaled in place."""
    out = spec.eta1 * g1 * h1v
    out += spec.eta2 * g2 * h2v
    integral *= spec.lam
    out += integral
    return out


# ---------------------------------------------------------------------------
# problem files

# Every entry a problem file must declare, as section -> ((key, role), ...):
# the role an expression is parsed in, 'constant' for a number.
_ENTRIES = {
    "gamma": (("gamma1", "coefficient"), ("gamma2", "coefficient")),
    "functionals": (("h1", "functional"), ("h2", "functional")),
    "nonlinearity": (("f", "nonlinearity"),),
    "parameters": (("lambda", "constant"), ("eta1", "constant"), ("eta2", "constant")),
}
_KERNEL_KEYS = ("name", "k")
_BOUND_KEYS = ("f_upper", "f_lower", "h1", "h2")
_WITNESS_KEYS = ("tau", "xi1", "xi2")
# The keys each section may hold: the entries above and what the kernel and
# bounds readers read.
_KEYS = {"kernel": _KERNEL_KEYS, **{section: tuple(key for key, _ in entries)
                                    for section, entries in _ENTRIES.items()},
         "bounds": _BOUND_KEYS + _WITNESS_KEYS}


def load_problem(path: str, n: int = GRID_N) -> ProblemSpec:
    """Read a problem file (format in docs/problem-format.md)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read problem file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc
    return _spec_from_text(text, path, n)


def loads_problem(text: str, n: int = GRID_N) -> ProblemSpec:
    """Parse a problem declaration from a string (tests, docs examples)."""
    return _spec_from_text(text, "<string>", n)


def _spec_from_text(text: str, path, n: int) -> ProblemSpec:
    """The spec a problem text declares.  The first fault in load order wins
    (docs/problem-format.md), and every error names the file first."""
    # An inline comment starts at a '#' or ';' after whitespace; no
    # expression contains either character.
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text, source=str(path))
        # Plain dicts, each with the DEFAULT keys as the parser's lookups see
        # them; the parser is a web of cycles that, dropped now, dies young.
        conf = {section: dict(cp[section])
                for section in [cp.default_section] * bool(cp.defaults()) + cp.sections()}
        del cp
        for section, entries in _ENTRIES.items():
            if section not in conf:
                raise ProblemFileError(f"missing [{section}] section")
            for key, _ in entries:
                if key not in conf[section]:
                    raise ProblemFileError(f"missing key {key!r} in [{section}]")
        for section, keys in conf.items():
            if section not in _KEYS:
                raise ProblemFileError(f"unknown section [{section}] (allowed: {', '.join(_KEYS)})")
            for key in keys:
                if key not in _KEYS[section]:
                    raise ProblemFileError(f"unknown key {key!r} in [{section}] "
                                           f"(allowed: {', '.join(_KEYS[section])})")
        kernel = _kernel_from_config(conf)
        bounds, witness = _bounds_from_config(conf)
        lam, eta1, eta2 = params = [_constant(conf, "parameters", key)
                                    for key, _ in _ENTRIES["parameters"]]
        for (key, _), val in zip(_ENTRIES["parameters"], params):
            if val < 0:
                raise ParameterError(f"parameter {key} must be non-negative, got {val}")
        exprs = {key: parse_entry(section, key, conf[section][key], role)
                 for section, entries in _ENTRIES.items() if section != "parameters"
                 for key, role in entries}
        spec = ProblemSpec(kernel=kernel, **exprs, lam=lam, eta1=eta1, eta2=eta2,
                           grid=Grid(n), bounds=bounds, witness=witness)
        checked = replace(spec, checks=tuple(validate_spec(spec)))
        vars(checked)["coefficients"] = spec.coefficients  # same gamma_i and grid
        return checked
    except (ParameterError, ProblemFileError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except Exception as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc


def _constant(conf: dict, section: str, key: str) -> float:
    return eval_constant(parse_entry(section, key, conf[section][key], "constant"))


def _kernel_from_config(conf: dict) -> Kernel:
    if "kernel" not in conf:
        raise ProblemFileError("missing [kernel] section")
    name, k = (conf["kernel"].get(key) for key in _KERNEL_KEYS)
    if (name is None) == (k is None):
        raise ProblemFileError("[kernel] needs exactly one of name and k, "
                               f"got {'neither' if k is None else 'both'}")
    if k is not None:
        return kernel_from_exprs(k)
    if name.strip() != "focal":
        raise ProblemFileError(f"unknown built-in kernel {name.strip()!r}")
    return FocalKernel()


def _bounds_from_config(conf: dict) -> tuple[dict, LinearGrowthWitness | None]:
    """The declared bounds, slot -> AST in rho, and the growth witness, if
    [bounds] declares one."""
    sec = conf.get("bounds", {})
    bounds = {key: parse_entry("bounds", key, sec[key], "bound")
              for key in _BOUND_KEYS if key in sec}
    witness_keys = [k for k in _WITNESS_KEYS if k in sec]
    if not witness_keys:
        return bounds, None
    if len(witness_keys) != 3:
        raise ProblemFileError(
            f"[bounds] declares {witness_keys} but a witness needs tau, xi1 and xi2")
    try:
        return bounds, LinearGrowthWitness(*(_constant(conf, "bounds", key) for key in witness_keys))
    except ParameterError as exc:
        raise ProblemFileError(f"[bounds] witness: {exc}") from exc
