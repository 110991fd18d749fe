"""Command line entry point: validate, certify, solve, sweep.

Exit codes: 0 pass/completed, 1 certificate fail or no requested solution,
2 usage or input error.  Machine-readable output is a line-oriented
key=value record (docs/problem-format.md); `solve` and `sweep` write data
tables with the record as '# ' comment lines.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from .bounds import BoundSet
from .certificate import check_existence, check_nonexistence
from .bounds import falsify_linear_growth
from .errors import HammcertError, ParameterError, ProblemFileError
from .kernel import constant_K, constant_Kstar
from .problem import load_problem, validate_spec
from .solver import multistart_solve
from .sweep import axis_values, conflict_cells, run_sweep

# ---------------------------------------------------------------------------
# key=value records

def format_record(record: dict) -> str:
    lines = []
    for key, val in record.items():
        if isinstance(val, bool):
            text = "true" if val else "false"
        elif val is None:
            text = "none"
        elif isinstance(val, float):
            text = repr(float(val))  # plain float repr even for numpy scalars
        else:
            text = str(val)
        lines.append(f"{key}={text}")
    return "\n".join(lines) + "\n"


def parse_record(text: str) -> dict:
    """Inverse of format_record; also reads '# '-prefixed record lines."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("#"):
            line = line.lstrip("#").strip()
        if not line or "=" not in line:
            continue
        key, _, raw = line.partition("=")
        out[key.strip()] = _sniff(raw.strip())
    return out


def _sniff(raw: str):
    if raw == "true":
        return True
    if raw == "false":
        return False
    if raw == "none":
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _write_out(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# commands

def _print_warnings(warns) -> None:
    for warn in warns:
        print(f"warning: {warn.name}: {warn.detail}", file=sys.stderr)


def _load(args):
    """The problem file, with each hypothesis warning of its load on stderr."""
    spec = load_problem(args.problem, n=args.n)
    _print_warnings(spec.warnings)
    return spec


def _cmd_validate(args) -> int:
    # One validation pass at --m feeds both the stderr warnings and the table.
    spec = load_problem(args.problem, n=args.n, validate=False)
    try:
        results = validate_spec(spec, m=args.m)
    except Exception as exc:  # reported like a failed check at load
        raise ProblemFileError(f"{args.problem}: {exc}") from exc
    warns = [r for r in results if not r.ok]
    _print_warnings(warns)
    width = max(len(r.name) for r in results)
    for res in results:
        print(f"{res.name:<{width}}  {res.status.upper():4}  {res.detail}")
    print(f"{len(results) - len(warns)}/{len(results)} checks passed")
    return 1 if warns else 0


def _bounds_for(spec, args) -> BoundSet:
    base = spec.bounds if spec.bounds is not None else BoundSet()
    return base.with_sampler(spec, m=args.m, samples=args.samples, seed=args.seed)


def _cmd_certify_existence(args) -> int:
    spec = _load(args)
    cert = check_existence(spec, _bounds_for(spec, args), args.r, args.R)
    K = constant_K(spec.kernel, spec.grid)
    Kstar = constant_Kstar(spec.kernel, spec.grid)
    print(f"existence certificate for {args.problem}")
    print(f"  parameters: lambda={spec.lam!r}, eta1={spec.eta1!r}, eta2={spec.eta2!r}")
    print(f"  annulus: r={cert.r!r}, R={cert.R!r}; kernel constants K={K!r}, K*={Kstar!r}")
    print(f"  value branch: {cert.lhs_value_branch!r} (needs <= R)")
    print(f"  deriv branch: {cert.lhs_deriv_branch!r} (needs <= R)")
    print(f"  idx0 value:   {cert.lhs_idx0!r} (needs >= r)")
    print(f"  margins: upper={cert.upper_margin!r}, lower={cert.lower_margin!r}")
    for label, entry in (("f_upper(R)", cert.f_upper_R), ("f_lower(r)", cert.f_lower_r),
                         ("H1(R)", cert.h1_R), ("H2(R)", cert.h2_R)):
        print(f"  {label} = {entry.value!r} [{entry.rigor}; raw {entry.raw!r}]")
    print(f"  verdict: {'PASS' if cert.passed else 'FAIL'} ({cert.verdict})")
    record = {
        "command": "certify-existence",
        "problem": args.problem,
        "verdict": cert.verdict,
        "passed": cert.passed,
        "rigor": cert.rigor,
        "r": cert.r,
        "R": cert.R,
        "value_branch": cert.lhs_value_branch,
        "deriv_branch": cert.lhs_deriv_branch,
        "idx0_value": cert.lhs_idx0,
        "upper_margin": cert.upper_margin,
        "lower_margin": cert.lower_margin,
        "K": K,
        "Kstar": Kstar,
        "f_upper_R": cert.f_upper_R.value,
        "f_upper_R_raw": cert.f_upper_R.raw,
        "f_upper_R_rigor": cert.f_upper_R.rigor,
        "f_lower_r": cert.f_lower_r.value,
        "f_lower_r_raw": cert.f_lower_r.raw,
        "f_lower_r_rigor": cert.f_lower_r.rigor,
        "h1_R": cert.h1_R.value,
        "h2_R": cert.h2_R.value,
        "lambda": spec.lam,
        "eta1": spec.eta1,
        "eta2": spec.eta2,
        "n": spec.grid.n,
        "seed": args.seed,
        "warnings": len(spec.warnings),
    }
    _write_out(args.out, format_record(record))
    return 0 if cert.passed else 1


def _cmd_certify_nonexistence(args) -> int:
    spec = _load(args)
    if spec.witness is None:
        raise ParameterError(
            f"{args.problem} declares no growth witness (tau, xi1, xi2 in [bounds])"
        )
    if args.skip_falsification:
        falsification = "skipped"
        detail = "user forced skip"
    else:
        result = falsify_linear_growth(spec, spec.witness, budget=args.budget, seed=args.seed)
        if not result.consistent:
            ce = result.counterexample
            print(f"witness falsified after {result.points_checked} samples: {ce.detail}")
            record = {
                "command": "certify-nonexistence",
                "problem": args.problem,
                "verdict": "witness-falsified",
                "passed": False,
                "falsification": "counterexample",
                "counterexample_kind": ce.kind,
                "counterexample_detail": ce.detail,
                "seed": args.seed,
                "warnings": len(spec.warnings),
            }
            _write_out(args.out, format_record(record))
            return 1
        falsification = "consistent"
        detail = f"{result.points_checked} samples found no violation"
    cert = check_nonexistence(spec, spec.witness)
    print(f"non-existence certificate for {args.problem}")
    print(f"  parameters: lambda={spec.lam!r}, eta1={spec.eta1!r}, eta2={spec.eta2!r}")
    print(f"  witness: tau={spec.witness.tau!r}, xi1={spec.witness.xi1!r}, xi2={spec.witness.xi2!r}")
    print(f"  falsification: {falsification} ({detail})")
    print(f"  lhs = {cert.lhs!r} (needs < 1, strict); margin = {cert.margin!r}")
    print(f"  verdict: {'PASS' if cert.passed else 'FAIL'}")
    record = {
        "command": "certify-nonexistence",
        "problem": args.problem,
        "verdict": "pass" if cert.passed else "fail",
        "passed": cert.passed,
        "lhs": cert.lhs,
        "margin": cert.margin,
        "tau": spec.witness.tau,
        "xi1": spec.witness.xi1,
        "xi2": spec.witness.xi2,
        "falsification": falsification,
        "lambda": spec.lam,
        "eta1": spec.eta1,
        "eta2": spec.eta2,
        "n": spec.grid.n,
        "seed": args.seed,
        "warnings": len(spec.warnings),
    }
    _write_out(args.out, format_record(record))
    return 0 if cert.passed else 1


def _annulus_args(args) -> tuple[float | None, float | None]:
    if (args.r is None) != (args.R is None):
        raise ParameterError("--r and --R must be given together")
    if args.r is not None and not 0 < args.r < args.R:
        raise ParameterError(f"need 0 < r < R, got r={args.r}, R={args.R}")
    return args.r, args.R


def _cmd_solve(args) -> int:
    spec = _load(args)
    r, R = _annulus_args(args)
    started = time.perf_counter()
    results = multistart_solve(spec, starts=args.starts, seed=args.seed,
                               tol=args.tol, max_iter=args.max_iter, r=r, R=R)
    elapsed = time.perf_counter() - started
    print(f"solve {args.problem}: {len(results)} distinct results "
          f"from {args.starts} starts in {elapsed:.2f}s")
    for res in results:
        annulus = "-" if res.in_annulus is None else ("yes" if res.in_annulus else "no")
        print(f"  {res.status:<14} norm={res.norm:<12.6g} residual={res.residual:<10.3g} "
              f"iterations={res.iterations:<6} cone={'ok' if res.cone_ok else 'VIOLATED'} "
              f"annulus={annulus}")
    if r is not None:
        candidates = [x for x in results if x.converged and x.in_annulus]
    else:
        candidates = [x for x in results if x.converged]
    best = max(candidates, key=lambda x: x.norm) if candidates else None
    record = {
        "command": "solve",
        "problem": args.problem,
        "starts": args.starts,
        "results": len(results),
        "converged": sum(1 for x in results if x.converged),
        "found": best is not None,
        "r": r,
        "R": R,
        "tol": args.tol,
        "elapsed_s": elapsed,
        "n": spec.grid.n,
        "seed": args.seed,
        "warnings": len(spec.warnings),
    }
    if best is not None:
        record.update({
            "norm": best.norm,
            "residual": best.residual,
            "iterations": best.iterations,
            "cone_ok": best.cone_ok,
            "in_annulus": best.in_annulus,
        })
        print(f"selected solution: norm={best.norm!r}, residual={best.residual!r}")
    else:
        print("no converged solution matched the request")
    if args.out:
        lines = ["# " + line for line in format_record(record).splitlines()]
        lines.append("t,u,du")
        if best is not None:
            for t, u_val, du in zip(best.u.grid.nodes, best.u.values, best.u.dvalues):
                lines.append(f"{float(t)!r},{float(u_val)!r},{float(du)!r}")
        _write_out(args.out, "\n".join(lines) + "\n")
    return 0 if best is not None else 1


def _parse_axis(text: str, name: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"--{name} expects start:stop:steps, got {text!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParameterError(f"--{name} expects start:stop:steps, got {text!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ParameterError(f"--{name} endpoints must be finite, got {text!r}")
    return start, stop, steps


def _cmd_sweep(args) -> int:
    spec = _load(args)
    if not 0 < args.r < args.R:
        raise ParameterError(f"need 0 < r < R, got r={args.r}, R={args.R}")
    witness = None
    if args.witness:
        if spec.witness is None:
            raise ParameterError(
                f"{args.problem} declares no growth witness (tau, xi1, xi2 in [bounds])"
            )
        witness = spec.witness
        if not args.skip_falsification:
            result = falsify_linear_growth(spec, witness, budget=args.budget, seed=args.seed)
            if not result.consistent:
                raise ParameterError(
                    f"declared witness falsified: {result.counterexample.detail}"
                )
    axes = {name: axis_values(*_parse_axis(getattr(args, dest), name))
            for name, dest in (("lambda", "lam"), ("eta1", "eta1"), ("eta2", "eta2"))}
    cells = run_sweep(spec, axes["lambda"], axes["eta1"], axes["eta2"],
                      _bounds_for(spec, args), args.r, args.R, witness=witness)
    record = {
        "command": "sweep",
        "problem": args.problem,
        "r": args.r,
        "R": args.R,
        "cells": len(cells),
        "existence": sum(1 for c in cells if c.classification == "existence"),
        "nonexistence": sum(1 for c in cells if c.classification == "nonexistence"),
        "both_fail": sum(1 for c in cells if c.classification == "both-fail"),
        "conflict": sum(1 for c in cells if c.classification == "conflict"),
        "witness": witness is not None,
        "n": spec.grid.n,
        "seed": args.seed,
        "warnings": len(spec.warnings),
    }
    lines = ["# " + line for line in format_record(record).splitlines()]
    lines.append("lambda,eta1,eta2,classification,value_branch,deriv_branch,idx0,nonexistence_lhs,rigor")
    for c in cells:
        nonex = "" if c.nonexistence_lhs is None else repr(c.nonexistence_lhs)
        lines.append(f"{c.lam!r},{c.eta1!r},{c.eta2!r},{c.classification},"
                     f"{c.value_branch!r},{c.deriv_branch!r},{c.idx0_value!r},{nonex},{c.rigor}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_out(args.out, text)
        print(f"{len(cells)} cells written to {args.out}: "
              f"{record['existence']} existence, {record['nonexistence']} nonexistence, "
              f"{record['both_fail']} both-fail, {record['conflict']} conflict")
    else:
        sys.stdout.write(text)
    conflicts = conflict_cells(cells)
    if conflicts:
        c = conflicts[0]
        print(f"CONFLICT: both certificates passed at {len(conflicts)} cells, e.g. "
              f"lambda={c.lam!r}, eta1={c.eta1!r}, eta2={c.eta2!r}; "
              f"the declared bounds and witness are mutually inconsistent",
              file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser

def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", required=True, help="path to the problem file")
    p.add_argument("--n", type=int, default=256, help="grid subintervals (default 256)")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized sampling (default 0)")
    p.add_argument("--m", type=_int_at_least(2), default=64,
                   help="lattice size for sampled checks/bounds (at least 2)")
    p.add_argument("--samples", type=_int_at_least(0), default=200,
                   help="cone samples for functional bounds")
    p.add_argument("--out", default=None, help="write the machine-readable record/table here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hammcert",
        description="Certify and locate non-negative non-decreasing solutions of "
                    "perturbed Hammerstein integral equations with derivative dependence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the sampled hypothesis checks on a problem file")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("certify-existence", help="evaluate the annulus existence certificate")
    _add_common(p)
    p.add_argument("--r", type=float, required=True, help="inner radius (0 < r < R)")
    p.add_argument("--R", type=float, required=True, help="outer radius")
    p.set_defaults(func=_cmd_certify_existence)

    p = sub.add_parser("certify-nonexistence", help="evaluate the linear-growth certificate")
    _add_common(p)
    p.add_argument("--budget", type=int, default=4096, help="falsification sample budget")
    p.add_argument("--skip-falsification", action="store_true",
                   help="trust the declared witness without sampling (recorded in output)")
    p.set_defaults(func=_cmd_certify_nonexistence)

    p = sub.add_parser("solve", help="locate fixed points by multistart Picard iteration")
    _add_common(p)
    p.add_argument("--r", type=float, default=None, help="inner radius of the target annulus")
    p.add_argument("--R", type=float, default=None, help="outer radius of the target annulus")
    p.add_argument("--starts", type=int, default=8, help="number of starts (default 8)")
    p.add_argument("--tol", type=float, default=1e-10, help="fixed point tolerance in C1 norm")
    p.add_argument("--max-iter", type=int, default=10000, help="iteration cap per start")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sweep", help="classify a parameter box by certificate")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", required=True, metavar="A:B:K",
                   help="lambda axis as start:stop:steps")
    p.add_argument("--eta1", required=True, metavar="A:B:K", help="eta1 axis")
    p.add_argument("--eta2", required=True, metavar="A:B:K", help="eta2 axis")
    p.add_argument("--r", type=float, required=True, help="inner radius for existence")
    p.add_argument("--R", type=float, required=True, help="outer radius for existence")
    p.add_argument("--witness", action="store_true",
                   help="also run the non-existence certificate with the file's witness")
    p.add_argument("--budget", type=int, default=4096, help="witness falsification budget")
    p.add_argument("--skip-falsification", action="store_true",
                   help="trust the declared witness without sampling")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help (0) and usage errors (2)
        return exc.code if exc.code == 0 else 2
    try:
        return args.func(args)
    except HammcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
