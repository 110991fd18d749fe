"""Command line entry point: validate, certify, solve, sweep.

Exit codes: 0 pass/completed, 1 certificate fail or no requested solution,
2 usage or input error.  Machine-readable output is a line-oriented
key=value record (docs/problem-format.md); `solve` and `sweep` write data
tables with the record as '# ' comment lines.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from .bounds import BoundSet, falsify_linear_growth
from .certificate import check_existence, check_nonexistence, check_radii
from .errors import HammcertError, ParameterError
from .problem import GRID_N, load_problem
from .solver import MAX_ITERATIONS, STARTS, TOL_FIXPOINT, multistart_solve
from .sweep import axis_values, run_sweep

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


def _record(args, spec, fields: dict) -> dict:
    """Every command's record: command and problem, the command's own
    fields, then the grid size, seed and load-warning count."""
    return {"command": args.command, "problem": args.problem, **fields,
            "n": spec.grid.n, "seed": args.seed, "warnings": len(spec.warnings)}


def _cells(column):
    """A table column's cells: floats by repr, None empty, anything else by str."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return map(repr, column.tolist())
    return ("" if v is None else str(v) for v in column)


def _table(record: dict, header: str, columns) -> str:
    """A CSV data table, given column by column, under its record as '# ' lines."""
    lines = ["# " + line for line in format_record(record).splitlines()] + [header]
    lines.extend(map(",".join, zip(*map(_cells, columns))))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands

def _capped(cert) -> str | None:
    """The record's heuristic_inputs, printed unless None: the entries and
    failed load checks that kept the certificate from 'certified'."""
    capped = ", ".join(cert.heuristic_inputs) or None
    if capped:
        print(f"  heuristic inputs: {capped}")
    return capped


def _count(k: int, noun: str) -> str:
    return f"{k} {noun}{'' if k == 1 else 's'}"


def _load(args):
    """The problem file, with each hypothesis warning of its load on stderr."""
    spec = load_problem(args.problem, n=args.n)
    for warn in spec.warnings:
        print(f"warning: {warn.name}: {warn.detail}", file=sys.stderr)
    return spec


def _cmd_validate(args) -> int:
    # The load's checks feed both the stderr warnings and the table.
    spec = _load(args)
    width = max(len(r.name) for r in spec.checks)
    for res in spec.checks:
        print(f"{res.name:<{width}}  {res.status.upper():4}  {res.detail}")
    print(f"{len(spec.checks) - len(spec.warnings)}/{len(spec.checks)} checks passed")
    return 1 if spec.warnings else 0


def _cmd_certify_existence(args) -> int:
    spec = _load(args)
    cert = check_existence(spec, BoundSet(spec), args.r, args.R)
    print(f"existence certificate for {args.problem}")
    print(f"  parameters: lambda={spec.lam!r}, eta1={spec.eta1!r}, eta2={spec.eta2!r}")
    print(f"  annulus: r={cert.r!r}, R={cert.R!r}; kernel constants K={cert.K!r}, K*={cert.Kstar!r}")
    print(f"  value branch: {cert.lhs_value_branch!r} (needs <= R)")
    print(f"  deriv branch: {cert.lhs_deriv_branch!r} (needs <= R)")
    print(f"  idx0 value:   {cert.lhs_idx0!r} (needs >= r)")
    print(f"  margins: upper={cert.upper_margin!r}, lower={cert.lower_margin!r}")
    for label, entry in (("f_upper(R)", cert.f_upper_R), ("f_lower(r)", cert.f_lower_r),
                         ("H1(R)", cert.h1_R), ("H2(R)", cert.h2_R)):
        print(f"  {label} = {entry.value!r} [{entry.rigor}; raw {entry.raw!r}]")
    capped = _capped(cert)
    print(f"  verdict: {'PASS' if cert.passed else 'FAIL'} ({cert.verdict})")
    record = _record(args, spec, {
        "verdict": cert.verdict,
        "passed": cert.passed,
        "rigor": cert.rigor,
        "heuristic_inputs": capped,
        "r": cert.r,
        "R": cert.R,
        "value_branch": cert.lhs_value_branch,
        "deriv_branch": cert.lhs_deriv_branch,
        "idx0_value": cert.lhs_idx0,
        "upper_margin": cert.upper_margin,
        "lower_margin": cert.lower_margin,
        "K": cert.K,
        "Kstar": cert.Kstar,
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
    })
    _write_out(args.out, format_record(record))
    return 0 if cert.passed else 1


def _falsify_witness(spec, args):
    """The falsifier's result on the file's growth witness; a file without a
    witness is an error."""
    if spec.witness is None:
        raise ParameterError(
            f"{args.problem} declares no growth witness (tau, xi1, xi2 in [bounds])"
        )
    return falsify_linear_growth(spec, spec.witness)


def _cmd_certify_nonexistence(args) -> int:
    spec = _load(args)
    result = _falsify_witness(spec, args)
    if not result.consistent:
        ce = result.counterexample
        print(f"witness falsified after {result.points_checked} samples: {ce.detail}")
        record = _record(args, spec, {
            "verdict": "witness-falsified",
            "passed": False,
            "falsification": "counterexample",
            "counterexample_kind": ce.kind,
            "counterexample_detail": ce.detail,
        })
        _write_out(args.out, format_record(record))
        return 1
    cert = check_nonexistence(spec, spec.witness)
    print(f"non-existence certificate for {args.problem}")
    print(f"  parameters: lambda={spec.lam!r}, eta1={spec.eta1!r}, eta2={spec.eta2!r}")
    print(f"  witness: tau={spec.witness.tau!r}, xi1={spec.witness.xi1!r}, xi2={spec.witness.xi2!r}")
    print(f"  falsification: consistent ({result.points_checked} samples found no violation)")
    print(f"  lhs = {cert.lhs!r} (needs < 1, strict); margin = {cert.margin!r}")
    capped = _capped(cert)
    print(f"  verdict: {'PASS' if cert.passed else 'FAIL'} (rigor: {cert.rigor})")
    record = _record(args, spec, {
        "verdict": "pass" if cert.passed else "fail",
        "passed": cert.passed,
        "rigor": cert.rigor,
        "heuristic_inputs": capped,
        "lhs": cert.lhs,
        "margin": cert.margin,
        "tau": spec.witness.tau,
        "xi1": spec.witness.xi1,
        "xi2": spec.witness.xi2,
        "falsification": "consistent",
        "lambda": spec.lam,
        "eta1": spec.eta1,
        "eta2": spec.eta2,
    })
    _write_out(args.out, format_record(record))
    return 0 if cert.passed else 1


def _annulus_args(args) -> tuple[float | None, float | None]:
    if (args.r is None) != (args.R is None):
        raise ParameterError("--r and --R must be given together")
    if args.r is not None:
        check_radii(args.r, args.R)
    return args.r, args.R


def _cmd_solve(args) -> int:
    spec = _load(args)
    r, R = _annulus_args(args)
    started = time.perf_counter()
    results = multistart_solve(spec, STARTS, TOL_FIXPOINT, MAX_ITERATIONS)
    elapsed = time.perf_counter() - started
    converged = sum(1 for x in results if x.converged)
    failed = len(results) - converged  # diverged or stopped at the cap

    def inside(res) -> bool | None:  # r <= norm <= R; None without --r/--R
        return None if r is None else r <= res.norm <= R

    print(f"solve {args.problem}: {_count(converged, 'distinct solution')} and "
          f"{_count(failed, 'failed start')} from {STARTS} starts in {elapsed:.2f}s")
    for res in results:
        annulus = {None: "-", True: "yes", False: "no"}[inside(res)]
        print(f"  {res.status:<14} norm={res.norm:<12.6g} residual={res.residual:<10.3g} "
              f"iterations={res.iterations:<6} cone={'ok' if res.cone_ok else 'VIOLATED'} "
              f"annulus={annulus}")
    candidates = [x for x in results if x.converged and inside(x) is not False]
    best = max(candidates, key=lambda x: x.norm) if candidates else None
    record = _record(args, spec, {
        "starts": STARTS,
        "failed_starts": failed,
        "converged": converged,
        "found": best is not None,
        "r": r,
        "R": R,
        "tol": TOL_FIXPOINT,
        "elapsed_s": elapsed,
    })
    if best is not None:
        record.update({
            "norm": best.norm,
            "residual": best.residual,
            "iterations": best.iterations,
            "cone_ok": best.cone_ok,
            "in_annulus": inside(best),
        })
        print(f"selected solution: norm={best.norm!r}, residual={best.residual!r}")
    else:
        print("no converged solution matched the request")
    if args.out:
        columns = () if best is None else (best.u.grid.nodes, best.u.values, best.u.dvalues)
        _write_out(args.out, _table(record, "t,u,du", columns))
    return 0 if best is not None else 1


def _parse_axis(text: str, name: str):
    """The lattice of one --lambda/--eta1/--eta2 axis given as start:stop:steps."""
    try:
        start, stop, steps = text.split(":")
        return axis_values(float(start), float(stop), int(steps))
    except ParameterError as exc:
        raise ParameterError(f"--{name}: {exc}") from exc
    except ValueError as exc:
        raise ParameterError(f"--{name} expects start:stop:steps, got {text!r}") from exc


def _cmd_sweep(args) -> int:
    spec = _load(args)
    _annulus_args(args)
    witness = None
    if args.witness:
        result = _falsify_witness(spec, args)
        if not result.consistent:
            raise ParameterError(f"declared witness falsified: {result.counterexample.detail}")
        witness = spec.witness
    axes = [_parse_axis(getattr(args, dest), name)
            for name, dest in (("lambda", "lam"), ("eta1", "eta1"), ("eta2", "eta2"))]
    table = run_sweep(BoundSet(spec), *axes, args.r, args.R, witness=witness)
    classes = table["classification"]
    record = _record(args, spec, {
        "r": args.r,
        "R": args.R,
        "cells": len(table),
        **{name.replace("-", "_"): np.count_nonzero(classes == name)
           for name in ("existence", "nonexistence", "both-fail", "conflict")},
        "witness": witness is not None,
    })
    text = _table(record, ",".join(table.dtype.names), (table[name] for name in table.dtype.names))
    if args.out:
        _write_out(args.out, text)
        print(f"{len(table)} cells written to {args.out}: "
              f"{record['existence']} existence, {record['nonexistence']} nonexistence, "
              f"{record['both_fail']} both-fail, {record['conflict']} conflict")
    else:
        sys.stdout.write(text)
    if record["conflict"]:
        c = table[np.argmax(classes == "conflict")]  # the first conflict cell
        print(f"CONFLICT: both certificates passed at {record['conflict']} cells, e.g. "
              f"lambda={float(c['lambda'])!r}, eta1={float(c['eta1'])!r}, "
              f"eta2={float(c['eta2'])!r}; "
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call; callers must not change it."""
    # Flag groups as parent parsers: each subcommand declares the flags its
    # handler reads, plus --seed, which goes into each record as seed= and
    # nowhere else; no parser takes a flag's prefix for it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--problem", required=True, help="path to the problem file")
    common.add_argument("--n", type=_int_at_least(2), default=GRID_N,
                        help="grid subintervals (default %(default)s, at least 2)")
    common.add_argument("--seed", type=_int_at_least(0), default=0,
                        help="accepted and recorded as seed=; no command reads it (default 0)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write the machine-readable record/table here")

    parser = argparse.ArgumentParser(
        prog="hammcert",
        description="Certify and locate non-negative non-decreasing solutions of "
                    "perturbed Hammerstein integral equations with derivative dependence.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, parents, summary):
        p = sub.add_parser(name, parents=parents, help=summary, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    command("validate", _cmd_validate, [common],
            "run the sampled hypothesis checks on a problem file")

    p = command("certify-existence", _cmd_certify_existence, [common, out],
                "evaluate the annulus existence certificate")
    p.add_argument("--r", type=float, required=True, help="inner radius (0 < r < R)")
    p.add_argument("--R", type=float, required=True, help="outer radius")

    command("certify-nonexistence", _cmd_certify_nonexistence, [common, out],
            "evaluate the linear-growth certificate")

    p = command("solve", _cmd_solve, [common, out],
                "locate fixed points by multistart Picard iteration")
    p.add_argument("--r", type=float, default=None, help="inner radius of the target annulus")
    p.add_argument("--R", type=float, default=None, help="outer radius of the target annulus")

    p = command("sweep", _cmd_sweep, [common, out],
                "classify a parameter box by certificate")
    p.add_argument("--lambda", dest="lam", required=True, metavar="A:B:K",
                   help="lambda axis as start:stop:steps")
    p.add_argument("--eta1", required=True, metavar="A:B:K", help="eta1 axis")
    p.add_argument("--eta2", required=True, metavar="A:B:K", help="eta2 axis")
    p.add_argument("--r", type=float, required=True, help="inner radius for existence")
    p.add_argument("--R", type=float, required=True, help="outer radius for existence")
    p.add_argument("--witness", action="store_true",
                   help="also run the non-existence certificate with the file's witness")
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
    except (OSError, MemoryError) as exc:  # a bare MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
