"""The benchmark's workloads: the CLI calls each one cycles through, and
what each call must return.

Every call is an argv for ``hammcert.cli.main``.  The expected outcomes pin
only what the paper fixes: the equality case of example1 (lower margin
exactly 0), the non-existence point (1/3, 1/4, 1/5) of example2 (lhs 0.95),
the nontrivial example1 solution of norm about 0.1094, the zero-only
solution set of example2, and a sweep of example2 with no existence and
no conflict cell.
Calls that use sampled bounds may pass or fail, since interval enclosures
and exact comparisons will legitimately change those verdicts; they must
still exit 0 or 1 with a record that agrees with the exit code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ANNULUS = ("--r", "0.05", "--R", "1")
BOX = ("--lambda", "0:1:8", "--eta1", "0:1:8", "--eta2", "0:1:8") + ANNULUS
SAMPLED_KEYS = ("f_upper", "f_lower", "h1", "h2")
DEFAULT_N = 256
EXAMPLE1_NORM = 0.1094
NORM_TOL = 1e-4

# Why each workload exists, and which layer it stresses.
WHY = {
    "solve_fine": "solve at n=1024 and 2048: dense kernel weights and apply_T do about 90% of the work",
    "default_grid": "every command at the default n=256 and an 8^3 sweep: validation, expressions and bounds dominate",
}


@dataclass(frozen=True)
class Call:
    command: str
    argv: tuple[str, ...]
    seed: int
    n: int
    out: Path | None  # the record the call must write; validate only prints
    expect: Callable[[int, dict], list[str]]


def _sniff(raw: str):
    if raw in ("true", "false"):
        return raw == "true"
    if raw == "none":
        return None
    for kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            pass
    return raw


def read_record(path: Path) -> dict:
    """The key=value lines at the top of an --out file ('# ' prefix allowed).

    Reading stops at the first line without '=', which is where the data
    table of solve and sweep starts.  The gate parses records itself rather
    than through ``hammcert.cli.parse_record``, the code it checks.
    """
    record = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                line = line[1:].strip()
            if "=" not in line:
                break
            key, _, raw = line.partition("=")
            record[key.strip()] = _sniff(raw.strip())
    return record


def _exit(rc: int, want: int) -> list[str]:
    return [] if rc == want else [f"exit {rc}, expected {want}"]


def _fields(**want) -> Callable[[int, dict], list[str]]:
    """Exit 0 and a record whose listed fields equal the given values."""
    def expect(rc: int, record: dict) -> list[str]:
        return _exit(rc, 0) + [f"{key}={record.get(key)!r}, expected {val!r}"
                               for key, val in want.items() if record.get(key) != val]
    return expect


def _sampled(rc: int, record: dict) -> list[str]:
    if rc not in (0, 1):
        return [f"exit {rc}, expected 0 or 1"]
    if not isinstance(record.get("passed"), bool):
        return [f"passed={record.get('passed')!r} is not a boolean"]
    return _exit(rc, 0 if record["passed"] else 1)


def _example1_solution(rc: int, record: dict) -> list[str]:
    problems = _fields(found=True, in_annulus=True, cone_ok=True)(rc, record)
    norm = record.get("norm")
    if not isinstance(norm, float) or abs(norm - EXAMPLE1_NORM) > NORM_TOL:
        problems.append(f"norm={norm!r}, expected {EXAMPLE1_NORM} +- {NORM_TOL}")
    return problems


def _zero_solution_only(rc: int, record: dict) -> list[str]:
    problems = _fields(found=True, converged=1)(rc, record)
    norm = record.get("norm")
    if not isinstance(norm, float) or norm > 1e-12:
        problems.append(f"norm={norm!r}, expected the zero solution only")
    return problems


def _validated(rc: int, stdout: str) -> list[str]:
    match = re.search(r"^(\d+)/(\d+) checks passed$", stdout, re.MULTILINE)
    if match is None:
        return ["no 'k/k checks passed' summary on stdout"]
    passed, total = int(match[1]), int(match[2])
    problems = _exit(rc, 0)
    if passed != total or total == 0:
        problems.append(f"{passed}/{total} checks passed, expected all")
    return problems


def check_call(call: Call, rc, stdout: str) -> list[str]:
    """Everything wrong with one call's outcome; empty when it is as expected.

    Besides the call's own expectation, the record must exist and name the
    command, seed and grid size that were asked for, so a call that
    returns without doing the work counts as failed.
    """
    if not isinstance(rc, int):
        return [f"main returned {rc!r}, not an exit code"]
    if call.out is None:
        return _validated(rc, stdout)
    if not call.out.is_file():
        return [f"exit {rc} but no record written to {call.out.name}"]
    record = read_record(call.out)
    problems = [f"{key}={record.get(key)!r}, expected {val!r}"
                for key, val in (("command", call.command), ("seed", call.seed), ("n", call.n))
                if record.get(key) != val]
    return problems + call.expect(rc, record)


def write_sampled_copy(src: Path, dst: Path) -> None:
    """Copy a problem file without its declared bounds, so every bound is
    sampled; the growth witness (tau, xi1, xi2) stays."""
    section = None
    kept, dropped = [], []
    for line in src.read_text(encoding="utf-8").splitlines(keepends=True):
        text = line.strip()
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1].strip()
        elif section == "bounds" and text.partition("=")[0].strip() in SAMPLED_KEYS:
            dropped.append(text.partition("=")[0].strip())
            continue
        kept.append(line)
    if sorted(dropped) != sorted(SAMPLED_KEYS):
        raise ValueError(f"{src} declares bounds {dropped}, expected {list(SAMPLED_KEYS)}")
    dst.write_text("".join(kept), encoding="utf-8")


def build(name: str, root: Path, work: Path, seed: int) -> list[Call]:
    """The calls of one workload, in cycle order; writes its inputs to work."""
    ex1 = root / "problems" / "example1.prob"
    ex2 = root / "problems" / "example2.prob"
    calls: list[Call] = []

    def add(command, problem, *extra, n=DEFAULT_N, expect=None, record=True):
        out = work / f"call{len(calls)}.out" if record else None
        argv = [command, "--problem", str(problem), *extra, "--seed", str(seed)]
        if n != DEFAULT_N:
            argv += ["--n", str(n)]
        if out is not None:
            argv += ["--out", str(out)]
        calls.append(Call(command, tuple(argv), seed, n, out, expect))

    if name == "solve_fine":
        # n=4096 (134 MB per weight matrix, 4-5 s per cycle) left too few
        # cycles in a run, and its timing followed the load of whatever
        # else shared the host's cache and memory.
        for n in (1024, 2048):
            add("solve", ex1, *ANNULUS, n=n, expect=_example1_solution)
            add("solve", ex2, n=n, expect=_zero_solution_only)
    elif name == "default_grid":
        sampled1 = work / "example1-sampled.prob"
        sampled2 = work / "example2-sampled.prob"
        write_sampled_copy(ex1, sampled1)
        write_sampled_copy(ex2, sampled2)
        add("validate", ex1, record=False)
        add("validate", ex2, record=False)
        add("certify-existence", ex1, *ANNULUS,
            expect=_fields(verdict="certified", lower_margin=0.0))
        add("certify-existence", sampled1, *ANNULUS, expect=_sampled)
        add("certify-existence", sampled2, *ANNULUS, expect=_sampled)
        add("certify-nonexistence", ex2, expect=_fields(verdict="pass", lhs=0.95))
        add("solve", ex1, *ANNULUS, expect=_example1_solution)
        add("solve", ex2, expect=_zero_solution_only)
        # Per-cell certificates and bound tree walks on a small lattice:
        # 20^3 sweeps, pure-Python tree walks, spread from run to run on a
        # shared 2-vCPU host by more than the benchmark's bound.
        add("sweep", ex2, *BOX, "--witness", expect=_fields(cells=512, existence=0, conflict=0))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return calls
