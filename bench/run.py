"""Closed-loop benchmark of the hammcert command line.

Run from the repository root:

    python3 bench/run.py --workload default_grid --seed 0 --seconds 60 --trace 0

A workload is a fixed list of CLI calls (bench/workloads.py).  They are
made in-process through ``hammcert.cli.main(argv)`` by a single client in
a closed loop: the next call starts when the previous one returns.  After
one untimed warm-up cycle the calls are cycled until --seconds have
passed.  --seed draws CYCLE_SEEDS seeds, and successive cycles take them
in turn; they reach the program only as ``--seed``.  How much work a call
does depends on its seed (the random starts of solve differ), so a run
covers many seeds rather than resting on one.  Every call's exit code and
record are checked (see workloads.py); a call with an unexpected outcome
counts as failed, ends the timed loop and makes the run exit 1.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced cycles (bench/tracing.py), so both see the same machine
conditions, and reports the per-layer metrics and the tracing overhead.

The report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics.  BLAS threading is left at the
user's default and recorded with the rest of the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up is sampled this many times, spread over the run, and reported as
# the median: machine speed drifts over seconds, more than a burst shows.
SETUP_SAMPLES = 7
# Seeds a run cycles through, drawn from --seed.
CYCLE_SEEDS = 8
# Tail percentile: the highest one with at least this many samples beyond it.
TAIL_BEYOND = 10


class CallLog:
    """Call durations per command, and what went wrong with any call."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # the first few, for the report

    def run(self, call: workloads.Call, cli) -> float:
        if call.out is not None and call.out.exists():
            call.out.unlink()
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(list(call.argv))
        except Exception:  # a traceback is an unexpected outcome, not a crash of the benchmark
            took = time.perf_counter() - start
            problems = ["raised " + traceback.format_exc(limit=-1).strip().replace("\n", " | ")]
        else:
            took = time.perf_counter() - start
            problems = workloads.check_call(call, rc, stdout.getvalue())
        self.attempted += 1
        if problems:
            self.failed += 1
        if problems and len(self.failures) < 10:
            err = stderr.getvalue().strip().splitlines()
            self.failures.append(f"{' '.join(call.argv)}: {'; '.join(problems)}"
                                 + (f" (stderr: {err[-1]})" if err else ""))
        self.durations.setdefault(call.command, []).append(took)
        return took

    def cycle(self, calls: list[workloads.Call], cli) -> float:
        """One pass over the calls; returns the time spent inside main()."""
        return sum(self.run(call, cli) for call in calls)


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its label.

    With too few samples for that, the maximum, labelled as such.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} (fewer than {TAIL_BEYOND + 1} samples)"
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], f"p{100 * rank / n:.1f}, {TAIL_BEYOND} beyond, n={n}"


def cycle_seeds(seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(CYCLE_SEEDS)]


def setup_seconds() -> float:
    """Fresh interpreter to the end of ``import hammcert``.

    The child reads the same monotonic clock as the parent, so interpreter
    teardown is not counted.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    code = "import hammcert, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1]) - start


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(np),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }


def _blas_threads(np) -> int | str:
    # numpy's wheels bundle a prefixed OpenBLAS; ask it for its thread count.
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


# The end-to-end metrics in the result line.  On a shared host the
# machine's speed swings by tens of percent over tens of seconds; the
# median over a whole run averages the swings, where a low percentile
# depends on whether the run happened to catch a fast spell.  The tail,
# the throughput and the per-command medians are printed only: each
# command runs in only some workloads, and the tail, set by a run's ten
# slowest cycles, follows the host's load more than the program's speed.
RESULT_METRICS = ("cycle_s_p50", "peak_rss_mb", "setup_s")


def end_to_end(durations: dict, cycles: list[float], setup: list[float]) -> dict:
    """Print every end-to-end metric with its sample count; return the
    RESULT_METRICS as name -> (value, unit)."""
    timed_calls = sum(len(v) for v in durations.values())
    tail_s, tail_label = tail(cycles)
    rows = [
        ("cycle_s_p50", statistics.median(cycles), "s", f"median, n={len(cycles)} cycles"),
        ("cycle_s_tail", tail_s, "s", tail_label),
        ("calls_per_s", timed_calls / sum(cycles), "1/s",
         f"{timed_calls} calls in {sum(cycles):.1f} s"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB",
         "max resident set of this process"),
        ("setup_s", statistics.median(setup), "s",
         f"median of {len(setup)} fresh interpreters importing hammcert"),
    ]
    rows += [(command.replace("-", "_") + "_ms", 1e3 * statistics.median(d), "ms",
              f"median, n={len(d)}")
             for command, d in sorted(durations.items())]
    for name, value, unit, note in rows:
        print(f"  {name:<26}{value:>14.4f} {unit:<5} ({note})")
    return {name: (value, unit) for name, value, unit, _ in rows if name in RESULT_METRICS}


def per_layer(plain: list[float], traced: list[float], tracers: list) -> dict:
    """Print and return every per-layer metric as name -> (value, unit)."""
    metrics = tracing.per_layer(tracers)
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain),
                                       "ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34}{value:>16.4f} {unit}")
    return metrics


@contextlib.contextmanager
def workload_cycles(args):
    """Import the program and yield (cycles, cli): one list of calls per
    cycle seed.  Inputs live in a temporary directory under bench/ that is
    removed afterwards."""
    sys.path.insert(0, str(SRC))
    import hammcert.cli as cli
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: imported hammcert from {cli.__file__}, not from {SRC}")
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=ROOT / "bench"))
    try:
        cycles = [workloads.build(args.workload, ROOT, work, seed)
                  for seed in cycle_seeds(args.seed)]
        yield cycles, cli
    finally:
        shutil.rmtree(work, ignore_errors=True)


def untraced_cycles(args, cycles, cli) -> tuple[CallLog, dict]:
    """Warm up, then run cycles[0], cycles[1], ... in turn for args.seconds,
    sampling set-up time along the way; returns the end-to-end metrics."""
    log = CallLog()
    log.cycle(cycles[0], cli)  # warm-up: first-call costs, not timed
    log.durations.clear()
    plain, setup = [], []
    start = next_setup = time.perf_counter()
    # A failed call already makes the result incorrect: stop measuring.
    while time.perf_counter() - start < args.seconds and not log.failed:
        if time.perf_counter() >= next_setup:
            setup.append(setup_seconds())
            next_setup += args.seconds / SETUP_SAMPLES
        plain.append(log.cycle(cycles[len(plain) % len(cycles)], cli))
    print(f"  {len(plain)} timed cycles of {len(cycles[0])} calls over "
          f"{min(len(plain), len(cycles))} seeds after one warm-up cycle")
    return log, end_to_end(log.durations, plain, setup)


def traced_cycles(args, cycles, cli) -> tuple[CallLog, dict, list[str]]:
    """Warm up, then alternate untraced and traced cycles of each seed in
    turn, for args.seconds and until every seed has had a traced cycle.

    Returns the call log, the per-layer metrics, and any problem with the
    run as a whole (counts that should repeat but did not).
    """
    log = CallLog()
    log.cycle(cycles[0], cli)
    log.durations.clear()
    plain, traced = [], []
    by_seed: dict[int, list] = {}
    start = time.perf_counter()
    while not log.failed:
        turn = len(plain) % len(cycles)
        plain.append(log.cycle(cycles[turn], cli))
        with tracing.installed(tracing.Tracer()) as tracer:
            traced.append(log.cycle(cycles[turn], cli))
        by_seed.setdefault(turn, []).append(tracer)
        if time.perf_counter() - start >= args.seconds and len(by_seed) == len(cycles):
            break
    print(f"  {len(plain) + len(traced)} timed cycles of {len(cycles[0])} calls over "
          f"{len(by_seed)} seeds after one warm-up cycle")
    # Repeat the first seed's traced cycle, outside the metrics, so that
    # every run checks that a seed reproduces its counts.
    with tracing.installed(tracing.Tracer()) as tracer:
        log.cycle(cycles[0], cli)
    by_seed[0].append(tracer)
    unstable = tracing.unstable_counts(list(by_seed.values()))
    # One traced cycle per seed, so that a seed gives the same counts in
    # every run, however many cycles fit in it.
    return log, per_layer(plain, traced, [group[0] for group in by_seed.values()]), (
        [f"counts differ between traced cycles of one seed: {', '.join(unstable)}"]
        if unstable else [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hammcert" / "__init__.py").is_file() or not (ROOT / "problems").is_dir():
        print(f"error: {ROOT} holds no hammcert sources (src/hammcert) and problems/",
              file=sys.stderr)
        return 2

    print(f"# hammcert CLI benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# {workloads.WHY[args.workload]}")
    print("# environment " + json.dumps(environment()))
    with workload_cycles(args) as (cycles, cli):
        if args.trace:
            log, metrics, gate = traced_cycles(args, cycles, cli)
        else:
            log, metrics = untraced_cycles(args, cycles, cli)
            gate = []
    failed = log.failed
    for failure in log.failures + gate:
        print(f"  FAILED {failure}")
    print(f"  fail_ratio {failed}/{log.attempted} = {failed / log.attempted:.4g}")
    correct = failed == 0 and not gate
    print(json.dumps({"correct": correct, "attempted": log.attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
