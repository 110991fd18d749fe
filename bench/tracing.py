"""Spans and counts for the traced benchmark run, recorded from outside
the program.

``installed(tracer)`` wraps the public functions of each hammcert layer
(plus the few methods listed in METHODS) at every module that binds them:
``apply_T`` is bound in both ``problem`` and ``solver``, the ``eval_*``
functions in ``problem``, ``bounds`` and ``kernel``.  On exit every
original is put back, so untraced cycles run the unmodified program.

A span's self time is its duration minus the time of the spans it
called.  Spans are aggregated per name as they close (a sweep opens spans
for every cell), so one Tracer holds one cycle's calls, time and counters.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("grid", "kernel", "expr", "problem", "bounds", "certificate", "solver", "sweep", "cli")

# Methods wrapped as spans: (module, class, attribute, span name).  The
# weight-matrix builds and declared-bound evaluations happen behind
# private methods, which no public function isolates.
METHODS = (
    ("kernel", "Kernel", "value_weight_matrix", "kernel.value_weight_matrix"),
    ("kernel", "Kernel", "deriv_weight_matrix", "kernel.deriv_weight_matrix"),
    ("kernel", "Kernel", "_make_value_weights", "kernel.weights.build"),
    ("kernel", "Kernel", "_make_deriv_weights", "kernel.weights.build"),
    ("kernel", "FocalKernel", "_make_deriv_weights", "kernel.weights.build"),
    ("bounds", "BoundSet", "_declared", "bounds.declared"),
)


def _weights_used(counts, args, result):
    # A dense weight matrix is read once per matvec: one multiply and one
    # add per entry.  Computed from the array's size, not measured traffic.
    counts["kernel.bytes"] += result.nbytes
    counts["kernel.flops"] += 2 * result.size


def _picard(counts, args, result):
    counts["solver.picard.iterations"] += result.iterations
    counts["solver.starts"] += 1
    counts["solver.starts.converged"] += result.converged


def _falsify(counts, args, result):
    counts["bounds.falsify.points"] += result.points_checked


def _sweep(counts, args, result):
    counts["sweep.cells"] += len(result)


HOOKS = {
    "kernel.value_weight_matrix": _weights_used,
    "kernel.deriv_weight_matrix": _weights_used,
    "solver.picard_solve": _picard,
    "bounds.falsify_linear_growth": _falsify,
    "sweep.run_sweep": _sweep,
}


class Tracer:
    """Calls, total time, self time and counters per span name."""

    def __init__(self):
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._stack: list[list[float]] = []  # child time of each open span

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                self.calls[name] += 1
                self.total_s[name] += took
                self.self_s[name] += took - children[0]
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return span

    def __add__(self, other: "Tracer") -> "Tracer":
        out = Tracer()
        for field in ("calls", "total_s", "self_s", "counts"):
            setattr(out, field, getattr(self, field) + getattr(other, field))
        return out


def _layer_functions() -> dict:
    """Public functions defined in each layer module -> span name."""
    spans = {}
    for layer in LAYERS:
        module = sys.modules[f"hammcert.{layer}"]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                spans[obj] = f"{layer}.{attr}"
    return spans


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer boundary for the duration of the block."""
    spans = _layer_functions()
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in spans.items()}
    saved = []
    modules = [m for name, m in list(sys.modules.items())
               if name == "hammcert" or name.startswith("hammcert.")]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                saved.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
    for layer, cls_name, attr, name in METHODS:
        cls = getattr(sys.modules[f"hammcert.{layer}"], cls_name)
        original = cls.__dict__[attr]
        saved.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(name, original))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

# Counts that a seed must reproduce exactly in each of its traced cycles.
STABLE_COUNTS = ("problem.apply_T.calls", "solver.picard.iterations",
                 "sweep.cells", "bounds.falsify.points")


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def _mean(span: str, scale: float, use_self: bool = False):
    return lambda t, k: scale * _per((t.self_s if use_self else t.total_s)[span], t.calls[span])


def _calls(*spans: str):
    return lambda t, k: sum(t.calls[s] for s in spans) / k


def _count(key: str):
    return lambda t, k: t.counts[key] / k


EXPR_EVALS = ("expr.eval_nonlinearity", "expr.eval_coefficient", "expr.eval_kernel_expr",
              "expr.eval_dominator", "expr.eval_bound", "expr.eval_constant",
              "expr.eval_functional")

# name -> (unit, value from the merged Tracer t over k traced cycles).
# The comments name the end-to-end metrics and workloads each group
# should move.
# Counts are per cycle; times are per call of the span, children included
# unless the name says self.  cli.main.self_ms is the self time of every
# cli span (argument parsing, printing, records) per main() call.
PER_LAYER = {
    # Should move solve_ms, cycle_s_p50 and peak_rss_mb on solve_fine only.
    "kernel.weights.build_ms": ("ms", _mean("kernel.weights.build", 1e3)),
    "kernel.weights.builds": ("count", _calls("kernel.weights.build")),
    "kernel.bytes_per_apply": ("B-computed",
                               lambda t, k: _per(t.counts["kernel.bytes"], t.calls["problem.apply_T"])),
    "kernel.flops_per_apply": ("flop-computed",
                               lambda t, k: _per(t.counts["kernel.flops"], t.calls["problem.apply_T"])),
    # solve_ms on solve_fine (matvec-bound) and default_grid (overhead-bound).
    "problem.apply_T.calls": ("count", _calls("problem.apply_T")),
    "problem.apply_T.self_us": ("us", _mean("problem.apply_T", 1e6, use_self=True)),
    # validate_ms, and every call on default_grid.
    "problem.load.ms": ("ms", _mean("problem.load_problem", 1e3)),
    "problem.validate.ms": ("ms", _mean("problem.validate_spec", 1e3)),
    # certify_existence_ms, solve_ms and sweep_ms on default_grid.
    "expr.eval.calls": ("count", _calls(*EXPR_EVALS)),
    "expr.eval_nonlinearity.us": ("us", _mean("expr.eval_nonlinearity", 1e6)),
    "expr.eval_functional.us": ("us", _mean("expr.eval_functional", 1e6)),
    "expr.eval_coefficient.us": ("us", _mean("expr.eval_coefficient", 1e6)),
    "expr.eval_bound.us": ("us", _mean("expr.eval_bound", 1e6)),
    "expr.parse.us": ("us", _mean("expr.parse", 1e6)),
    # certify_*_ms and sweep_ms on default_grid.
    "bounds.f_extrema.ms": ("ms", _mean("bounds.estimate_f_extrema", 1e3)),
    "bounds.estimate_H.ms": ("ms", _mean("bounds.estimate_H", 1e3)),
    "bounds.falsify.ms": ("ms", _mean("bounds.falsify_linear_growth", 1e3)),
    "bounds.falsify.points": ("count", _count("bounds.falsify.points")),
    "bounds.declared.calls": ("count", _calls("bounds.declared")),
    # certify_existence_ms (sphere sampling) on default_grid, and solve_ms.
    "grid.random_cone_function.calls": ("count", _calls("grid.random_cone_function")),
    "grid.random_cone_function.us": ("us", _mean("grid.random_cone_function", 1e6)),
    "grid.c1_distance.calls": ("count", _calls("grid.c1_distance")),
    # solve_ms on solve_fine and default_grid.
    "solver.picard.iterations": ("count", _count("solver.picard.iterations")),
    "solver.multistart.ms": ("ms", _mean("solver.multistart_solve", 1e3)),
    "solver.starts.converged_ratio": ("ratio", lambda t, k: _per(t.counts["solver.starts.converged"],
                                                                 t.counts["solver.starts"])),
    # sweep_ms on default_grid, nothing on solve_fine.
    "certificate.existence.us": ("us", _mean("certificate.check_existence", 1e6)),
    "certificate.nonexistence.us": ("us", _mean("certificate.check_nonexistence", 1e6)),
    "sweep.cells": ("count", _count("sweep.cells")),
    "sweep.us_per_cell": ("us", lambda t, k: 1e6 * _per(t.total_s["sweep.run_sweep"],
                                                        t.counts["sweep.cells"])),
    # Every *_ms metric, by a little.
    "cli.main.self_ms": ("ms", lambda t, k: 1e3 * _per(
        sum(v for span, v in t.self_s.items() if span.startswith("cli.")), t.calls["cli.main"])),
}


def per_layer(tracers: list[Tracer]) -> dict[str, tuple[float, str]]:
    """Every PER_LAYER metric over the traced cycles: name -> (value, unit)."""
    merged = sum(tracers[1:], tracers[0])
    return {name: (fn(merged, len(tracers)), unit) for name, (unit, fn) in PER_LAYER.items()}


def unstable_counts(groups: list[list[Tracer]]) -> list[str]:
    """STABLE_COUNTS whose value differs between the traced cycles of one
    group (one seed)."""
    values = [[per_layer([t]) for t in group] for group in groups]
    return [name for name in STABLE_COUNTS
            if any(len({v[name][0] for v in group}) > 1 for group in values)]
