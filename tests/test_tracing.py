"""The benchmark's traced run wraps the methods bench/tracing.py lists by
name, looked up in each class's own __dict__: a renamed or moved method
ends a traced run with KeyError, so each must still be there.  Its
sweep hook counts a sweep's cells as the length of what run_sweep returns,
which must therefore have one entry per lattice point.  A span its
metrics read under a function's name must name a function it wraps: a
renamed function leaves the metric at 0, with no error."""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import hammcert.cli
import hammcert.sweep

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_methods() -> tuple:
    """The METHODS table of bench/tracing.py, read without running the module."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "METHODS" for target in node.targets))


def test_every_traced_method_is_defined_on_its_class():
    methods = _traced_methods()
    assert methods
    missing = [(layer, cls, attr) for layer, cls, attr, _ in methods
               if attr not in vars(getattr(importlib.import_module(f"hammcert.{layer}"), cls))]
    assert missing == []


# Spans the tracer still reads although no function opens them any more.
DEAD_SPANS = {"solver.picard_solve", "expr.eval_dominator", "grid.random_cone_function"}


def _read_span_names() -> set:
    """Every span name bench/tracing.py reads: the arguments of _calls and
    _mean, the keys of HOOKS, EXPR_EVALS and the t.calls[...] and
    t.total_s[...] subscripts."""
    names = set()
    for node in ast.walk(ast.parse(TRACING.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_calls", "_mean"):
            args = node.args if node.func.id == "_calls" else node.args[:1]
            names.update(arg.value for arg in args if isinstance(arg, ast.Constant))
        elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("HOOKS",
                                                                                    "EXPR_EVALS"):
            value = node.value
            names.update(key.value for key in (value.keys if isinstance(value, ast.Dict)
                                               else value.elts))
        elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
              and node.value.attr in ("calls", "total_s") and isinstance(node.slice, ast.Constant)):
            names.add(node.slice.value)
    return names


def test_every_read_span_names_a_traced_function():
    """A span is "layer.name" for a public function of hammcert.layer, or
    the span name of a METHODS entry."""
    names = _read_span_names()
    assert {"expr.parse", "expr.eval_nonlinearity", "cli.main", "kernel.weights.build"} <= names
    methods = {span for *_, span in _traced_methods()}
    unknown = set()
    for name in names - methods:
        layer, _, attr = name.partition(".")
        fn = getattr(importlib.import_module(f"hammcert.{layer}"), attr, None)
        if not (inspect.isfunction(fn) and fn.__module__ == f"hammcert.{layer}"
                and not attr.startswith("_")):
            unknown.add(name)
    assert unknown <= DEAD_SPANS


def test_traced_sweep_counts_its_cells(example2_path, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = hammcert.sweep.run_sweep
    with tracing.installed(tracing.Tracer()) as tracer:
        assert hammcert.cli.main(["sweep", "--problem", example2_path, "--lambda", "0:1:4",
                                  "--eta1", "0:1:4", "--eta2", "0:1:4", "--r", "0.05", "--R", "1",
                                  "--witness", "--out", str(tmp_path / "sweep.csv")]) == 0
    assert tracer.counts["sweep.cells"] == 64
    assert tracer.calls["sweep.run_sweep"] == 1
    assert hammcert.sweep.run_sweep is original and hammcert.cli.run_sweep is original
