"""The benchmark's traced run wraps the methods bench/tracing.py lists by
name, looked up in each class's own __dict__: a renamed or moved method
ends a traced run with KeyError, so each must still be there.  Its
sweep hook counts a sweep's cells as the length of what run_sweep returns,
which must therefore have one entry per lattice point."""

import ast
import importlib
import importlib.util
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
