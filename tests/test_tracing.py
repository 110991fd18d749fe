"""The benchmark's traced run wraps the methods bench/tracing.py lists by
name, looked up in each class's own __dict__: a renamed or moved method
ends a traced run with KeyError, so each must still be there."""

import ast
import importlib
import pathlib

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
