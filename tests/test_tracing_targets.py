"""Every function the benchmark's tracer wraps still exists in fmpsat.

The benchmark (``perfbench/run.py --trace 1``) wraps the functions
listed in ``perfbench/tracing.py``'s ``TRACED`` table by module and
attribute name. The table is read here as text, so nothing under
``perfbench/`` is imported or written.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_table():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED table")


def test_every_traced_name_resolves():
    table = _traced_table()
    assert table
    missing = []
    for module_name, attr, _layer in table:
        module = importlib.import_module(f"fmpsat.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            # the tracer replaces the entry in the class's own __dict__
            found = method in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
