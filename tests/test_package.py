"""The package's import surface: what ``htspec`` exports and the modules
that the benchmark's span tracer imports by name."""

import ast
import importlib
from pathlib import Path

import htspec

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _span_bindings():
    """``BINDINGS`` of perfbench/spans.py, read from its source."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BINDINGS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no BINDINGS in {SPANS}")


def test_exports_resolve_and_traced_modules_import():
    # every exported name resolves, so a star import works
    namespace = {}
    exec("from htspec import *", namespace)
    assert set(htspec.__all__) <= namespace.keys()
    # the tracer imports htspec.<module> for every binding without a
    # guard, so a missing module would crash every traced pass
    modules = {mod for mod, _, _ in _span_bindings()}
    assert modules
    for mod in sorted(modules):
        importlib.import_module(f"htspec.{mod}")
