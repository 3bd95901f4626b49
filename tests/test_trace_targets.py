"""The benchmark's per-layer tracer wraps names that jetfree still has.

``bench/tracing.py`` wraps each ``(module, name)`` of its ``TARGETS``; a
renamed or removed function would make a traced benchmark run fail.  The
tuple is read from the file's syntax tree: nothing of ``bench`` runs, and
no wrapper is installed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TARGETS")


@pytest.mark.parametrize("module_name,name", _targets())
def test_traced_name_resolves(module_name, name):
    module = importlib.import_module(f"jetfree.{module_name}")
    if "." in name:
        # Tracer.install replaces cls.__dict__[method]: it must be defined
        # on the class itself, not inherited
        cls_name, method = name.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, name))
