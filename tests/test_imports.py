"""No module in src/ or tests/ imports a name it never uses, and no
private module-level name in src/jetfree is left without a reference.

The checks read each file with the stdlib ``ast`` module: an imported
name counts as used when it appears as a name anywhere in the file (an
attribute chain counts through its leading name) or is listed in
``__all__``.  ``from __future__`` imports are exempt.  A module-level
function, class or assignment named ``_x`` counts as referenced when
``_x`` is read as a name, an attribute or an imported name somewhere in
src/jetfree outside its own definition.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the source never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(e.value for e in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = "import os\nimport os.path as osp\nfrom math import pi, tau\nprint(pi, os.sep)\n"
    assert unused_imports(source) == [(2, "osp"), (3, "tau")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private_definitions(tree: ast.Module):
    """(name, node) of each module-level function, class or assignment
    whose name starts with a single underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node: ast.AST) -> Counter:
    """How often each name is read in node: as a name, an attribute or an
    imported name."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unreferenced_private_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of every private module-level name that no module
    of sources reads outside the name's own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total: Counter = Counter()
    for tree in trees.values():
        total.update(_references(tree))
    return sorted(
        (module, name)
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if total[name] == _references(node)[name]
    )


def test_the_check_sees_an_unreferenced_private_helper():
    sources = {
        "a": "_CACHE = {}\ndef _used():\n    return _CACHE\ndef _orphan():\n    return _orphan()\n",
        "b": "from .a import _used\nclass _Lonely:\n    pass\n",
    }
    assert unreferenced_private_names(sources) == [("a", "_orphan"), ("b", "_Lonely")]


def test_every_private_helper_in_src_is_referenced():
    package = ROOT / "src" / "jetfree"
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}
    assert unreferenced_private_names(sources) == []
