"""No module in src/ or tests/ imports a name it never uses, and no
module-level name in src/jetfree is left without a reference.

The checks read each file with the stdlib ``ast`` module: an imported
name counts as used when it appears as a name anywhere in the file (an
attribute chain counts through its leading name) or is listed in
``__all__``.  ``from __future__`` imports are exempt.  A module-level
function, class or assignment named ``_x`` counts as referenced when
``_x`` is read as a name, an attribute or an imported name somewhere in
src/jetfree outside its own definition.  A public module-level function
or class counts as referenced the same way, or when the acceptance gate
(tests/test_acceptance.py) or the benchmark's tracer
(bench/tracing.TARGETS) names it: a public name that only unit tests
use is library surface no command reaches.
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


def _definitions(tree: ast.Module):
    """(name, node) of each module-level function, class or assignment."""
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
            yield name, node


def _is_private(name: str, node: ast.AST) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _is_public_api(name: str, node: ast.AST) -> bool:
    return not name.startswith("_") and isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    )


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


def unreferenced_names(
    sources: dict[str, str], kind, outside: Counter | None = None
) -> list[tuple[str, str]]:
    """(module, name) of every module-level name of the given kind (a
    predicate on name and node) that no module of sources reads outside
    the name's own definition and that the extra reference counts
    outside do not name."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total: Counter = Counter(outside or {})
    for tree in trees.values():
        total.update(_references(tree))
    return sorted(
        (module, name)
        for module, tree in trees.items()
        for name, node in _definitions(tree)
        if kind(name, node) and total[name] == _references(node)[name]
    )


def _package_sources() -> dict[str, str]:
    package = ROOT / "src" / "jetfree"
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))}


def test_the_check_sees_an_unreferenced_private_helper():
    sources = {
        "a": "_CACHE = {}\ndef _used():\n    return _CACHE\ndef _orphan():\n    return _orphan()\n",
        "b": "from .a import _used\nclass _Lonely:\n    pass\n",
    }
    assert unreferenced_names(sources, _is_private) == [("a", "_orphan"), ("b", "_Lonely")]


def test_every_private_helper_in_src_is_referenced():
    assert unreferenced_names(_package_sources(), _is_private) == []


def _gate_and_tracer_references() -> Counter:
    """Names the acceptance gate reads, and the module-level name (a
    function, or the class of a method) of each TARGETS entry."""
    refs = _references(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")))
    tracing = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tracing.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TARGETS"]:
            refs.update(name.split(".")[0] for _, name in ast.literal_eval(node.value))
            return refs
    raise AssertionError("bench/tracing.py defines no TARGETS")


def test_the_check_sees_a_public_orphan():
    sources = {
        "a": (
            "LIMIT = 3\ndef helper():\n    return LIMIT\ndef api():\n    return helper()\n"
            "def orphan():\n    return orphan()\nclass Traced:\n    pass\n"
        ),
        "b": "from .a import api\n",
    }
    outside = Counter({"Traced": 1})
    assert unreferenced_names(sources, _is_public_api, outside) == [("a", "orphan")]


def test_every_public_name_in_src_is_reached():
    found = unreferenced_names(_package_sources(), _is_public_api, _gate_and_tracer_references())
    assert found == []
