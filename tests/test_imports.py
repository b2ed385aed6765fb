"""Import and dead-code hygiene, by a stdlib ``ast`` scan (no linter needed).

No module imports a name it never uses; ``src/prefetchlab/__init__.py`` is
exempt, because it imports names to re-export them. Every private top-level
function or class of the package is referenced somewhere in the package
outside its own body. The package imports nothing outside the standard
library, so it has no runtime dependency.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "prefetchlab").glob("*.py"))
SCANNED = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")) + list((ROOT / "demos").glob("*.py")))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module, ``__future__`` aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.relative_to(ROOT)}: unused imports {unused}"


def _referenced(nodes: Iterable[ast.AST]) -> set[str]:
    """Every name the nodes read, as a bare name, an attribute or an imported name."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                names.update(alias.name for alias in sub.names)
    return names


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_private_function_and_class_is_referenced(path):
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE}
    elsewhere = _referenced(tree for p, tree in trees.items() if p != path)
    body = trees[path].body
    unreferenced = {
        node.name: node.lineno for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in elsewhere | _referenced(n for n in body if n is not node)}
    assert not unreferenced, (f"{path.relative_to(ROOT)}: private definitions nothing "
                              f"refers to {unreferenced}")


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules[node.module] = node.lineno
    foreign = {name: line for name, line in modules.items()
               if name.split(".")[0] not in sys.stdlib_module_names | {"prefetchlab"}}
    assert not foreign, f"{path.relative_to(ROOT)}: imports outside the standard library {foreign}"
