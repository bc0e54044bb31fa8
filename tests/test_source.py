"""Source hygiene: every name a plicode module imports is used in it, and
the package exports exactly the names its __init__.py imports.

__init__.py is skipped by the unused-import check, since its imports are
the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import plicode

SRC = Path(__file__).resolve().parent.parent / "src" / "plicode"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    src = "from __future__ import annotations\nimport os, sys\nfrom a import b as c, d\nsys.exit(d)\n"
    assert unused_imports(src) == ["line 2: os", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_names(source: str) -> set[str]:
    return {
        alias.asname or alias.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }


def test_all_lists_exactly_the_imports():
    assert sorted(plicode.__all__) == sorted(imported_names((SRC / "__init__.py").read_text()))


def test_every_export_resolves():
    assert [name for name in plicode.__all__ if not hasattr(plicode, name)] == []
