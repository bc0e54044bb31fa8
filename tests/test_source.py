"""Source hygiene: every name a plicode module imports is used in it, the
package exports exactly the names its __init__.py imports, only fields
compares a field order with 2 or uses the type predicates behind its input
checks, and the values a caller can set are pinned.

__init__.py is skipped by the unused-import check, since its imports are
the package's re-exports.
"""

import ast
import dataclasses
import importlib
import inspect
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


def field_order_comparisons(source: str) -> list[str]:
    """Lines that compare q, or any .q attribute, with the constant 2."""

    def is_order(node):
        return (isinstance(node, ast.Name) and node.id == "q") or (
            isinstance(node, ast.Attribute) and node.attr == "q"
        )

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            two = any(isinstance(x, ast.Constant) and x.value == 2 for x in operands)
            if two and any(is_order(x) for x in operands):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_detects_a_field_order_comparison():
    src = "if q == 2:\n    pass\nok = 2 < mat.field.q\nfine = p == 2 or q == 3\n"
    assert field_order_comparisons(src) == ["line 1: q == 2", "line 3: 2 < mat.field.q"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fields.py"], ids=lambda p: p.name)
def test_only_fields_branches_on_the_field_order(path):
    # fields alone chooses between the F_2 and the q > 2 column formats.
    assert field_order_comparisons(path.read_text()) == []


def type_predicate_uses(source: str) -> list[str]:
    """Lines that import, call or name fields.is_integer or fields.is_real."""
    names = {"is_integer", "is_real"}
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and names & {a.name for a in node.names}:
            found.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id in names:
            found.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in names and ast.unparse(node.value) == "fields":
            found.add(node.lineno)
    return [f"line {line}" for line in sorted(found)]


def test_detects_a_type_predicate_use():
    src = (
        "from .fields import is_integer\nok = is_integer(x)\n"
        "also = fields.is_real(p)\nfine = (2.0).is_integer()\n"
    )
    assert type_predicate_uses(src) == ["line 1", "line 2", "line 3"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fields.py"], ids=lambda p: p.name)
def test_only_fields_uses_the_type_predicates(path):
    # Other modules check numbers through fields.check_integer and its twins,
    # so each rule and its message have one home.
    assert type_predicate_uses(path.read_text()) == []


# Every defaulted parameter of a public function or method, and every field
# of a public dataclass, in the plicode modules. Each is a value a caller can
# set; adding one means updating this list.
SETTABLE = {
    "bench.ExperimentConfig": [
        "n_values", "p", "instances", "base_seed", "algorithms", "m_fixed", "timing"
    ],
    "bench.ResultRow": [
        "n", "m", "p", "seed", "algorithm", "code_length_raw", "code_length_pruned",
        "rounds", "satisfied", "runtime_ms",
    ],
    "bingreedy.GroupCode": ["vectors", "sat"],
    "bingreedy.SortingResult": ["eff", "groups"],
    "bingreedy.bingreedy": ["use_original_n"],
    "bingreedy.sort_and_group": ["use_original_n"],
    "cli.main": ["argv"],
    "decoding.ClientStatus": ["client", "status", "decodes"],
    "fields.FMatrix": ["entries", "field"],
    "fields.FieldSpec": ["q"],
    "fields.LinearSolution": ["values", "unique"],
    "instances.PliableInstance": ["adjacency"],
    "oracle.SearchResult": ["value", "witness", "enumerated", "elapsed_ms"],
    "randomized.randomized_code": ["stopping"],
    "reports.BinRecord": ["s", "clients", "rows"],
    "reports.GroupRecord": ["s", "messages", "sat", "eff"],
    "reports.RoundRecord": ["groups", "satisfied"],
    "reports.RunReport": ["rounds", "rows_raw", "rows_pruned", "bins"],
}


def defaulted(func) -> list[str]:
    params = inspect.signature(func).parameters.values()
    return [p.name for p in params if p.default is not p.empty]


def settable_values() -> dict[str, list[str]]:
    found = {}
    for path in MODULES:
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"plicode.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            key = f"{path.stem}.{name}"
            if inspect.isfunction(obj) and defaulted(obj):
                found[key] = defaulted(obj)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    found[key] = [f.name for f in dataclasses.fields(obj)]
                for attr, member in vars(obj).items():
                    func = getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(func) and defaulted(func):
                        found[f"{key}.{attr}"] = defaulted(func)
    return found


def test_settable_values_are_pinned():
    assert settable_values() == SETTABLE
