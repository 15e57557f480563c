"""Every name a qflow module imports is used in that module or exported
through its ``__all__``, every name it defines is exported or used
somewhere in qflow, only ``circuit.py`` numbers the wires, and only the
library, the parser and ``circuit.py`` read a gate's parameter count."""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qflow"


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def defined_names(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and constants, and the underscore
    methods of its classes (dunders excluded), with their lines."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name.startswith("_"):
                    names[item.name] = item.lineno
    return {name: line for name, line in names.items() if not name.startswith("__")}


@functools.cache
def referenced_in_qflow() -> frozenset:
    """Every name that some qflow module reads, imports or looks up as an
    attribute."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return frozenset(names)


def dead_names(tree: ast.Module) -> list[str]:
    keep = exported(tree) | referenced_in_qflow()
    return sorted(f"{name} (line {line})" for name, line in defined_names(tree).items()
                  if name not in keep)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_names(path):
    assert dead_names(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_circuit_numbers_the_wires(path):
    """Every other module reads ``Circuit.resolve`` instead of turning
    register offsets into wires itself."""
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and node.attr in ("qubit_offsets", "clbit_offsets"))
    assert path.name == "circuit.py" or calls == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_shape_rule_reads_parameter_counts(path):
    """A flat instruction's shape is checked in ``circuit.py`` alone (the
    parser checks source text, with positions); no other module counts a
    gate's parameters again."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = sorted(node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "param_count")
    assert path.name in ("gates.py", "parser.py", "circuit.py") or reads == []
