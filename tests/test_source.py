"""Checks on the package's source that no installed linter makes."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    (Path(__file__).resolve().parents[1] / "src" / "gridgame").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """The names that the module `source` imports and never reads, in the
    order they are imported; `from __future__` imports bind no name."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\nimport numpy as np\n"
              "from typing import Any, Mapping\n"
              "def f(x: Mapping) -> None:\n    import signal\n"
              "    return np.zeros(os.path.sep)\n")
    assert _unused_imports(source) == ["sys", "Any", "signal"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _unread_private_names(source: str) -> list[str]:
    """The private names (one leading underscore, so no dunder) that a
    top-level statement of the module `source` binds and no other one
    reads, in the order they are bound; a function that only calls itself
    is unread."""
    body = ast.parse(source).body
    reads = [{node.id for node in ast.walk(statement)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
             for statement in body]
    unread = []
    for i, statement in enumerate(body):
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            bound = [statement.name]
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = (statement.targets if isinstance(statement, ast.Assign)
                       else [statement.target])
            bound = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        else:
            continue
        unread += [name for name in bound
                   if name.startswith("_") and not name.startswith("__")
                   and not any(name in read for j, read in enumerate(reads)
                               if j != i)]
    return unread


def test_unread_private_names_are_found():
    source = ("__all__ = ['f']\n_A, _B = 1, 2\n_C: int = 3\nPUBLIC = 4\n"
              "def _loop(n):\n    return _loop(n - 1) if n else _A\n"
              "class _Unused:\n    pass\n"
              "def f():\n    _local = _C\n    return _local\n")
    assert _unread_private_names(source) == ["_B", "_loop", "_Unused"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_reads_every_private_name_it_binds(path):
    assert _unread_private_names(path.read_text(encoding="utf-8")) == []
