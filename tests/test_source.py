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


def _os_replace_calls(source: str) -> list[str]:
    """The name of the function around each `os.replace(...)` call in the
    module `source`, in source order; "<module>" for a call outside any."""
    calls = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func) == "os.replace":
                calls.append(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return calls


def test_os_replace_calls_are_found():
    source = ("import os\nos.replace('a', 'b')\n"
              "def f(x, y):\n    def g():\n        os.replace(x, y)\n"
              "    x.replace('a', 'b')\n    return os.path.replace\n"
              "class C:\n    async def h(self):\n        os.replace(1, 2)\n")
    assert _os_replace_calls(source) == ["<module>", "g", "h"]


def test_only_atomic_write_text_replaces_a_file():
    """Every output is renamed into place by `experiment._atomic_write_text`,
    so each is whole or absent whatever ends the run that writes it."""
    calls = {path.name: _os_replace_calls(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    assert {name: where for name, where in calls.items() if where} == {
        "experiment.py": ["_atomic_write_text"]}
