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
