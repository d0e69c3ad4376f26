"""Two package-wide rules: the runtime is pure stdlib, and it is exact.

Every import in ``src/hclat`` is relative or names a module of the
standard library (``sys.stdlib_module_names``), and no module holds a
float literal or the name ``float``.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "hclat").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_imports_are_stdlib_or_relative(path):
    foreign = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        foreign += [f"{root} (line {node.lineno})" for root in roots
                    if root not in sys.stdlib_module_names]
    assert foreign == []


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_floats(path):
    found = [
        f"line {node.lineno}"
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Constant) and type(node.value) in (float, complex))
        or (isinstance(node, ast.Name) and node.id == "float")
    ]
    assert found == []
