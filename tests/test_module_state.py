"""No function of ``src/hclat`` mutates module-level state.

A module-level name is one bound at the top of a module: an assignment, an
import, a function or a class.  No function or method may declare a name
``global``, call a mutating method (``append``, ``pop``, ``update``, ...)
on an assigned module-level name or on an attribute of any module-level
name (``sys.path.insert``), or assign or delete an item or attribute of
one.  A call such as ``pbw.add(...)`` is a function of an imported
module, not a method.  A name the function binds itself (a parameter,
an assignment, a loop or ``with`` target, a comprehension variable, a
nested definition) is local and exempt.  State that one call leaves for
the next is a side channel no signature shows.
"""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "hclat").glob("*.py"))

MUTATORS = {
    "append", "appendleft", "extend", "extendleft", "insert", "pop", "popleft",
    "popitem", "remove", "clear", "update", "setdefault", "add", "discard",
    "sort", "reverse", "rotate", "difference_update", "intersection_update",
    "symmetric_difference_update", "__setitem__", "__delitem__", "__setattr__",
}


def _top_level_bindings(tree) -> tuple:
    """The names the module body binds outside every def and class: those
    it assigns, and those it imports or defines."""
    assigned, defined = set(), set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            assigned.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update((a.asname or a.name).split(".")[0] for a in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return assigned, defined


def _functions(body):
    """Every outermost function or method, in source order: a nested one is
    read with the function that holds it."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body)


def _local_names(func) -> set:
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node is not func:
            names.add(node.name)
    return names


def _root(node):
    """The name an attribute or subscript chain starts from, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _mutations(path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    assigned, defined = _top_level_bindings(tree)
    found = []
    for func in _functions(tree.body):
        shared = (assigned | defined) - _local_names(func)
        for node in ast.walk(func):
            where = f"{func.name} (line {getattr(node, 'lineno', func.lineno)})"
            if isinstance(node, ast.Global):
                found.append(f"{where}: global {', '.join(node.names)}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
                and _root(node.func.value) in shared
                # pbw.add(...) calls a function of an imported module
                and not (isinstance(node.func.value, ast.Name) and node.func.value.id in defined)
            ):
                found.append(f"{where}: {ast.unparse(node.func)}()")
            elif (
                isinstance(node, (ast.Subscript, ast.Attribute))
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and _root(node.value) in shared
            ):
                found.append(f"{where}: {ast.unparse(node)} written")
    return found


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_function_mutates_module_state(path):
    assert _mutations(path) == []


def test_the_guard_sees_each_kind_of_mutation(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import sys\n"
        "TABLE = []\n"
        "CACHE = {}\n"
        "COUNT = 0\n"
        "def push(x):\n"
        "    TABLE.append(x)\n"
        "def store(k, v):\n"
        "    CACHE[k] = v\n"
        "def bump():\n"
        "    global COUNT\n"
        "    COUNT += 1\n"
        "def extend_path(p):\n"
        "    sys.path.insert(0, p)\n"
        "def calls_a_module_function(x):\n"
        "    return sys.intern(x), COUNT.bit_count()\n"
        "def local_only(TABLE):\n"
        "    TABLE.append(1)\n"
        "    out = []\n"
        "    out.append(CACHE.get(1))\n"
        "    return out\n"
    )
    found = _mutations(source)
    assert [line.split(" ")[0] for line in found] == ["push", "store", "bump", "extend_path"]
