"""No public API that only tests call.

Every public module-level function and class of ``src/hclat``, and every
public method of those classes, must be read somewhere a user of the
library would reach it: in ``src/`` outside its own definition, in
``demos/`` or in ``perfbench/``.  A read is a name in the syntax tree: a
bare name, an attribute after a dot, or a ``from ... import`` of it; a
word in a comment or a docstring is not a read.  A method also counts as
read when its dotted ``Class.name`` occurs in ``perfbench/``, where the
tracer resolves names such as ``RowLattice.coordinates`` from strings.
A name that only tests call belongs in ``tests/reference.py``.

Every private module-level function must be read in ``src/`` outside its
own definition: a helper nothing calls, or a verify check that no suite
lists, is dead code.

Every parameter of every function and lambda in ``src/hclat``, except
``self`` and ``cls``, must be read in that function's body: a parameter
nothing reads is an API that changes nothing.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "hclat").glob("*.py"))

def _public_defs(tree):
    """(qualified name, node) of each public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub


def _private_functions(tree):
    """(name, node) of each private module-level function."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            if not node.name.startswith("__"):
                yield node.name, node


def _reads(tree):
    """(name, is_attribute, line) of each name the tree reads: bare
    names, attributes after a dot and the names of ``from ... import``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, True, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, False, node.lineno


def _unreferenced(defs, folders=()):
    """The names of ``defs`` that nothing reads outside their own
    definition: not the rest of their module, another module of
    ``src/hclat``, or a script in ``folders``.  A method is read only as
    an attribute, or where ``perfbench/`` names it as ``Class.name``."""
    trees = {path: ast.parse(path.read_text()) for path in SRC}
    reads = [
        (name, attribute, path, line)
        for path, tree in trees.items()
        for name, attribute, line in _reads(tree)
    ]
    reads += [
        (name, attribute, path, 0)
        for folder in folders
        for path in sorted((ROOT / folder).glob("*.py"))
        for name, attribute, _ in _reads(ast.parse(path.read_text()))
    ]
    perfbench = "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    missing = []
    for path, tree in trees.items():
        for name, node in defs(tree):
            method = "." in name
            word = name.rsplit(".", 1)[-1]
            read = any(
                seen == word
                and (attribute or not method)
                and (other != path or not node.lineno <= line <= node.end_lineno)
                for seen, attribute, other, line in reads
            )
            if method and not read:
                read = re.search(rf"\b{re.escape(name)}\b", perfbench) is not None
            if not read:
                missing.append(f"{path.stem}.{name}")
    return missing


def test_every_private_function_is_referenced():
    assert _unreferenced(_private_functions) == []


def test_every_public_name_has_a_caller():
    assert _unreferenced(_public_defs, ("demos", "perfbench")) == []


def _unread_parameters(tree, stem):
    """module.function(parameter) for each parameter its function never reads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", f"<lambda>:{node.lineno}")
        for param in params:
            if param.arg not in ("self", "cls") and param.arg not in read:
                yield f"{stem}.{name}({param.arg})"


def test_every_parameter_is_read():
    unread = [
        entry
        for path in SRC
        for entry in _unread_parameters(ast.parse(path.read_text()), path.stem)
    ]
    assert unread == []

