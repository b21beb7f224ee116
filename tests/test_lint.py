"""Source hygiene that no installed linter checks: every name a module of
``src/homhopf`` imports is used in it, and every private name (``_x``) a
module of ``src/homhopf`` defines at its top level is read somewhere in
``src/homhopf``, so that no helper outlives its last caller.

A name counts as used where it is read (``ast.Name``, the root of an
attribute chain included) or named inside a string that parses as a type
expression, such as a string annotation or a type alias like ``exactlin``'s
``Scalar = "int | Fraction"``: names, attributes, subscripts, ``|``, tuples
and constants.  Other strings name nothing: an axiom id such as
``"matched-pair.acts-on-product"`` parses as a subtraction, but uses neither
``product`` nor ``pair``.  An import kept for its side effect says so with
``# noqa: F401`` on its line.

A private name counts as read where it is loaded (``ast.Name``), named as an
attribute (``twist._prefixed``), imported from a module (``from .structures
import _flat``) or named in a type-expression string; being assigned is not
being read.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "homhopf").glob("*.py"))


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """The names the module binds by import, each with its line, except
    ``__future__`` features and imports marked ``noqa: F401``."""
    names = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name
            names[name if isinstance(node, ast.ImportFrom) else name.split(".")[0]] = node.lineno
    return names


def _is_type_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Name, ast.Constant)):
        return True
    if isinstance(node, ast.Attribute):
        return _is_type_expression(node.value)
    if isinstance(node, ast.Subscript):
        return _is_type_expression(node.value) and _is_type_expression(node.slice)
    if isinstance(node, ast.BinOp):
        parts = (node.left, node.right)
        return isinstance(node.op, ast.BitOr) and all(map(_is_type_expression, parts))
    return isinstance(node, ast.Tuple) and all(map(_is_type_expression, node.elts))


def _used(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                continue
            if _is_type_expression(expr):
                names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """The private names, neither public nor dunder, that a module binds at its
    top level by ``def``, ``class`` or assignment, each with its first line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in bound:
            if name[:1] == "_" and name[:2] != "__":
                names.setdefault(name, node.lineno)
    return names


def _read(tree: ast.Module) -> set[str]:
    """The names a module reads: loaded names, attribute names, names it
    imports from a module and names in its type-expression strings."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    stored = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
    return names | (_used(tree) - stored)


def _unread_private(trees: dict[str, ast.Module]) -> dict[str, int]:
    """``module:name`` of each top-level private name that no module reads, with its line."""
    read = set().union(*map(_read, trees.values()))
    return {
        f"{module}:{name}": line
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    }


def test_every_private_name_is_read():
    unread = _unread_private({p.name: ast.parse(p.read_text()) for p in SOURCES})
    assert not unread, f"private names defined but never read in src/homhopf: {unread}"


def test_the_check_sees_an_unread_private_helper():
    first = (
        "_TABLE = {}\n"
        "_STALE: dict = {}\n"
        "_STALE = {}\n"
        "def _shared():\n    return _TABLE\n"
        "def _left_behind():\n    pass\n"
        "class _Kept:\n    pass\n"
        "def __getattr__(name):\n    pass\n"
    )
    second = "from .first import _shared\nfrom . import first\nX = first._Kept\n_shared()\n"
    trees = {name: ast.parse(text) for name, text in (("first.py", first), ("second.py", second))}
    assert _unread_private(trees) == {"first.py:_STALE": 2, "first.py:_left_behind": 6}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_imported_name_is_used(path):
    text = path.read_text()
    tree = ast.parse(text)
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree, text.splitlines()).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    text = (
        "from itertools import chain, product, tee\n"
        "from fractions import Fraction\n"
        'X = "tuple[Fraction, ...] | None"\n'
        'Y = "matched-pair.acts-on-product"\n'
        "tee\n"
    )
    tree = ast.parse(text)
    assert set(_imported(tree, text.splitlines())) - _used(tree) == {"chain", "product"}
