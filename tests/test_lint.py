"""Source hygiene that no installed linter checks: every name a module of
``src/homhopf`` imports is used in it.

A name counts as used where it is read (``ast.Name``, the root of an
attribute chain included) or named inside a string that parses as a type
expression, such as a string annotation or a type alias like ``exactlin``'s
``Scalar = "int | Fraction"``: names, attributes, subscripts, ``|``, tuples
and constants.  Other strings name nothing: an axiom id such as
``"matched-pair.acts-on-product"`` parses as a subtraction, but uses neither
``product`` nor ``pair``.  An import kept for its side effect says so with
``# noqa: F401`` on its line.
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
