"""Exactness guards: every scalar is an ``int`` or a ``Fraction``, never a float.

Integral scalars are stored as ``int`` and only proper fractions as
``Fraction``.  Python's ``int / int`` is a float, so the package divides in
exactly one place, ``exactlin._quotient``; the tooling test below fails on
any other true division in the source.  A second tooling test keeps the
``exactlin`` kernels sparse: only ``dense``, which makes a sparse value
dense, may allocate a dense list of zeros.  More keep the sparse operand tables with the domain
objects: a second Hopf suite on one object, a second matched-pair check, a
second left or right comodule-algebra check by a coproduct and a second
``verify prop4.7`` on the same objects convert no structure tensor again,
each structure map and each antipode is inverted once, and the source has
no module-level cache.  The last tooling tests keep the powers of a
structure map and the inverse antipode views of the objects, keep every
comparison of two objects' tables in the checkers of ``structures``, and
keep the helpers of the old dense round trip out of the source.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import homhopf
from homhopf import constructions, exactlin, structures, verify
from homhopf.catalog import get_entry
from homhopf.constructions import (
    canonical_r_matrix,
    co_opposite,
    drinfeld_double,
    drinfeld_double_tilde,
    dual,
    dual_matched_pair,
    dual_pair_double,
    evaluation_pairing,
    heisenberg_double,
    opposite_hopf,
    self_bicross_data,
)
from homhopf.exactlin import identity, mat_compose, mat_inverse, nonzeros
from homhopf.structures import (
    ComoduleCoaction,
    check_comodule_algebra,
    check_hom_algebra,
    check_left_comodule_algebra,
    check_matched_pair,
    hopf_algebra,
    run_hopf_suite,
)

ENTRIES = ("one", "ax1", "kz2", "sweedler_hom", *(f"cyclic:{n}" for n in range(2, 7)), "s3_inner")
FIELDS = ("mul", "unit", "comul", "counit", "alpha", "antipode")


def scalars(value):
    """The leaves of a nested tuple."""
    if isinstance(value, tuple):
        for x in value:
            yield from scalars(x)
    else:
        yield value


def structure(obj) -> tuple:
    """Every structure tensor an algebra, coalgebra or Hopf object carries."""
    return tuple(getattr(obj, field) for field in FIELDS if hasattr(obj, field))


@pytest.mark.parametrize("name", ENTRIES)
def test_constructions_and_witnesses_hold_only_exact_scalars(name):
    h = get_entry(name).hopf
    double = drinfeld_double(h)
    mirrored = drinfeld_double_tilde(h)
    h_dual = dual(h)
    heisenberg = heisenberg_double(h)
    paired = dual_pair_double(evaluation_pairing(h), check=False)
    reports = [run_hopf_suite(x) for x in (double, h_dual, paired.hopf)]
    reports += [check_hom_algebra(x) for x in (mirrored.algebra, heisenberg)]

    values = [structure(x) for x in (double, mirrored, h_dual, heisenberg, paired.hopf)]
    values.append(paired.twisting)
    values += [(e.witness.lhs, e.witness.rhs) for r in reports for e in r.failures()]
    assert {type(c) for c in scalars(tuple(values))} <= {int, Fraction}


class _Divisions(ast.NodeVisitor):
    """Collects ``(module, enclosing function, source)`` of each true division."""

    def __init__(self, module: str):
        self.module = module
        self.scope: list[str] = []
        self.found: list[tuple[str, str, str]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_BinOp(self, node):  # also ``x /= y``, through visit_AugAssign
        if isinstance(node.op, ast.Div):
            self.found.append((self.module, ".".join(self.scope), ast.unparse(node)))
        self.generic_visit(node)

    visit_AugAssign = visit_BinOp


def test_true_division_only_in_the_exact_quotient():
    found = []
    for path in sorted(Path(homhopf.__file__).parent.glob("*.py")):
        visitor = _Divisions(path.stem)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found += visitor.found
    assert found == [("exactlin", "_quotient", "Fraction(x) / p")]


class _DenseLists(ast.NodeVisitor):
    """Collects ``(enclosing function, source)`` of each ``[ZERO] * n`` or
    ``[0] * n``: a dense list of zeros, the accumulator of a dense kernel."""

    def __init__(self):
        self.scope: list[str] = []
        self.found: list[tuple[str, str]] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.Mult) and any(map(self._zeros, (node.left, node.right))):
            self.found.append((".".join(self.scope), ast.unparse(node)))
        self.generic_visit(node)

    @staticmethod
    def _zeros(node) -> bool:
        if not isinstance(node, ast.List) or len(node.elts) != 1:
            return False
        (elt,) = node.elts
        return (isinstance(elt, ast.Name) and elt.id == "ZERO") or (
            isinstance(elt, ast.Constant) and elt.value == 0
        )


def test_exactlin_kernels_allocate_no_dense_accumulator():
    path = Path(homhopf.__file__).parent / "exactlin.py"
    visitor = _DenseLists()
    visitor.visit(ast.parse(path.read_text(), filename=str(path)))
    assert visitor.found == [("dense", "[ZERO] * v.dim")]


def test_second_hopf_suite_converts_no_structure_tensor(monkeypatch):
    """Operand tables belong to the domain objects: a second run of the Hopf
    suite on the same 36-dim double reads them and converts nothing of length
    36 or more.  Every dense-to-sparse conversion goes through ``nonzeros``,
    so the first suite on a fresh copy of the double does convert its tables."""
    double = drinfeld_double(get_entry("s3_inner").hopf)
    assert run_hopf_suite(double).ok
    lengths = []

    def counted(v):
        v = tuple(v)
        lengths.append(len(v))
        return nonzeros(v)

    monkeypatch.setattr(exactlin, "nonzeros", counted)
    assert run_hopf_suite(double).ok
    assert not [n for n in lengths if n >= double.dim]
    fresh = hopf_algebra(double.dim, *(getattr(double, field) for field in FIELDS))
    lengths.clear()
    assert run_hopf_suite(fresh).ok
    assert max(lengths) >= double.dim


def _converted(monkeypatch) -> list:
    """The vectors every later dense-to-sparse conversion reads, in order."""
    seen = []

    def counted(v):
        v = tuple(v)
        seen.append(v)
        return nonzeros(v)

    monkeypatch.setattr(exactlin, "nonzeros", counted)
    return seen


def test_matched_pair_check_reuses_the_left_action_cells(monkeypatch):
    """The module-coalgebra sub-check of ``check_matched_pair`` reads
    ``mp.left_module``, whose ``act_cells`` are ``mp.left_cells``, and the
    structure-map powers are views of the two bialgebras: a second check
    converts nothing at all.  The one conversion made after it shows that
    the count is live."""
    h = get_entry("s3_inner").hopf
    hop, act, co = self_bicross_data(h)
    mp = dual_matched_pair(h, hop, act, co, check=False)
    check_matched_pair(mp)
    seen = _converted(monkeypatch)
    check_matched_pair(mp)
    exactlin.sparse((1,))
    assert mp.left_module.act_cells is mp.left_cells
    assert seen == [(1,)]


def test_matched_pair_check_reuses_the_right_action_cells(monkeypatch):
    """The right action is checked as ``mp.right_module``, a left action of
    ``A_op`` whose cells, transposed, are ``mp.right_cells``: a second check
    converts nothing at all, the right action included."""
    h = get_entry("s3_inner").hopf
    mp = dual_matched_pair(h, *self_bicross_data(h), check=False)
    check_matched_pair(mp)
    seen = _converted(monkeypatch)
    check_matched_pair(mp)
    exactlin.sparse((1,))
    act = mp.right_module.act_cells
    assert all(mp.right_cells[g][a] is act[a][g] for a in range(mp.A.dim) for g in range(mp.H.dim))
    assert seen == [(1,)]


def test_left_coaction_check_reads_the_coactor_tables(monkeypatch):
    """``check_left_comodule_algebra`` takes the coactor's own coproduct as
    the coaction and reads the ``comul_rows`` and ``comul_terms`` of its
    coalgebra's ``op``: a second check converts nothing of the coactor's
    dimension or more."""
    tilde = drinfeld_double_tilde(get_entry("cyclic:3").hopf)
    check_left_comodule_algebra(tilde, tilde)
    seen = _converted(monkeypatch)
    check_left_comodule_algebra(tilde, tilde)
    assert all(len(v) < tilde.dim for v in seen)


def test_coproduct_coaction_reads_the_coactor_tables(monkeypatch):
    """A right coaction whose rows are its coactor's own coproduct, as in the
    first step of ``verify prop4.7``, holds the coactor's ``comul_rows`` and
    reads its terms from them: once the coactor's tables exist, checking a
    fresh such coaction converts nothing of the coactor's dimension or more."""
    double = drinfeld_double(get_entry("cyclic:3").hopf)
    delta = double.coalgebra.comul_rows
    assert check_comodule_algebra(double, ComoduleCoaction(double.bialgebra, double, delta)).ok
    seen = _converted(monkeypatch)
    coaction = ComoduleCoaction(double.bialgebra, double, delta)
    assert check_comodule_algebra(double, coaction).ok
    assert coaction.coact_rows is double.coalgebra.comul_rows
    assert all(len(v) < double.dim for v in seen)


def test_second_prop_4_7_on_the_same_objects_converts_nothing_of_the_double(monkeypatch):
    """``verify prop4.7`` reads every table through the views of the objects
    it builds; the right cocycle twist and the left comodule-algebra check
    share the ``op`` of the mirrored double's coalgebra.  When the
    constructions hand back the same objects, a second run converts nothing
    of the double's dimension or more."""
    for name in ("drinfeld_double", "drinfeld_double_tilde", "cocycle_twist"):
        monkeypatch.setattr(verify, name, lru_cache(maxsize=None)(getattr(verify, name)))
    h = get_entry("cyclic:3").hopf
    first = verify.verify_prop_4_7(h)
    seen = _converted(monkeypatch)
    assert verify.verify_prop_4_7(h).steps == first.steps
    assert all(len(v) < h.dim**2 for v in seen)


def test_structure_maps_are_inverted_once_per_object(monkeypatch):
    """A ``HomAlgebra`` or ``HomCoalgebra`` inverts its structure map once,
    when it is built, and keeps the inverse as ``alpha_inverse``; the algebra
    and the coalgebra of one Hopf object share one inverse, and a builder
    that knows the inverse hands it over: the dual's is the transpose of the
    structure map and a product space's the Kronecker product of the
    factors' inverses.  Building the s3_inner entry and its double and
    running a Hopf suite on the double inverts two 6-dim matrices: the
    entry's structure map and its antipode.  The suite itself inverts none."""
    inverted = []

    def counted(m):
        inverted.append(len(m))
        return mat_inverse(m)

    for module in (exactlin, structures, constructions):
        monkeypatch.setattr(module, "mat_inverse", counted)
    h = get_entry("s3_inner").hopf
    double = drinfeld_double(h)
    assert sorted(inverted) == [6, 6]
    assert run_hopf_suite(double).ok
    assert len(inverted) == 2
    for obj in (h, double):
        assert obj.algebra.alpha_inverse is obj.coalgebra.alpha_inverse
        assert mat_compose(obj.alpha, obj.alpha_inverse) == identity(obj.dim)


def test_the_antipode_is_inverted_once_per_object(monkeypatch):
    """``HomHopfAlgebra.antipode_inverse`` is found on first use and kept:
    the double, the opposite and co-opposite Hopf algebras and the canonical
    R-matrix of one object invert its antipode once between them.  The dense
    antipode is made anew on each read, so inversions are counted by value."""
    h = get_entry("s3_inner").hopf
    inverted = []

    def counted(m):
        inverted.append(m)
        return mat_inverse(m)

    for module in (exactlin, structures, constructions):
        monkeypatch.setattr(module, "mat_inverse", counted)
    double = drinfeld_double(h)
    opposite_hopf(h)
    co_opposite(h)
    canonical_r_matrix(h, double)
    assert [m for m in inverted if m == h.antipode] == [h.antipode]


def _name(target) -> str:
    """The name an expression reads: ``f`` in ``f`` and in ``m.f``."""
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")


class _Caches(ast.NodeVisitor):
    """Collects ``(module, function)`` of each ``functools.lru_cache`` or
    ``functools.cache`` decorator or call."""

    NAMES = ("lru_cache", "cache")

    def __init__(self, module: str):
        self.module = module
        self.found: list[tuple[str, str]] = []

    def _check(self, node, where: str) -> None:
        if _name(node.func if isinstance(node, ast.Call) else node) in self.NAMES:
            self.found.append((self.module, where))

    def visit_FunctionDef(self, node):
        for decorator in node.decorator_list:
            self._check(decorator, node.name)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        self._check(node, ast.unparse(node))
        self.generic_visit(node)


def test_no_module_level_caches():
    """Tables live with their objects (``cached_property``), not in
    process-wide caches keyed by structure constants."""
    found = []
    for path in sorted(Path(homhopf.__file__).parent.glob("*.py")):
        visitor = _Caches(path.stem)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found += visitor.found
    assert found == []


def test_powers_and_the_inverse_antipode_are_views():
    """A power of a structure map is ``power(k)`` and the inverse of an
    antipode is ``HomHopfAlgebra.antipode_inverse``, each built once per
    object: no module defines or calls ``alpha_power``, and no module but
    ``structures`` calls ``mat_inverse`` on an attribute ``antipode`` or
    ``alpha``."""
    found = []
    for path in sorted(Path(homhopf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "alpha_power":
                found.append((path.stem, f"def {node.name}"))
            elif isinstance(node, ast.Call) and _name(node.func) == "alpha_power":
                found.append((path.stem, ast.unparse(node)))
            elif isinstance(node, ast.Call) and _name(node.func) == "mat_inverse":
                inverts = [a for a in node.args if getattr(a, "attr", "") in ("antipode", "alpha")]
                if inverts and path.stem != "structures":
                    found.append((path.stem, ast.unparse(node)))
    assert found == []


def _dense_field(node) -> bool:
    """Whether ``node`` reads a dense ``mul``, ``comul`` or ``antipode`` field, or an entry of one."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in ("mul", "comul", "antipode")


def test_identifications_are_checked_by_structures():
    """``verify`` compares two objects through ``structures.check_morphism``
    or ``_sweep``: it defines none of the dense comparison helpers it once
    had and imports no ``comul_matrix``, and no module but ``structures``
    compares two objects' dense product, coproduct or antipode fields with
    ``!=``."""
    helpers = ("_dense_sweep", "_tensor_equal", "_matrix_equal", "_algebra_agrees")
    found = []
    tree = ast.parse(Path(verify.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in helpers:
            found.append(("verify", f"def {node.name}"))
        elif isinstance(node, ast.ImportFrom) and "comul_matrix" in [a.name for a in node.names]:
            found.append(("verify", "import comul_matrix"))
    for path in sorted(Path(homhopf.__file__).parent.glob("*.py")):
        if path.stem == "structures":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare) and any(isinstance(o, ast.NotEq) for o in node.ops):
                if all(_dense_field(x) for x in (node.left, *node.comparators)):
                    found.append((path.stem, ast.unparse(node)))
    assert found == []


def test_dense_round_trip_helpers_are_gone():
    """The sparse tables are the domain objects' fields, and a dense tensor is
    made from a table only where it is read: no module defines, imports or
    reads a helper of the old dense round trip (``comul_matrix``,
    ``comul_tensor``, ``_op_comul``, ``tensor3_from_entries``) or of the
    table handover that kept dense fields beside the tables (``with_tables``,
    the ``from_cells`` and ``from_rows`` constructors, ``ObjectRecord._built``,
    ``ComoduleCoaction._coproduct``), nor the dense-only ``matrix_from_rows``
    and ``tensor3_shape``."""
    gone = {
        "comul_matrix",
        "comul_tensor",
        "_op_comul",
        "tensor3_from_entries",
        "with_tables",
        "from_cells",
        "from_rows",
        "_built",
        "_coproduct",
        "matrix_from_rows",
        "tensor3_shape",
    }
    found = []
    for path in sorted(Path(homhopf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name in gone:
                found.append((path.stem, f"def {node.name}"))
            elif isinstance(node, ast.ImportFrom):
                found += [(path.stem, f"import {a.name}") for a in node.names if a.name in gone]
            elif isinstance(node, (ast.Name, ast.Attribute)) and _name(node) in gone:
                found.append((path.stem, ast.unparse(node)))
    assert found == []
