"""One representation: the sparse tables are the domain objects' fields, and
no domain type makes or keeps a dense tensor.

The outputs are those of every construction the construction digests lock,
on the inputs there and on catalog entries, of ``dual``, ``opposite_hopf``,
``co_opposite`` and ``heisenberg_double`` on the same inputs, of
``cocycle_twist`` by both canonical cocycles, the catalog entries
themselves, and the objects parsed from their files.

- *consistency*: each output, rebuilt from the dense tensors of its tables
  (``conftest.dense_field``) through the tests' dense constructor
  (``conftest.hopf_algebra``, or the conversion it makes for an algebra, a
  coalgebra or a bialgebra), is ``==`` to it with an equal ``hash``, and so
  are their ``op`` views;
- *one copy*: after the s3_inner double, its dual, its Heisenberg double,
  ``self_bicross`` and ``dual_pair_double`` are built and checked, no domain
  object's ``__dict__`` holds a dense structure tensor or antipode.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import pytest
from test_construction_digests import CONSTRUCTIONS, INPUTS

from conftest import dense_field, hopf_algebra
from homhopf import algfile, algread
from homhopf.bicross import self_bicross, self_bicross_data
from homhopf.catalog import get_entry
from homhopf.checkers import check_hom_algebra, run_hopf_suite
from homhopf.constructions import (
    canonical_cocycles,
    co_opposite,
    cocycle_twist,
    drinfeld_double,
    drinfeld_double_tilde,
    dual,
    heisenberg_double,
    opposite_hopf,
)
from homhopf.exactlin import cells, flatten_pair, rows
from homhopf.fileformat import bundle_of_entry, parse, serialize
from homhopf.laws import check_comodule_coalgebra, check_module_algebra
from homhopf.matchedpair import check_matched_pair, dual_matched_pair
from homhopf.pairing import dual_pair_double, evaluation_pairing
from homhopf.structures import (
    ComoduleCoaction,
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopfAlgebra,
    ModuleAction,
    Record,
)

CATALOG = ("one", "ax1", "kz2", "sweedler_hom", "cyclic:3")
BUILDERS = {
    **CONSTRUCTIONS,
    "dual": dual,
    "opposite_hopf": opposite_hopf,
    "co_opposite": co_opposite,
    "heisenberg_double": heisenberg_double,
    "cocycle_twist": lambda h: tuple(
        cocycle_twist(host, sigma, check=False)
        for host, sigma in zip(
            (drinfeld_double(h).bialgebra, drinfeld_double_tilde(h)), canonical_cocycles(h)
        )
    ),
}
SOURCES = {
    **INPUTS,
    **{name: (lambda name=name: get_entry(name).hopf) for name in CATALOG},
}
CASES = [(b, s) for b in BUILDERS for s in SOURCES]
DENSE = ("mul", "comul", "antipode", "act", "coact", "left_action", "right_action")


@lru_cache(maxsize=None)
def built(builder: str, source: str) -> tuple:
    out = BUILDERS[builder](SOURCES[source]())
    return out if isinstance(out, tuple) else (out,)


def parsed(name: str):
    """The Hopf object of the catalog entry ``name``, read back from its file
    into the dense records of ``fileformat``."""
    return parse(serialize(bundle_of_entry(get_entry(name)))).object().hom_hopf()


def read_back(name: str):
    """The Hopf object of the catalog entry ``name``, read back from its file
    as a command reads it."""
    return algread.read(algfile.write(algfile.bundle_of_entry(get_entry(name)))).object().hom_hopf()


def rebuilt(x):
    """``x`` built again from the dense tensors of its tables through the dense constructor."""
    if isinstance(x, HomHopfAlgebra):
        dense = (dense_field(x, f) for f in ("mul", "unit", "comul", "counit", "alpha", "antipode"))
        return hopf_algebra(x.dim, *dense)
    if isinstance(x, HomBialgebra):
        return HomBialgebra(rebuilt(x.algebra), rebuilt(x.coalgebra))
    if isinstance(x, HomAlgebra):
        return HomAlgebra(x.dim, cells(dense_field(x, "mul")), x.unit, x.alpha)
    if isinstance(x, HomCoalgebra):
        comul_rows = rows(map(flatten_pair, dense_field(x, "comul")))
        return HomCoalgebra(x.dim, comul_rows, x.counit, x.alpha)
    if isinstance(x, ModuleAction):
        return ModuleAction(x.actor, x.carrier, cells(dense_field(x, "act")))
    return ComoduleCoaction(x.coactor, x.carrier, rows(map(flatten_pair, dense_field(x, "coact"))))


def assert_rebuilt_equal(objects) -> None:
    for x in objects:
        twin = rebuilt(x)
        assert twin == x and x == twin and twin is not x
        assert hash(twin) == hash(x)
        for part in ("algebra", "coalgebra"):
            if hasattr(x, part):
                assert getattr(twin, part).op == getattr(x, part).op


@pytest.mark.parametrize("case", CASES, ids=" ".join)
def test_constructions_hand_over_their_tables(case):
    assert_rebuilt_equal(built(*case))


@pytest.mark.parametrize("name", (*CATALOG, "s3_inner"))
def test_catalog_and_parsed_objects_hand_over_their_tables(name):
    entry = get_entry(name)
    outputs = (entry.hopf, parsed(name), read_back(name))
    assert_rebuilt_equal(outputs)
    assert all(h == entry.hopf and hash(h) == hash(entry.hopf) for h in outputs)
    assert all(h.algebra.alpha_inverse is h.coalgebra.alpha_inverse for h in outputs)
    assert_rebuilt_equal(x for x in (entry.action, entry.coaction) if x is not None)


def test_a_relabelled_record_holds_no_stale_table():
    """A record rebuilt with ``dataclasses.replace`` builds its objects from
    its own dense fields: a file record holds no table."""
    rec = parse(serialize(bundle_of_entry(get_entry("cyclic:3")))).object()
    swapped = replace(rec, mul=tuple(plane[::-1] for plane in rec.mul))
    assert dense_field(swapped.hom_algebra(), "mul") == swapped.mul != rec.mul
    assert dense_field(rec.hom_algebra(), "mul") == rec.mul


def domain_objects(roots) -> list:
    """Every ``Record`` reachable from ``roots`` through instance ``__dict__``
    values: fields and cached views such as ``op`` or ``left_module``."""
    seen, stack = {}, list(roots)
    while stack:
        x = stack.pop()
        if isinstance(x, Record) and id(x) not in seen:
            seen[id(x)] = x
            stack += vars(x).values()
    return list(seen.values())


def test_no_domain_object_holds_a_dense_structure_tensor():
    h = get_entry("s3_inner").hopf
    double, h_dual, heisenberg = drinfeld_double(h), dual(h), heisenberg_double(h)
    bicross = self_bicross(h, check=False)
    paired = dual_pair_double(evaluation_pairing(h), check=False)
    for hopf in (double, h_dual, bicross, paired.hopf):
        run_hopf_suite(hopf)
    check_hom_algebra(heisenberg)
    hop, act, co = self_bicross_data(h)
    check_module_algebra(act)
    check_comodule_coalgebra(co)
    mp = dual_matched_pair(h, hop, act, co, check=False)
    check_matched_pair(mp)
    objects = domain_objects((h, double, h_dual, heisenberg, bicross, paired, act, co, mp))
    assert len(objects) > 20
    assert [(type(x).__name__, k) for x in objects for k in DENSE if k in vars(x)] == []
