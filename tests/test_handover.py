"""Table handover: a builder hands the sparse tables it made to the object
it builds, and the object's dense fields are made from them.

The outputs are those of every construction the construction digests lock,
on the inputs there and on catalog entries, of ``dual``, ``opposite_hopf``,
``co_opposite`` and ``heisenberg_double`` on the same inputs, of
``cocycle_twist`` by both canonical cocycles, the catalog entries
themselves, and the objects parsed from their files.  For each output and
its ``op`` views:

- *consistency*: the handed tables equal, made dense, the tables that the
  dense constructors convert from the same object rebuilt through
  ``replaced``;
- *spy*: reading ``mul_cells``, ``comul_rows``, ``comul_op_rows``,
  ``comul_terms`` or ``antipode_rows`` converts nothing: it calls neither
  ``cells`` nor ``rows``.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from conftest import replaced
from test_construction_digests import CONSTRUCTIONS, INPUTS

from homhopf import exactlin, structures
from homhopf.catalog import get_entry
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
from homhopf.errors import MissingStructure
from homhopf.exactlin import Sparse, dense
from homhopf.fileformat import bundle_of_entry, parse, serialize
from homhopf.structures import (
    HomAlgebra,
    HomCoalgebra,
    HomHopfAlgebra,
    algebra_of,
    coalgebra_of,
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
VIEWS = {
    HomAlgebra: ("mul_cells",),
    HomCoalgebra: ("comul_rows", "comul_op_rows", "comul_terms"),
    HomHopfAlgebra: ("antipode_rows",),
}


@lru_cache(maxsize=None)
def built(builder: str, source: str) -> tuple:
    out = BUILDERS[builder](SOURCES[source]())
    return out if isinstance(out, tuple) else (out,)


def parsed(name: str):
    """The Hopf object of the catalog entry ``name``, read back from its file."""
    return parse(serialize(bundle_of_entry(get_entry(name)))).object().hom_hopf()


def handed(obj) -> list:
    """The Hopf object ``obj`` (if it is one), its algebra and its coalgebra
    (those it has), and their ``op`` views: each object that holds tables."""
    parts = [obj] if isinstance(obj, HomHopfAlgebra) else []
    for part_of in (algebra_of, coalgebra_of):
        try:
            part = part_of(obj)
        except MissingStructure:
            continue
        parts += [part, part.op]
    return parts


def rebuilt(x):
    """``x`` built again by its dense constructors: it holds no handed table."""
    if isinstance(x, HomHopfAlgebra):
        parts = {"algebra": replaced(x.algebra), "coalgebra": replaced(x.coalgebra)}
        return replaced(x, bialgebra=replaced(x.bialgebra, **parts))
    return replaced(x)


def views(x) -> dict:
    """The views of ``x`` that a builder hands over or makes from handed tables."""
    names = [name for cls, names in VIEWS.items() if isinstance(x, cls) for name in names]
    return {name: getattr(x, name) for name in names}


def as_dense(table):
    """A table with every sparse vector made dense, so vector lengths count too."""
    if isinstance(table, Sparse):
        return dense(table)
    if isinstance(table, tuple):
        return tuple(as_dense(x) for x in table)
    return table


def read_without_conversion(monkeypatch, outputs) -> list:
    """Every object of ``outputs`` that holds tables, each ``op`` view built
    and every view read with ``cells`` and ``rows`` refused."""

    def refused(*args):
        raise AssertionError("a handed-over view converted a dense field")

    for module in (exactlin, structures):
        monkeypatch.setattr(module, "cells", refused)
        monkeypatch.setattr(module, "rows", refused)
    objects = [x for out in outputs for x in handed(out)]
    for x in objects:
        assert views(x)
    monkeypatch.undo()
    return objects


def assert_handed_tables_match(objects) -> None:
    for x in objects:
        twin = rebuilt(x)
        assert twin == x and twin is not x
        for name, table in views(x).items():
            assert name not in vars(twin)
            assert as_dense(table) == as_dense(getattr(twin, name)), name


@pytest.mark.parametrize("case", CASES, ids=" ".join)
def test_constructions_hand_over_their_tables(monkeypatch, case):
    assert_handed_tables_match(read_without_conversion(monkeypatch, built(*case)))


@pytest.mark.parametrize("name", (*CATALOG, "s3_inner"))
def test_catalog_and_parsed_objects_hand_over_their_tables(monkeypatch, name):
    outputs = (get_entry(name).hopf, parsed(name))
    assert_handed_tables_match(read_without_conversion(monkeypatch, outputs))
    assert all(h.algebra.alpha_inverse is h.coalgebra.alpha_inverse for h in outputs)


def test_a_relabelled_record_holds_no_stale_table():
    """A record rebuilt with ``dataclasses.replace`` keeps no table of the
    record it came from, so its objects convert their own dense fields."""
    from dataclasses import replace

    rec = parse(serialize(bundle_of_entry(get_entry("cyclic:3")))).object()
    assert "mul_cells" in vars(rec)
    swapped = replace(rec, mul=tuple(plane[::-1] for plane in rec.mul))
    assert "mul_cells" not in vars(swapped)
    assert as_dense(swapped.hom_algebra().mul_cells) == swapped.mul
