"""Behaviour lock: the serialized output of each construction on inputs the
CLI locks do not cover.

``construction_digests.json`` records, for each construction and input
below, the sha256 of the construction's output serialized as a one-object
file.  Any change to a structure constant, unit, counit, structure map or
antipode of a constructed object shows up here.  The fixture is written by

    PYTHONPATH=src python tests/test_construction_digests.py

and is only regenerated when a change of a constructed object is intended.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from homhopf.catalog import catalog_group, cyclic_table, get_entry
from homhopf.constructions import (
    co_opposite,
    double_cross_product,
    drinfeld_double,
    drinfeld_double_tilde,
    dual,
    dual_matched_pair,
    dual_pair_double,
    evaluation_pairing,
    heisenberg_double,
    self_bicross,
    self_bicross_data,
)
from homhopf.fileformat import SCHEMA_VERSION, AlgebraFile, object_record, serialize

FIXTURE = Path(__file__).with_name("construction_digests.json")

INPUTS = {
    "s3_inner": lambda: get_entry("s3_inner").hopf,
    # Z5 twisted by g -> g^2
    "z5_square": lambda: catalog_group(cyclic_table(5), (0, 2, 4, 1, 3)).hopf,
    "co_opposite(sweedler_hom)": lambda: co_opposite(get_entry("sweedler_hom").hopf),
    "dual(s3_inner)": lambda: dual(get_entry("s3_inner").hopf),
}

CONSTRUCTIONS = {
    "heisenberg_double": heisenberg_double,
    "drinfeld_double": drinfeld_double,
    "drinfeld_double_tilde": drinfeld_double_tilde,
    "self_bicross": lambda h: self_bicross(h, check=False),
    "dual_pair_double": lambda h: dual_pair_double(evaluation_pairing(h), check=False).hopf,
    "double_cross_product": lambda h: double_cross_product(
        dual_matched_pair(h, *self_bicross_data(h), check=False), check=False
    ),
}

CASES = [(c, i) for c in CONSTRUCTIONS for i in INPUTS]


def _key(case: tuple[str, str]) -> str:
    return " ".join(case)


def digest(construction: str, name: str) -> str:
    obj = CONSTRUCTIONS[construction](INPUTS[name]())
    data = serialize(AlgebraFile(SCHEMA_VERSION, (object_record("x", obj),), ()))
    return hashlib.sha256(data).hexdigest()


def test_fixture_covers_every_case():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(map(_key, CASES))


@pytest.mark.parametrize("case", CASES, ids=_key)
def test_construction_digest(case):
    assert digest(*case) == json.loads(FIXTURE.read_text())[_key(case)]


if __name__ == "__main__":
    golden = {_key(case): digest(*case) for case in CASES}
    FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
