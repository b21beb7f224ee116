"""Mutation witnesses: one structure constant perturbed, every failing axiom pinned.

Each case perturbs one entry of ``mul``, ``comul``, ``counit``, ``alpha``,
the antipode or the R-matrix of the 36-dimensional Drinfel'd double of
``s3_inner`` or of ``sweedler_hom``, or one entry of the twisting map of the
double built from the evaluation pairing of ``s3_inner``, runs the checkers
that read it, and compares every failing entry (axiom, first failing index,
and both sides as ``format_scalar`` text) with the values below.  They lock
the first-failure sweeps of the Hom-algebra, Hom-coalgebra, bialgebra,
antipode, twisting-map and quasitriangularity checkers, including the mixed
integer and proper-fraction arithmetic that a 1/2 perturbation forces.  The
cancelling cases subtract an existing entry, so a product cell or an
antipode entry becomes empty.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import lru_cache

import pytest

from homhopf.catalog import get_entry
from homhopf.constructions import (
    canonical_r_matrix,
    drinfeld_double,
    dual_pair_double,
    evaluation_pairing,
)
from homhopf.exactlin import format_scalar
from homhopf.structures import (
    RMatrix,
    check_antipode,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    check_quasitriangular,
    check_twisting,
    hopf_algebra,
)

HALF = Fraction(1, 2)
FIELDS = ("mul", "unit", "comul", "counit", "alpha", "antipode")


@lru_cache(maxsize=None)
def host(name: str):
    """The unperturbed Hom-Hopf algebra and its R-matrix entries."""
    if name == "s3_inner double":
        base = get_entry("s3_inner").hopf
        double = drinfeld_double(base)
        return double, canonical_r_matrix(base, double).entries
    entry = get_entry(name)
    return entry.hopf, entry.rmatrix.entries


@lru_cache(maxsize=None)
def pair_double(name: str):
    """The evaluation pairing of a catalog entry and the twisting map of the
    double built from it."""
    pairing = evaluation_pairing(get_entry(name).hopf)
    return pairing, dual_pair_double(pairing, check=False).twisting


def bump(value, index, delta):
    """``value`` (a nested tuple) with ``delta`` added at ``index``."""
    if not index:
        return value + delta
    head, rest = index[0], index[1:]
    return tuple(bump(x, rest, delta) if i == head else x for i, x in enumerate(value))


def pin(v) -> str:
    """The nonzero entries of a witness vector as ``index:value`` text; a
    vector with more than 16 nonzeros is pinned by the sha256 of that text."""
    text = " ".join(f"{i}:{format_scalar(c)}" for i, c in enumerate(v) if c)
    if text.count(" ") < 16:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]


COALGEBRA_READERS = (check_hom_coalgebra, check_hom_bialgebra, check_antipode)

# (host, perturbed field, index, delta) -> the checkers that read the field
CASES = {
    ("s3_inner double", "mul", (1, 2, 3), 1): (check_hom_algebra, check_hom_bialgebra),
    ("s3_inner double", "comul", (2, 1, 2), 1): (check_hom_bialgebra,),
    ("s3_inner double", "alpha", (0, 1), HALF): (check_hom_algebra,),
    ("s3_inner double", "r", (1, 2), 1): (check_quasitriangular,),
    ("s3_inner double", "r", (0, 0), HALF): (check_quasitriangular,),
    ("sweedler_hom", "mul", (1, 2, 3), 1): (check_hom_algebra, check_hom_bialgebra),
    ("sweedler_hom", "mul", (3, 3, 0), HALF): (check_hom_algebra, check_hom_bialgebra),
    ("sweedler_hom", "comul", (2, 1, 2), 1): (check_hom_bialgebra,),
    ("sweedler_hom", "alpha", (0, 1), HALF): (check_hom_algebra,),
    ("sweedler_hom", "r", (0, 0), HALF): (check_quasitriangular,),
    # Hom-coalgebra and antipode sweeps
    ("s3_inner double", "comul", (5, 0, 5), 1): COALGEBRA_READERS,
    ("s3_inner double", "counit", (1,), 1): COALGEBRA_READERS,
    ("s3_inner double", "antipode", (1, 2), HALF): (check_antipode,),
    ("sweedler_hom", "comul", (3, 0, 3), 1): COALGEBRA_READERS,
    ("sweedler_hom", "counit", (2,), HALF): COALGEBRA_READERS,
    ("sweedler_hom", "antipode", (2, 3), 1): (check_antipode,),
    # cancelling: the product cell becomes empty
    ("s3_inner double", "mul", (0, 6, 6), -1): (check_hom_algebra, check_hom_bialgebra),
    ("sweedler_hom", "mul", (1, 2, 3), -1): (check_hom_algebra, check_hom_bialgebra),
    # the twisting map of the evaluation-pairing double
    ("s3_inner", "twisting", (1, 6), 1): (check_twisting,),
}


def observed(case) -> list[tuple]:
    name, field, index, delta = case
    if field == "twisting":
        pairing, twisting = pair_double(name)
        reports = [check_twisting(pairing.left, pairing.right, bump(twisting, index, delta))]
        return failures(reports)
    h, r = host(name)
    if field == "r":
        args = (h, RMatrix(h.bialgebra, bump(r, index, delta)))
    else:
        parts = {f: getattr(h, f) for f in FIELDS}
        parts[field] = bump(parts[field], index, delta)
        args = (hopf_algebra(h.dim, **parts),)
    return failures([check(*args) for check in CASES[case]])


def failures(reports) -> list[tuple]:
    return [
        (e.axiom_id, e.witness.index, pin(e.witness.lhs), pin(e.witness.rhs))
        for report in reports
        for e in report.failures()
    ]


EXPECTED = {
    ('s3_inner double', 'mul', (1, 2, 3), 1): [
        ('algebra.alpha-multiplicative', (1, 2), '4:1', '3:1'),
        ('algebra.left-unit', (2,), '2:1 3:1', '2:1'),
        ('algebra.right-unit', (1,), '1:1 3:1', '1:1'),
        ('algebra.hom-associative', (1, 1, 2), '', '3:1'),
        ('bialgebra.comul-multiplicative', (0, 1), '', '75:1 110:1'),
    ],
    ('s3_inner double', 'comul', (2, 1, 2), 1): [
        ('bialgebra.comul-multiplicative', (0, 2), '', '38:1'),
        ('bialgebra.comul-unit', (), 'sha256:b7ca99616f6f8f76', 'sha256:9330959cd08d1b02'),
    ],
    ('s3_inner double', 'alpha', (0, 1), HALF): [
        ('algebra.alpha-multiplicative', (0, 0), '0:1 1:1/2', '0:1 1:1/4'),
        ('algebra.alpha-fixes-unit', (), '0:1 1:3/2 2:1 3:1 4:1 5:1', '0:1 1:1 2:1 3:1 4:1 5:1'),
        ('algebra.left-unit', (0,), '0:1', '0:1 1:1/2'),
        ('algebra.right-unit', (0,), '0:1', '0:1 1:1/2'),
        ('algebra.hom-associative', (0, 1, 1), '1:1/2', ''),
    ],
    ('s3_inner double', 'r', (1, 2), 1): [
        (
            'quasitriangular.intertwines-comul',
            (18,),
            '1110:1 1136:1 1148:1 1177:1 1191:1 1240:1 1271:1',
            '1110:1 1136:1 1177:1 1183:1 1191:1 1240:1 1271:1',
        ),
        ('quasitriangular.left-hexagon', (), 'sha256:3af0c0edd8f0aa53', 'sha256:5443f8a8cf407b38'),
        ('quasitriangular.right-hexagon', (), 'sha256:d67212a7fb18d55a', 'sha256:4f723c52058c1687'),
    ],
    ('s3_inner double', 'r', (0, 0), HALF): [
        ('quasitriangular.left-hexagon', (), 'sha256:f8ff1dc0967b4a47', 'sha256:5df4c3ae38859f68'),
        ('quasitriangular.right-hexagon', (), 'sha256:71798719ac3e0245', 'sha256:514090a14362f247'),
    ],
    ('sweedler_hom', 'mul', (1, 2, 3), 1): [
        ('algebra.hom-associative', (1, 1, 2), '2:2', '2:1'),
        ('bialgebra.comul-multiplicative', (2, 2), '', '11:-1'),
    ],
    ('sweedler_hom', 'mul', (3, 3, 0), HALF): [
        ('algebra.hom-associative', (1, 2, 3), '', '0:-1/2'),
        ('bialgebra.comul-multiplicative', (3, 3), '0:1/2', '0:1'),
        ('bialgebra.counit-multiplicative', (3, 3), '0:1/2', ''),
    ],
    ('sweedler_hom', 'comul', (2, 1, 2), 1): [
        ('bialgebra.comul-multiplicative', (1, 2), '7:-1 12:-1', '3:1 7:-1 12:-1'),
    ],
    ('sweedler_hom', 'alpha', (0, 1), HALF): [
        ('algebra.alpha-multiplicative', (0, 0), '0:1 1:1/2', '0:5/4 1:1'),
        ('algebra.alpha-fixes-unit', (), '0:1 1:1/2', '0:1'),
        ('algebra.left-unit', (0,), '0:1', '0:1 1:1/2'),
        ('algebra.right-unit', (0,), '0:1', '0:1 1:1/2'),
        ('algebra.hom-associative', (0, 0, 1), '0:1/2 1:1', '1:1'),
    ],
    ('sweedler_hom', 'r', (0, 0), HALF): [
        (
            'quasitriangular.intertwines-comul',
            (2,),
            '2:1/2 3:-1/2 6:1 7:1/2 8:1 9:1/2 12:1/2 13:-1/2',
            '2:1 3:-1/2 6:1/2 7:1/2 8:1/2 9:1 12:1/2 13:-1/2',
        ),
        (
            'quasitriangular.left-hexagon',
            (),
            '0:1 1:1/2 20:1/2 21:-1/2',
            '0:5/4 1:1 4:1/4 5:-1/4 16:1/4 17:-1/4 20:1/2 21:-1/2',
        ),
        (
            'quasitriangular.right-hexagon',
            (),
            '0:1 5:1/2 16:1/2 21:-1/2',
            '0:5/4 1:1/4 4:1/4 5:1/2 16:1 17:-1/4 20:-1/4 21:-1/2',
        ),
    ],
    ('s3_inner double', 'comul', (5, 0, 5), 1): [
        (
            'coalgebra.alpha-comultiplicative',
            (4,),
            '3:1 5:1 40:1 77:1 108:1 146:1 181:1',
            '3:1 40:1 77:1 108:1 146:1 181:1',
        ),
        ('coalgebra.left-counit', (5,), '3:1 5:1', '3:1'),
        ('coalgebra.hom-coassociative', (0,), 'sha256:9fc1ea1d3d5300ff', 'sha256:d3f5bbd555a813f7'),
        (
            'bialgebra.comul-multiplicative',
            (4, 4),
            '3:1 5:1 40:1 77:1 108:1 146:1 181:1',
            '3:1 40:1 77:1 108:1 146:1 181:1',
        ),
        ('bialgebra.comul-unit', (), 'sha256:4135c8570e057465', 'sha256:9330959cd08d1b02'),
        (
            'antipode.anti-comultiplicative',
            (5,),
            '3:1 5:1 40:1 77:1 108:1 146:1 181:1',
            '3:1 40:1 77:1 108:1 146:1 180:1 181:1',
        ),
    ],
    ('s3_inner double', 'counit', (1,), 1): [
        ('coalgebra.left-counit', (0,), '0:1 2:1', '0:1'),
        ('coalgebra.right-counit', (0,), '0:1 2:1', '0:1'),
        ('bialgebra.counit-multiplicative', (0, 1), '', '0:1'),
        ('bialgebra.counit-unit', (), '0:2', '0:1'),
        ('antipode.left', (1,), '', '0:1 1:1 2:1 3:1 4:1 5:1'),
        ('antipode.right', (1,), '', '0:1 1:1 2:1 3:1 4:1 5:1'),
        ('antipode.preserves-counit', (1,), '', '0:1'),
    ],
    ('s3_inner double', 'antipode', (1, 2), HALF): [
        ('antipode.left', (0,), '0:1 1:1 2:3/2 3:1 4:1 5:1', '0:1 1:1 2:1 3:1 4:1 5:1'),
        ('antipode.right', (0,), '0:1 1:1 2:3/2 3:1 4:1 5:1', '0:1 1:1 2:1 3:1 4:1 5:1'),
        (
            'antipode.anti-comultiplicative',
            (0,),
            '0:1 38:1 73:1 111:1 148:1 185:1',
            '0:1 38:3/2 73:3/2 111:1 148:1 185:1',
        ),
        ('antipode.anti-multiplicative', (1, 1), '2:3/2', '2:9/4'),
    ],
    ('sweedler_hom', 'comul', (3, 0, 3), 1): [
        ('coalgebra.left-counit', (3,), '', '3:-1'),
        (
            'coalgebra.hom-coassociative',
            (3,),
            '3:-1 12:-1 23:1 28:1 48:1',
            '3:1 7:-1 12:-1 19:-1 23:1 28:1 48:1',
        ),
        ('bialgebra.comul-multiplicative', (1, 2), '3:1 7:-1 12:-1', '7:-1 12:-1'),
        ('antipode.left', (3,), '3:-1', ''),
        ('antipode.right', (3,), '2:-1', ''),
        ('antipode.anti-comultiplicative', (2,), '3:-1 7:1 12:1', '7:1 12:1'),
    ],
    ('sweedler_hom', 'counit', (2,), HALF): [
        ('coalgebra.counit-alpha', (2,), '0:-1/2', '0:1/2'),
        ('coalgebra.left-counit', (2,), '1:-1/2 2:-1', '2:-1'),
        ('coalgebra.right-counit', (2,), '0:-1/2 2:-1', '2:-1'),
        ('bialgebra.counit-multiplicative', (0, 2), '0:-1/2', '0:1/2'),
        ('antipode.left', (2,), '', '0:1/2'),
        ('antipode.right', (2,), '', '0:1/2'),
        ('antipode.preserves-counit', (2,), '', '0:1/2'),
    ],
    ('sweedler_hom', 'antipode', (2, 3), 1): [
        ('antipode.left', (2,), '2:1', ''),
        ('antipode.right', (2,), '3:1', ''),
        ('antipode.anti-multiplicative', (1, 2), '2:1', ''),
    ],
    ('s3_inner double', 'mul', (0, 6, 6), -1): [
        ('algebra.left-unit', (6,), '', '6:1'),
        ('algebra.hom-associative', (0, 6, 6), '12:1', ''),
        ('bialgebra.comul-multiplicative', (0, 6), '', '260:1 295:1 333:1 370:1 407:1'),
        ('bialgebra.counit-multiplicative', (0, 6), '', '0:1'),
    ],
    ('sweedler_hom', 'mul', (1, 2, 3), -1): [
        ('algebra.hom-associative', (1, 1, 2), '', '2:1'),
        ('bialgebra.comul-multiplicative', (2, 2), '', '11:1'),
    ],
    ('s3_inner', 'twisting', (1, 6), 1): [
        ('twisting.second-factor-product', (1,), '6:2', '6:4'),
        ('twisting.first-factor-product', (7,), '12:1', '12:4'),
    ],
}


def case_id(case) -> str:
    name, field, index, delta = case
    return f"{name}-{field}{list(index)}+{delta}"


@pytest.mark.parametrize("case", list(CASES), ids=case_id)
def test_failing_axioms_and_witnesses(case):
    assert observed(case) == EXPECTED[case]
