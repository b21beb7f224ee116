"""Built-in exact instances used as golden fixtures.

Entries: the two-dimensional algebra with a square-zero generator and its
sign-flip structure map (``ax1``), the classical order-two group algebra
(``kz2``) together with its action and coaction on ``ax1``, the
four-dimensional twisted Sweedler algebra with its triangular structure
(``sweedler_hom``), twisted cyclic group algebras (``cyclic:n``), arbitrary
twisted group algebras, and the expected bicrossproduct tables for the
``ax1`` data.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidParameter, NotAGroup, NotAnAutomorphism
from .exactlin import (
    ONE,
    ZERO,
    Vector,
    basis,
    identity,
    matrix_from_entries,
    pair_cells,
    rows_from_entries,
    vector_from_entries,
)
from .structures import (
    MAX_DIM,
    ComoduleCoaction,
    HomHopfAlgebra,
    ModuleAction,
    Record,
    RMatrix,
    hopf_of_tables,
)

F = Fraction


class GroupData(Record):
    """A finite group as an index table, plus the twisting automorphism."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    automorphism: tuple[int, ...]


class CatalogEntry(Record):
    name: str
    hopf: HomHopfAlgebra
    basis: tuple[str, ...]
    partner: HomHopfAlgebra | None = None
    partner_basis: tuple[str, ...] = ()
    action: ModuleAction | None = None
    coaction: ComoduleCoaction | None = None
    rmatrix: RMatrix | None = None
    group: GroupData | None = None


def _hopf(n: int, mul, unit: Vector, comul, counit: Vector, alpha, antipode) -> HomHopfAlgebra:
    """The Hom-Hopf algebra of dimension ``n`` whose product, coproduct and
    antipode have the nonzero entries ``mul``, ``comul`` and ``antipode``,
    ``{index tuple: scalar}``; its tables are built from them."""
    cube = (n, n, n)
    mul, comul = pair_cells(rows_from_entries(cube, mul), n), rows_from_entries(cube, comul)
    return hopf_of_tables(mul, unit, comul, counit, alpha, rows_from_entries((n, n), antipode))


def catalog_one() -> CatalogEntry:
    """The one-dimensional Hom-Hopf algebra (the ground field)."""
    e = basis(1)
    one = hopf_of_tables((e,), (ONE,), e, (ONE,), identity(1), e)
    return CatalogEntry("one", one, ("1",))


def catalog_ax1() -> CatalogEntry:
    """The two-dimensional algebra spanned by the unit and a square-zero
    element x, with structure map x -> -x, bundled with the order-two group
    algebra action (g . x = x) and coaction (rho(g) = g (x) 1)."""
    n = 2
    mul = {(0, 0, 0): ONE, (0, 1, 1): -ONE, (1, 0, 1): -ONE}
    comul = {(0, 0, 0): ONE, (1, 1, 0): -ONE, (1, 0, 1): -ONE}
    sign = {(0, 0): ONE, (1, 1): -ONE}
    beta = matrix_from_entries(n, n, sign)
    ax1 = _hopf(n, mul, (ONE, ZERO), comul, (ONE, ZERO), beta, sign)

    kz2 = catalog_kz2().hopf
    acting = {(0, 0, 0): ONE, (0, 1, 1): -ONE, (1, 0, 0): ONE, (1, 1, 1): ONE}
    act = ModuleAction(kz2, ax1, pair_cells(rows_from_entries((n, n, n), acting), n))
    coacting = rows_from_entries((n, n, n), {(0, 0, 0): ONE, (1, 1, 0): ONE})
    coact = ComoduleCoaction(ax1, kz2, coacting)
    return CatalogEntry(
        "ax1", ax1, ("1", "x"), partner=kz2, partner_basis=("1", "g"), action=act, coaction=coact
    )


def catalog_kz2() -> CatalogEntry:
    """The classical group algebra of the order-two group (structure map
    the identity, involutive group-like generator)."""
    mul = {(0, 0, 0): ONE, (0, 1, 1): ONE, (1, 0, 1): ONE, (1, 1, 0): ONE}
    comul = {(0, 0, 0): ONE, (1, 1, 1): ONE}
    h = _hopf(2, mul, (ONE, ZERO), comul, (ONE, ONE), identity(2), {(0, 0): ONE, (1, 1): ONE})
    return CatalogEntry("kz2", h, ("1", "g"))


def catalog_sweedler_hom() -> CatalogEntry:
    """The four-dimensional twisted Sweedler algebra with basis 1, g, x, gx,
    structure map negating x and gx, and its triangular structure
    R = (1/2)(1 (x) 1 + 1 (x) g + g (x) 1 - g (x) g)."""
    n = 4
    e = {
        (0, 0, 0): ONE, (0, 1, 1): ONE, (0, 2, 2): -ONE, (0, 3, 3): -ONE,
        (1, 0, 1): ONE, (1, 1, 0): ONE, (1, 2, 3): ONE, (1, 3, 2): ONE,
        (2, 0, 2): -ONE, (2, 1, 3): -ONE,
        (3, 0, 3): -ONE, (3, 1, 2): -ONE,
    }
    comul = {
        (0, 0, 0): ONE,
        (1, 1, 1): ONE,
        (2, 2, 1): -ONE, (2, 0, 2): -ONE,
        (3, 3, 0): -ONE, (3, 1, 3): -ONE,
    }
    alpha = matrix_from_entries(
        n, n, {(0, 0): ONE, (1, 1): ONE, (2, 2): -ONE, (3, 3): -ONE}
    )
    antipode = {(0, 0): ONE, (1, 1): ONE, (2, 3): -ONE, (3, 2): ONE}
    h = _hopf(
        n, e, vector_from_entries(n, {0: ONE}), comul, (ONE, ONE, ZERO, ZERO), alpha, antipode
    )
    half = F(1, 2)
    r = RMatrix(
        h.bialgebra,
        matrix_from_entries(n, n, {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): -half}),
    )
    return CatalogEntry("sweedler_hom", h, ("1", "g", "x", "gx"), rmatrix=r)


def _validate_group(table) -> tuple[int, tuple[int, ...]]:
    """Return (identity, inverses) or raise NotAGroup."""
    n = len(table)
    for row in table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise NotAGroup("table entries must index group elements")
    ident = None
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            ident = e
            break
    if ident is None:
        raise NotAGroup("no identity element")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise NotAGroup(f"not associative at ({a}, {b}, {c})")
    inverse = []
    for a in range(n):
        inv = next((b for b in range(n) if table[a][b] == ident == table[b][a]), None)
        if inv is None:
            raise NotAGroup(f"element {a} has no inverse")
        inverse.append(inv)
    return ident, tuple(inverse)


def catalog_group(table, automorphism, name: str = "group") -> CatalogEntry:
    """The twisted group algebra of a finite group along an automorphism:
    the product of two group-likes is the automorphism applied to their
    group product, the coproduct is the twisted diagonal, the antipode
    inversion."""
    n = len(table)
    ident, inverse = _validate_group(table)
    phi = tuple(automorphism)
    if sorted(phi) != list(range(n)):
        raise NotAnAutomorphism("not a bijection on group elements")
    for a in range(n):
        for b in range(n):
            if phi[table[a][b]] != table[phi[a]][phi[b]]:
                raise NotAnAutomorphism(f"does not respect the product at ({a}, {b})")

    mul = {(a, b, phi[table[a][b]]): ONE for a in range(n) for b in range(n)}
    comul = {(a, phi[a], phi[a]): ONE for a in range(n)}
    alpha = matrix_from_entries(n, n, {(a, phi[a]): ONE for a in range(n)})
    antipode = {(a, inverse[a]): ONE for a in range(n)}
    h = _hopf(
        n,
        mul,
        vector_from_entries(n, {ident: ONE}),
        comul,
        (ONE,) * n,
        alpha,
        antipode,
    )
    labels = tuple(f"g{a}" for a in range(n))
    group = GroupData(n, tuple(tuple(row) for row in table), ident, inverse, phi)
    return CatalogEntry(name, h, labels, group=group)


def cyclic_table(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def catalog_cyclic(n: int) -> CatalogEntry:
    """The twisted cyclic group algebra along inversion, so that
    ``g^i . g^j = g^(n-(i+j))`` and ``delta(g^i) = g^(n-i) (x) g^(n-i)``: the
    Yau twist of the classical order-n group algebra along inversion."""
    if not isinstance(n, int) or not 2 <= n <= MAX_DIM:
        raise InvalidParameter(f"cyclic order must be an integer from 2 to {MAX_DIM}, got {n!r}")
    inversion = tuple((n - i) % n for i in range(n))
    return catalog_group(cyclic_table(n), inversion, name=f"cyclic:{n}")


def symmetric3_data() -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The order-six symmetric group table and conjugation by a 3-cycle."""
    perms = [
        (0, 1, 2),
        (1, 2, 0),
        (2, 0, 1),
        (1, 0, 2),
        (0, 2, 1),
        (2, 1, 0),
    ]
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    table = tuple(tuple(index[compose(p, q)] for q in perms) for p in perms)
    r = perms[1]
    r_inv = perms[2]
    conj = tuple(index[compose(compose(r, p), r_inv)] for p in perms)
    return table, conj


class BicrossGolden(Record):
    """Expected multiplication, comultiplication and antipode tables for the
    bicrossproduct built from the ``ax1`` data, on the ordered basis
    (1#1, 1#g, x#1, x#g).

    Both terms of the coproduct of x#g carry the sign forced by the
    Hom-counit law ``(counit (x) id) delta = alpha``.
    """

    products: tuple[tuple[Vector, ...], ...]
    coproducts: tuple[Vector, ...]
    antipodes: tuple[Vector, ...]


def catalog_ex27_expected() -> BicrossGolden:
    def vec(*pairs):
        return vector_from_entries(4, dict(pairs))

    def vec16(*pairs):
        return vector_from_entries(16, dict(pairs))

    products = (
        (vec((0, ONE)), vec((1, ONE)), vec((2, -ONE)), vec((3, -ONE))),
        (vec((1, ONE)), vec((0, ONE)), vec((3, ONE)), vec((2, ONE))),
        (vec((2, -ONE)), vec((3, -ONE)), vec(), vec()),
        (vec((3, -ONE)), vec((2, -ONE)), vec(), vec()),
    )
    coproducts = (
        vec16((0, ONE)),
        vec16((5, ONE)),
        vec16((8, -ONE), (2, -ONE)),
        vec16((13, -ONE), (7, -ONE)),
    )
    antipodes = (vec((0, ONE)), vec((1, ONE)), vec((2, -ONE)), vec((3, ONE)))
    return BicrossGolden(products, coproducts, antipodes)


def catalog_names() -> tuple[str, ...]:
    return ("one", "ax1", "kz2", "sweedler_hom", "cyclic:<n>", "s3_inner")


def get_entry(name: str) -> CatalogEntry:
    """Resolve a catalog entry by name, with ``cyclic:<n>`` parameterized."""
    if name == "one":
        return catalog_one()
    if name == "ax1":
        return catalog_ax1()
    if name == "kz2":
        return catalog_kz2()
    if name == "sweedler_hom":
        return catalog_sweedler_hom()
    if name == "s3_inner":
        table, conj = symmetric3_data()
        return catalog_group(table, conj, name="s3_inner")
    if name.startswith("cyclic:"):
        param = name.split(":", 1)[1]
        # ASCII digits only (int() also takes "+3", "0_3" and non-ASCII digits),
        # checked against MAX_DIM before anything of dimension n is built
        if not (param.isascii() and param.isdigit()) or len(param) > len(str(MAX_DIM)):
            raise InvalidParameter(f"bad cyclic order {param!r}")
        return catalog_cyclic(int(param))
    raise InvalidParameter(f"unknown catalog entry {name!r}")
