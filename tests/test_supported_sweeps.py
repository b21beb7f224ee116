"""Product laws are swept only where a side can be nonzero.

``exactlin.product_cases`` picks the basis multi-indices of a product law at
which one side has a nonzero term.  It reads them from the filled cells of
the law's tables and the supports of its vectors.  Both sides of every other
case are zero.  Each law that reads it is compared here with a reference
that visits every basis multi-index and skips nothing.  The two must give
the same ``CheckEntry``: the same verdict and the same witness.  The laws
are ``algebra.hom-associative``, ``module.hom-associative``, the cocycle
condition, ``module-algebra.multiplicative``, the matched-pair laws
``product-acts-right`` and ``acts-on-product``, the pairing's
``mul-comul-left``, ``mul-comul-right`` and ``mul-comul-right-swapped``, and
the laws that a map is multiplicative: ``algebra.alpha-multiplicative``,
``bialgebra.counit-multiplicative``, ``antipode.anti-multiplicative`` and
``check_morphism``'s ``.mul``.  The references of the laws with a Sweedler
sum on one side sum every pair of terms, case by case.
``bialgebra.comul-multiplicative`` and ``comodule-algebra.multiplicative``
are read the same way from ``exactlin.square_cases`` and compared with the
full product table.  ``module-coalgebra.comultiplicative`` and the
bicrossproduct hypotheses ``bicross.action-comultiplicative`` and
``bicross.coaction-multiplicative`` are read from ``exactlin.square_cases``
too, and their references sum the Sweedler terms one by one, as does that of
``matched-pair.exchange-symmetry``, which is swept in full.
``cocycle.alpha-invariant``, swept on the support of two Gram matrices, is
compared with every one-entry case.  ``TwoCocycle.products``, which
multiplies only the Sweedler terms that meet the Gram support, is compared
with the expansion that pairs every term with every term.

Also pinned: how many cases the sweeps visit and how many products they
form, how often a tensor-power product groups an operand, and that a
cocycle's products are built once.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_checker_outcomes import _perturbed, bicross_data

from conftest import dense_field, hopf_algebra
from homhopf import bicross, exactlin, laws, pairing, structures, twist
from homhopf.bicross import bicross_hypotheses, dual_matched_pair, self_bicross
from homhopf.catalog import get_entry
from homhopf.constructions import (
    canonical_cocycles,
    cocycle_twist,
    drinfeld_double,
    drinfeld_double_tilde,
    dual,
    heisenberg_double,
)
from homhopf.errors import SingularMatrixError
from homhopf.exactlin import (
    apply_map,
    basis,
    bilinear_apply,
    cells,
    dense,
    dense_cells,
    dense_rows,
    kron,
    linear_combination,
    rows,
    sparse,
    tensor_power_products,
    terms,
)
from homhopf.laws import check_matched_pair, check_module, check_module_algebra, check_module_coalgebra
from homhopf.pairing import check_dual_pair, dual_pair_double, evaluation_pairing
from homhopf.structures import (
    CheckEntry,
    ComoduleCoaction,
    HomAlgebra,
    HomBialgebra,
    HomHopfAlgebra,
    MatchedPairData,
    ModuleAction,
    PairingForm,
    TwoCocycle,
    Witness,
    algebra_of,
    bialgebra_of,
    check_antipode,
    check_hom_algebra,
    check_hom_bialgebra,
    check_morphism,
    coalgebra_of,
)
from homhopf.twist import (
    check_cocycle,
    check_comodule_algebra,
    check_left_comodule_algebra,
    verify_thm_4_5,
)

F = Fraction

# ---------------------------------------------------------------------------
# the references: every basis multi-index, nothing skipped


def full_sweep(axiom_id: str, shape, sides) -> CheckEntry:
    """The first multi-index of ``shape``, in lexicographic order, whose two
    sides ``sides(*index)`` differ, as a report entry."""
    for index in product(*map(range, shape)):
        lhs, rhs = sides(*index)
        if lhs != rhs:
            return CheckEntry(axiom_id, False, Witness(index, dense(lhs), dense(rhs)))
    return CheckEntry(axiom_id, True)


def hom_associative(obj) -> CheckEntry:
    """alpha(e_i)(e_j e_k) against (e_i e_j) alpha(e_k)."""
    A = algebra_of(obj)
    mc, ar = A.mul_cells, A.alpha
    return full_sweep(
        "algebra.hom-associative",
        (A.dim,) * 3,
        lambda i, j, k: (bilinear_apply(mc, ar[i], mc[j][k]), bilinear_apply(mc, mc[i][j], ar[k])),
    )


def alpha_multiplicative(obj) -> CheckEntry:
    """alpha(e_i e_j) against alpha(e_i) alpha(e_j)."""
    A = algebra_of(obj)
    mc, ar = A.mul_cells, A.alpha
    return full_sweep(
        "algebra.alpha-multiplicative",
        (A.dim,) * 2,
        lambda i, j: (apply_map(ar, mc[i][j]), bilinear_apply(mc, ar[i], ar[j])),
    )


def counit_multiplicative(obj) -> CheckEntry:
    """counit(e_i e_j) against counit(e_i) counit(e_j), on the one-dimensional space."""
    mc, eps = obj.algebra.mul_cells, obj.coalgebra.counit
    return full_sweep(
        "bialgebra.counit-multiplicative",
        (obj.dim,) * 2,
        lambda i, j: (apply_map(eps, mc[i][j]), kron((eps[i],), (eps[j],))[0]),
    )


def module_hom_associative(m: ModuleAction) -> CheckEntry:
    """alpha(e_a) . (e_b . e_i) against (e_a e_b) . alpha(e_i)."""
    actor = algebra_of(m.actor)
    act, aa, amul, am = m.act_cells, actor.alpha, actor.mul_cells, m.carrier.alpha
    return full_sweep(
        "module.hom-associative",
        (actor.dim, actor.dim, m.carrier.dim),
        lambda a, b, i: (
            bilinear_apply(act, aa[a], act[b][i]),
            bilinear_apply(act, amul[a][b], am[i]),
        ),
    )


def cocycle_condition(sigma: TwoCocycle) -> CheckEntry:
    """sigma(alpha^2(e_h), w[l][k]) against sigma(w[h][l], alpha^2(e_k)), each
    summed from the Gram matrix, with ``w`` the cocycle's products."""
    a2, w, gram = sigma.algebra.power(2), sigma.products, sigma.gram

    def pair(x, y):
        return sparse((sum(cx * cy * gram[p].get(q, 0) for p, cx in x.items() for q, cy in y.items()),))

    return full_sweep(
        f"cocycle.{sigma.side}-condition",
        (sigma.algebra.dim,) * 3,
        lambda h, l, k: (pair(a2[h], w[l][k]), pair(w[h][l], a2[k])),
    )


def anti_multiplicative(H: HomHopfAlgebra) -> CheckEntry:
    """S(e_i e_j) against S(e_j) S(e_i)."""
    mc, S = H.algebra.mul_cells, H.antipode_rows
    return full_sweep(
        "antipode.anti-multiplicative",
        (H.dim,) * 2,
        lambda i, j: (apply_map(S, mc[i][j]), bilinear_apply(mc, S[j], S[i])),
    )


def morphism_mul(prefix: str, X, Y, phi) -> CheckEntry:
    """phi(x_i x_j) against phi(x_i) phi(x_j)."""
    xc, yc = algebra_of(X).mul_cells, algebra_of(Y).mul_cells
    return full_sweep(
        prefix + ".mul",
        (len(phi),) * 2,
        lambda i, j: (apply_map(phi, xc[i][j]), bilinear_apply(yc, phi[i], phi[j])),
    )


def comul_multiplicative(obj) -> CheckEntry:
    """delta(e_i e_j) against delta(e_i) delta(e_j), from the full product table."""
    mc, delta, n = obj.algebra.mul_cells, obj.coalgebra.comul_rows, obj.dim
    products = tuple(tensor_power_products((mc, mc), delta, delta))
    return full_sweep(
        "bialgebra.comul-multiplicative",
        (n, n),
        lambda i, j: (apply_map(delta, mc[i][j]), products[i * n + j]),
    )


def comodule_multiplicative(A, c: ComoduleCoaction) -> CheckEntry:
    """rho(e_i e_j) against rho(e_i) rho(e_j), each pair of terms of the two
    coactions multiplied leg by leg: in the carrier ``A`` on the first leg and
    in the coactor on the second."""
    amul, hmul, rho = algebra_of(A).mul_cells, algebra_of(c.coactor).mul_cells, c.coact_rows
    nh = len(hmul)

    def times(u, v):
        return linear_combination(
            u.dim,
            (
                (cu * cv, kron((amul[p // nh][q // nh],), (hmul[p % nh][q % nh],))[0])
                for p, cu in u.items()
                for q, cv in v.items()
            ),
        )

    return full_sweep(
        "comodule-algebra.multiplicative",
        (len(amul),) * 2,
        lambda i, j: (apply_map(rho, amul[i][j]), times(rho[i], rho[j])),
    )


def alpha_invariant(sigma: TwoCocycle) -> CheckEntry:
    """sigma(alpha(e_i), alpha(e_j)) against sigma(e_i, e_j), summed from the Gram matrix."""
    alpha, gram = sigma.algebra.alpha, sigma.gram

    def lhs(i, j):
        pairs = ((a, b) for a in alpha[i].items() for b in alpha[j].items())
        return sparse((sum(ca * cb * gram[p].get(q, 0) for (p, ca), (q, cb) in pairs),))

    return full_sweep(
        "cocycle.alpha-invariant",
        (sigma.algebra.dim,) * 2,
        lambda i, j: (lhs(i, j), sparse((gram[i].get(j, 0),))),
    )


def all_pairs_products(sigma: TwoCocycle):
    """sigma(h_1, k_1) h_2 k_2 for a left cocycle and sigma(h_2, k_2) h_1 k_1 for
    a right one, every Sweedler term of ``h`` paired with every term of ``k``."""
    B = sigma.algebra
    n, mc, gram = B.dim, B.algebra.mul_cells, dense_rows(sigma.gram)
    sw = terms(B.coalgebra.comul_rows, n)
    # (paired leg, multiplied leg, coefficient) of each term
    legs = [[(x, y, c) if sigma.side == "left" else (y, x, c) for x, y, c in t] for t in sw]
    return tuple(
        tuple(
            linear_combination(
                n,
                (
                    (vh * vk * gram[h1][k1], mc[h2][k2])
                    for h1, h2, vh in legs[h]
                    for k1, k2, vk in legs[k]
                ),
            )
            for k in range(n)
        )
        for h in range(n)
    )


def module_algebra_multiplicative(m: ModuleAction) -> CheckEntry:
    """alpha^2(e_h) . (e_a e_b) against the sum of (h_1 . e_a)(h_2 . e_b) over
    the Sweedler terms of ``e_h``."""
    actor, mc, act = m.actor, algebra_of(m.carrier).mul_cells, m.act_cells
    a2, sw, nc = actor.power(2), terms(actor.coalgebra.comul_rows, actor.dim), m.carrier.dim
    return full_sweep(
        "module-algebra.multiplicative",
        (actor.dim, nc, nc),
        lambda h, a, b: (
            bilinear_apply(act, a2[h], mc[a][b]),
            linear_combination(
                nc, ((c, bilinear_apply(mc, act[h1][a], act[h2][b])) for h1, h2, c in sw[h])
            ),
        ),
    )


def matched_pair_laws(mp: MatchedPairData) -> tuple[CheckEntry, CheckEntry]:
    """``(h g) <- a`` against ``(h <- (g_1 -> a_1)) (g_2 <- a_2)``, and ``h -> (a b)``
    against ``(h_1 -> a_1) ((h_2 <- a_2) -> b)``, up to the powers of the structure
    maps that ``check_matched_pair`` states, each Sweedler pair of terms summed."""
    A, H = mp.A, mp.H
    na, nh, left, right = A.dim, H.dim, mp.left_cells, mp.right_cells
    amul, hmul, e_a, e_h = A.algebra.mul_cells, H.algebra.mul_cells, basis(na), basis(nh)
    ah1, ah2, ah3 = (H.power(-k) for k in (1, 2, 3))
    aa1, aa2, aa3 = (A.power(-k) for k in (1, 2, 3))
    h_sw, a_sw = terms(H.coalgebra.comul_rows, nh), terms(A.coalgebra.comul_rows, na)

    def summed(n, g, a, term):
        pairs = ((vg * va, term(g1, g2, a1, a2)) for g1, g2, vg in h_sw[g] for a1, a2, va in a_sw[a])
        return linear_combination(n, pairs)

    def after(h, g1, g2, a1, a2):
        x = bilinear_apply(right, e_h[h], bilinear_apply(left, ah2[g1], aa3[a1]))
        return bilinear_apply(hmul, x, bilinear_apply(right, ah1[g2], aa2[a2]))

    def on(b, h1, h2, a1, a2):
        y = bilinear_apply(left, bilinear_apply(right, ah3[h2], aa2[a2]), e_a[b])
        return bilinear_apply(amul, bilinear_apply(left, ah2[h1], aa1[a1]), y)

    return (
        full_sweep(
            "matched-pair.product-acts-right",
            (nh, nh, na),
            lambda h, g, a: (
                bilinear_apply(right, hmul[h][g], e_a[a]),
                summed(nh, g, a, lambda *legs: after(h, *legs)),
            ),
        ),
        full_sweep(
            "matched-pair.acts-on-product",
            (nh, na, na),
            lambda h, a, b: (
                bilinear_apply(left, e_h[h], amul[a][b]),
                summed(na, h, a, lambda *legs: on(b, *legs)),
            ),
        ),
    )


def module_coalgebra_comultiplicative(m: ModuleAction, axiom_id: str) -> CheckEntry:
    """delta(e_h . e_c) against the sum of (h_1 . c_1) (x) (h_2 . c_2) over every
    pair of Sweedler terms of ``e_h`` and ``e_c``."""
    actor, carrier, act = bialgebra_of(m.actor), coalgebra_of(m.carrier), m.act_cells
    nc, cm = carrier.dim, carrier.comul_rows
    h_sw, c_sw = terms(actor.coalgebra.comul_rows, actor.dim), terms(cm, nc)

    def coproduct(h, c):
        pairs = (
            (vh * vc, kron((act[h1][c1],), (act[h2][c2],))[0])
            for h1, h2, vh in h_sw[h]
            for c1, c2, vc in c_sw[c]
        )
        return linear_combination(nc * nc, pairs)

    return full_sweep(
        axiom_id, (actor.dim, nc), lambda h, c: (apply_map(cm, act[h][c]), coproduct(h, c))
    )


def exchange_symmetry(mp: MatchedPairData) -> CheckEntry:
    """``h_1 <- a_1 (x) h_2 -> a_2`` against ``h_2 <- a_2 (x) h_1 -> a_1``, each pair of
    Sweedler terms of ``e_h`` and ``e_a`` summed."""
    na, nh, left, right = mp.A.dim, mp.H.dim, mp.left_cells, mp.right_cells
    h_sw, a_sw = terms(mp.H.coalgebra.comul_rows, nh), terms(mp.A.coalgebra.comul_rows, na)

    def exchanged(h, a, swapped):
        pairs = []
        for h1, h2, vh in h_sw[h]:
            for a1, a2, va in a_sw[a]:
                (x, y), (b, c) = ((h2, h1), (a2, a1)) if swapped else ((h1, h2), (a1, a2))
                pairs.append((vh * va, kron((right[x][b],), (left[y][c],))[0]))
        return linear_combination(nh * na, pairs)

    return full_sweep(
        "matched-pair.exchange-symmetry",
        (nh, na),
        lambda h, a: (exchanged(h, a, False), exchanged(h, a, True)),
    )


def bicross_laws(A, H, act: ModuleAction, co: ComoduleCoaction) -> tuple[CheckEntry, CheckEntry]:
    """``delta(h . b)`` against the sum of
    ``(alpha^-1(h_1(0)) . b_1) (x) alpha^-1(h_1(1)) (alpha^-1(h_2) . alpha^-1(b_2))``, and
    ``rho(h g)`` against the sum of
    ``alpha^-1(h_1(0)) g_(0) (x) alpha^-1(h_1(1)) (alpha^-1(h_2) . alpha^-1(g_(1)))``,
    over every Sweedler term of ``e_h``, of ``rho(h_1)`` and of ``delta(b)`` or ``rho(g)``."""
    na, nh, action, rho = A.dim, H.dim, act.act_cells, co.coact_rows
    amul, hmul, delta_a = A.algebra.mul_cells, H.algebra.mul_cells, A.coalgebra.comul_rows
    ah, aa, e_a, e_h = H.power(-1), A.power(-1), basis(na), basis(nh)
    h_sw, co_sw, a_sw = terms(H.coalgebra.comul_rows, nh), terms(rho, na), terms(delta_a, na)

    def summed(h, v_terms, first, n):
        """The sum of ``first(alpha^-1(h_1(0)), x) (x) alpha^-1(h_1(1)) (alpha^-1(h_2) . alpha^-1(y))``
        over the terms ``x (x) y`` of ``v_terms`` and those of ``e_h``."""
        pairs = (
            (
                vh * vc * v,
                kron(
                    (first(ah[h10], x),),
                    (bilinear_apply(amul, aa[h11], bilinear_apply(action, ah[h2], aa[y])),),
                )[0],
            )
            for h1, h2, vh in h_sw[h]
            for h10, h11, vc in co_sw[h1]
            for x, y, v in v_terms
        )
        return linear_combination(n, pairs)

    def acts(h, x):
        return bilinear_apply(action, h, e_a[x])

    def times(h, x):
        return bilinear_apply(hmul, h, e_h[x])

    return (
        full_sweep(
            "bicross.action-comultiplicative",
            (nh, na),
            lambda h, b: (apply_map(delta_a, action[h][b]), summed(h, a_sw[b], acts, na * na)),
        ),
        full_sweep(
            "bicross.coaction-multiplicative",
            (nh, nh),
            lambda h, g: (apply_map(rho, hmul[h][g]), summed(h, co_sw[g], times, nh * na)),
        ),
    )


def dual_pair_laws(P: PairingForm) -> tuple[CheckEntry, CheckEntry, CheckEntry]:
    """``<a a', b>`` against ``<alpha^2(a), b_1> <alpha^2(a'), b_2>``, and ``<a, b b'>``
    against ``<a_1, alpha^2(b)> <a_2, alpha^2(b')>`` and against the same with
    ``b`` and ``b'`` exchanged, each summed from the Gram matrix."""
    A, B, gram = P.left, P.right, P.gram
    na, nb = A.dim, B.dim
    e_a, e_b, a2, b2 = basis(na), basis(nb), A.power(2), B.power(2)
    a_sw, b_sw = terms(A.coalgebra.comul_rows, na), terms(B.coalgebra.comul_rows, nb)

    def pair(x, y):
        return sum(cx * cy * gram[p].get(q, 0) for p, cx in x.items() for q, cy in y.items())

    def comul_left(i, ip, j):
        value = sum(c * pair(a2[i], e_b[x]) * pair(a2[ip], e_b[y]) for x, y, c in b_sw[j])
        return sparse((pair(A.algebra.mul_cells[i][ip], e_b[j]),)), sparse((value,))

    def comul_right(swapped):
        def sides(i, j, jp):
            first, second = (jp, j) if swapped else (j, jp)
            value = sum(c * pair(e_a[x], b2[first]) * pair(e_a[y], b2[second]) for x, y, c in a_sw[i])
            return sparse((pair(e_a[i], B.algebra.mul_cells[j][jp]),)), sparse((value,))

        return sides

    return (
        full_sweep("pairing.mul-comul-left", (na, na, nb), comul_left),
        full_sweep("pairing.mul-comul-right", (na, nb, nb), comul_right(False)),
        full_sweep("pairing.mul-comul-right-swapped", (na, nb, nb), comul_right(True)),
    )


def assert_data_laws_match(mp=None, act=None, pairing=None, bicross_input=None) -> None:
    """The converted laws of a matched pair, a module algebra (with its
    coproduct law, where the carrier has one), a dual pair and bicrossproduct
    data ``(A, H, action, coaction)`` give the references' entries."""
    if mp is not None:
        report = check_matched_pair(mp)
        ids = ("matched-pair.product-acts-right", "matched-pair.acts-on-product")
        assert tuple(map(report.entry, ids)) == matched_pair_laws(mp)
        assert report.entry("matched-pair.exchange-symmetry") == exchange_symmetry(mp)
        for side, module in (("left", mp.left_module), ("right", mp.right_module)):
            axiom = f"matched-pair.{side}-action.module-coalgebra.comultiplicative"
            assert report.entry(axiom) == module_coalgebra_comultiplicative(module, axiom)
    if act is not None:
        entry = check_module_algebra(act).entry("module-algebra.multiplicative")
        assert entry == module_algebra_multiplicative(act)
        axiom = "module-coalgebra.comultiplicative"
        if isinstance(act.carrier, HomHopfAlgebra):
            entry = check_module_coalgebra(act).entry(axiom)
            assert entry == module_coalgebra_comultiplicative(act, axiom)
    if bicross_input is not None:
        report = bicross_hypotheses(*bicross_input)
        ids = ("bicross.action-comultiplicative", "bicross.coaction-multiplicative")
        assert tuple(map(report.entry, ids)) == bicross_laws(*bicross_input)
    if pairing is not None:
        report = check_dual_pair(pairing)
        ids = ("pairing.mul-comul-left", "pairing.mul-comul-right", "pairing.mul-comul-right-swapped")
        assert tuple(map(report.entry, ids)) == dual_pair_laws(pairing)


def assert_product_laws_match(obj) -> None:
    """Every product law of ``obj`` that applies gives the reference's entry."""
    report = check_hom_algebra(obj)
    assert report.entry("algebra.hom-associative") == hom_associative(obj)
    assert report.entry("algebra.alpha-multiplicative") == alpha_multiplicative(obj)
    if isinstance(obj, HomHopfAlgebra):
        report = check_hom_bialgebra(obj)
        assert report.entry("bialgebra.comul-multiplicative") == comul_multiplicative(obj)
        assert report.entry("bialgebra.counit-multiplicative") == counit_multiplicative(obj)
    for prefix, phi in (("id", basis(obj.dim)), ("alpha", obj.alpha)):
        got = check_morphism(prefix, obj, obj, phi).entry(prefix + ".mul")
        assert got == morphism_mul(prefix, obj, obj, phi)
    if isinstance(obj, HomHopfAlgebra):
        entry = check_antipode(obj).entry("antipode.anti-multiplicative")
        assert entry == anti_multiplicative(obj)


# ---------------------------------------------------------------------------
# inputs

CATALOG = ("one", "ax1", "kz2", "sweedler_hom", "cyclic:3", "s3_inner")
# the 36-dim self-bicrossproduct of s3_inner is left out: its dense table
# is swept in full, as those of the smaller ones are
DERIVED = [
    (kind, name)
    for kind in ("double", "self-bicross", "heisenberg-of-dual")
    for name in ("kz2", "sweedler_hom", "cyclic:3", "s3_inner")
    if (kind, name) != ("self-bicross", "s3_inner")
]


@lru_cache(maxsize=None)
def derived(kind: str, name: str):
    h = get_entry(name).hopf
    if kind == "double":
        return drinfeld_double(h)
    if kind == "self-bicross":
        return self_bicross(h, check=False)
    if kind == "heisenberg-of-dual":
        return heisenberg_double(dual(h))
    return dual_pair_double(evaluation_pairing(h), check=False).hopf


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_entries(name):
    assert_product_laws_match(get_entry(name).hopf)


@pytest.mark.parametrize("kind, name", DERIVED)
def test_constructions(kind, name):
    assert_product_laws_match(derived(kind, name))


def test_failing_pair_double_of_s3_inner():
    double = derived("pair-double", "s3_inner")
    entry = check_hom_algebra(double).entry("algebra.hom-associative")
    assert not entry.passed and entry.witness.index == (3, 10, 22)
    assert_product_laws_match(double)


def test_modules_and_cocycles_of_the_catalog():
    for name in ("ax1", "cyclic:3", "sweedler_hom"):
        act = bicross_data(name)[2]
        assert check_module(act).entry("module.hom-associative") == module_hom_associative(act)
    for name in ("sweedler_hom", "cyclic:3", "cyclic:4"):
        for sigma in canonical_cocycles(get_entry(name).hopf):
            entry = check_cocycle(sigma).entry(f"cocycle.{sigma.side}-condition")
            assert entry == cocycle_condition(sigma)


@lru_cache(maxsize=None)
def matched_pair(name: str) -> MatchedPairData:
    """The matched pair ``dual_matched_pair`` makes of the bicrossproduct data
    of ``name``: the catalog's ax1 data, or the self-bicrossproduct data."""
    return dual_matched_pair(*bicross_data(name), check=False)


@pytest.mark.parametrize("name", CATALOG)
def test_matched_pairs_module_algebras_and_pairings_of_the_catalog(name):
    data = bicross_data(name)
    assert_data_laws_match(matched_pair(name), data[2], evaluation_pairing(get_entry(name).hopf), data)


PERTURBED = 8  # seeded single-entry perturbations per input and field


@lru_cache(maxsize=None)
def twisted_doubles(name: str):
    """``verify prop4.7``'s inputs on ``name``: the double, its twist by the
    canonical left cocycle, the mirrored double and its twist by the
    canonical right cocycle."""
    h = get_entry(name).hopf
    double, tilde = drinfeld_double(h), drinfeld_double_tilde(h)
    sigma, eta = canonical_cocycles(h, double, tilde)
    left = cocycle_twist(double.bialgebra, sigma, check=False)
    return double, left, tilde, cocycle_twist(tilde, eta, check=False)


def coactions(kind: str, name: str):
    """``(carrier, coaction)`` pairs: the coaction of the bicrossproduct data of
    ``name``, or the two of ``verify prop4.7``: the double's coproduct on the
    left twist and, as the right coaction of the co-opposite that
    ``check_left_comodule_algebra`` checks, the mirrored double's on the right
    twist."""
    if kind == "bicross":
        co = bicross_data(name)[3]
        return [(co.carrier, co)]
    double, left, tilde, right = twisted_doubles(name)
    cop = HomBialgebra(tilde.algebra, tilde.coalgebra.op)
    return [
        (left, ComoduleCoaction(double.bialgebra, left, double.coalgebra.comul_rows)),
        (right, ComoduleCoaction(cop, right, cop.coalgebra.comul_rows)),
    ]


COACTIONS = [
    *(("bicross", name) for name in ("ax1", "cyclic:3", "sweedler_hom")),
    *(("prop4.7", name) for name in ("cyclic:3", "sweedler_hom", "s3_inner")),
]


def test_coaction_multiplicativity_matches_the_full_sweep():
    """On catalog coactions and seeded one-entry perturbations of their rows
    and of the carrier's product, the supported sweep gives the full sweep's
    entry; some perturbations first fail where one side is zero, others where
    both sides are nonzero."""
    first_failures = Counter()
    for kind, name in COACTIONS:
        for number, (A, c) in enumerate(coactions(kind, name)):
            alg = algebra_of(A)
            rng = random.Random(f"{kind} {name} {number}")
            coact, mul = dense_rows(c.coact_rows), dense_field(alg, "mul")
            for case in range(PERTURBED + 1):
                bent_rows = rows(_perturbed(coact, rng, case)[0])
                bent_mul = cells(_perturbed(mul, rng, case)[0])
                for carrier, coaction in (
                    (A, ComoduleCoaction(c.coactor, c.carrier, bent_rows)),
                    (HomAlgebra(alg.dim, bent_mul, alg.unit, alg.alpha), c),
                ):
                    got = check_comodule_algebra(carrier, coaction)
                    entry = got.entry("comodule-algebra.multiplicative")
                    assert entry == comodule_multiplicative(carrier, coaction)
                    if not entry.passed:
                        w = entry.witness
                        first_failures[any(w.lhs) and any(w.rhs)] += 1
    assert first_failures[False] > 0 and first_failures[True] > 0


@pytest.mark.parametrize("name", (*CATALOG, "cyclic:4"))
def test_cocycle_products_are_the_all_pairs_expansion(name):
    for sigma in canonical_cocycles(get_entry(name).hopf):
        assert sigma.products == all_pairs_products(sigma)
        assert check_cocycle(sigma).entry("cocycle.alpha-invariant") == alpha_invariant(sigma)


@pytest.mark.parametrize("name", ("sweedler_hom", "cyclic:3", "s3_inner"))
@pytest.mark.parametrize("field", ("mul", "counit", "comul", "alpha", "antipode"))
def test_perturbed_hopf_algebras(name, field):
    h = get_entry(name).hopf
    rng = random.Random(f"{name} {field}")
    parts = {f: dense_field(h, f) for f in ("mul", "unit", "comul", "counit", "antipode")}
    parts["alpha"] = dense_rows(h.alpha)
    for case in range(1, PERTURBED + 1):
        value, _ = _perturbed(parts[field], rng, case)
        bent_parts = {**parts, field: value}
        try:
            bent = hopf_algebra(h.dim, **{**bent_parts, "alpha": rows(bent_parts["alpha"])})
        except SingularMatrixError:
            continue  # a structure map perturbed into a singular one
        assert_product_laws_match(bent)


@pytest.mark.parametrize("name", ("ax1", "cyclic:3", "sweedler_hom"))
def test_perturbed_actions(name):
    A, H, act, co = bicross_data(name)
    rng = random.Random(f"{name} act")
    for case in range(1, PERTURBED + 1):
        bent_cells = cells(_perturbed(dense_field(act, "act"), rng, case)[0])
        bent = ModuleAction(act.actor, act.carrier, bent_cells)
        assert check_module(bent).entry("module.hom-associative") == module_hom_associative(bent)
        assert_data_laws_match(act=bent, bicross_input=(A, H, bent, co))


@pytest.mark.parametrize("name", ("ax1", "cyclic:3", "sweedler_hom"))
def test_perturbed_coactions(name):
    A, H, act, co = bicross_data(name)
    rng = random.Random(f"{name} coact")
    for case in range(1, PERTURBED + 1):
        bent_rows = rows(_perturbed(dense_rows(co.coact_rows), rng, case)[0])
        assert_data_laws_match(bicross_input=(A, H, act, ComoduleCoaction(A, H, bent_rows)))


@pytest.mark.parametrize("name", ("cyclic:3", "sweedler_hom"))
@pytest.mark.parametrize("field", ("left_cells", "right_cells"))
def test_perturbed_matched_pairs(name, field):
    mp = matched_pair(name)
    rng = random.Random(f"{name} {field}")
    for case in range(1, PERTURBED + 1):
        bent = cells(_perturbed(dense_cells(getattr(mp, field)), rng, case)[0])
        tables = {"left_cells": mp.left_cells, "right_cells": mp.right_cells, field: bent}
        assert_data_laws_match(MatchedPairData(mp.A, mp.H, **tables))


@pytest.mark.parametrize("name", ("sweedler_hom", "s3_inner"))
@pytest.mark.parametrize("field", ("gram", "left comul", "right mul"))
def test_perturbed_pairings(name, field):
    """Seeded one-entry perturbations of the Gram matrix, of the coproduct of
    the left algebra and of the product of the right one; a singular Gram
    matrix is refused when the pairing is built."""
    p = evaluation_pairing(get_entry(name).hopf)
    rng = random.Random(f"{name} {field}")
    for case in range(1, PERTURBED + 1):
        if field == "gram":
            try:
                bent = PairingForm(p.left, p.right, rows(_perturbed(dense_rows(p.gram), rng, case)[0]))
            except SingularMatrixError:
                continue
        else:
            side, part = field.split()
            h = getattr(p, side)
            parts = {f: dense_field(h, f) for f in ("mul", "unit", "comul", "counit", "antipode")}
            parts[part] = _perturbed(parts[part], rng, case)[0]
            sides = {"left": p.left, "right": p.right, side: hopf_algebra(h.dim, alpha=h.alpha, **parts)}
            bent = PairingForm(gram=p.gram, **sides)
        assert_data_laws_match(pairing=bent)


@pytest.mark.parametrize("name", ("sweedler_hom", "cyclic:3"))
def test_perturbed_cocycle_forms(name):
    for sigma in canonical_cocycles(get_entry(name).hopf):
        rng = random.Random(f"{name} {sigma.side}")
        for case in range(1, PERTURBED + 1):
            gram = rows(_perturbed(dense_rows(sigma.gram), rng, case)[0])
            bent = TwoCocycle(sigma.algebra, gram, sigma.side)
            report = check_cocycle(bent)
            assert report.entry(f"cocycle.{sigma.side}-condition") == cocycle_condition(bent)
            assert report.entry("cocycle.alpha-invariant") == alpha_invariant(bent)
            assert bent.products == all_pairs_products(bent)


# generated inputs: sparse random tables and unitriangular structure maps,
# which have rows of several entries (no catalog structure map does)

entries = st.sampled_from((0, 0, 0, 0, 0, 1, -1, F(1, 2)))
nonzero = st.sampled_from((1, -1, F(1, 2)))


@st.composite
def matrices(draw, r, c):
    return tuple(tuple(draw(entries) for _ in range(c)) for _ in range(r))


@st.composite
def tensors(draw, n1, n2, n3):
    return tuple(draw(matrices(n2, n3)) for _ in range(n1))


@st.composite
def unitriangular(draw, n):
    """Ones on the diagonal, sparse entries above it, and a nonzero first row
    off the diagonal, so at least one row has two entries when ``n > 1``."""
    corner = draw(nonzero)

    def entry(i, j):
        if i == j:
            return 1
        return 0 if j < i else corner if (i, j) == (0, n - 1) else draw(entries)

    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


@st.composite
def hom_hopf_algebras(draw, n, invertible_antipode=False):
    """Random parts in the shape of a Hom-Hopf algebra; no law needs to hold.
    The antipode is unitriangular if ``invertible_antipode``, as the right
    side of a pairing needs."""
    return hopf_algebra(
        n,
        draw(tensors(n, n, n)),
        tuple(draw(entries) for _ in range(n)),
        draw(tensors(n, n, n)),
        tuple(draw(entries) for _ in range(n)),
        rows(draw(unitriangular(n))),
        draw(unitriangular(n) if invertible_antipode else matrices(n, n)),
    )


dims = st.integers(1, 4)


@given(dims, dims, st.sampled_from(("left", "right")), st.data())
@settings(max_examples=15, deadline=None)
def test_generated_inputs(n, m, side, data):
    H = data.draw(hom_hopf_algebras(n))
    assert_product_laws_match(H)
    zero = rows(((0,) * m,))
    Y = HomAlgebra(m, cells(data.draw(tensors(m, m, m))), zero, rows(data.draw(unitriangular(m))))
    phi = rows(data.draw(matrices(n, m)))  # zero rows included
    assert check_morphism("phi", H, Y, phi).entry("phi.mul") == morphism_mul("phi", H, Y, phi)
    act = ModuleAction(H, Y, cells(data.draw(tensors(n, m, m))))
    assert check_module(act).entry("module.hom-associative") == module_hom_associative(act)
    sigma = TwoCocycle(H.bialgebra, rows(data.draw(matrices(n, n))), side)
    entry = check_cocycle(sigma).entry(f"cocycle.{side}-condition")
    assert entry == cocycle_condition(sigma)


@given(dims, dims, st.data())
@settings(max_examples=15, deadline=None)
def test_generated_data_laws(n, m, data):
    """Random matched pairs, module algebras, pairings (a unitriangular Gram
    matrix, so that the pairing is non-degenerate) and bicrossproduct data
    with a random coaction."""
    A, H = data.draw(hom_hopf_algebras(n)), data.draw(hom_hopf_algebras(m))
    left, right = cells(data.draw(tensors(m, n, n))), cells(data.draw(tensors(m, n, m)))
    B = data.draw(hom_hopf_algebras(n, invertible_antipode=True))
    act, co = ModuleAction(H, A, left), ComoduleCoaction(A, H, rows(data.draw(matrices(m, m * n))))
    assert_data_laws_match(
        MatchedPairData(A, H, left, right),
        act,
        PairingForm(A, B, rows(data.draw(unitriangular(n)))),
        (A, H, act, co),
    )


# ---------------------------------------------------------------------------
# counts


def visited(monkeypatch, run) -> Counter:
    """How many cases the case streams held that ``_sweep`` was given while
    ``run()`` ran, by axiom; the streams are read to the end.  The Hopf-level
    checkers read ``_sweep`` from ``structures``, the data-law checkers from
    ``laws``, ``pairing``, ``twist`` and ``bicross``."""
    counts: Counter = Counter()
    sweep = structures._sweep

    def counting(axiom_id, shape, lhs=None, rhs=None):
        if lhs is None:
            shape = list(shape)
            counts[axiom_id] += len(shape)
        return sweep(axiom_id, shape, lhs, rhs)

    for module in (structures, laws, pairing, twist, bicross):
        monkeypatch.setattr(module, "_sweep", counting)
    run()
    return counts


def test_data_laws_of_s3_inner_visit_only_supported_cases(monkeypatch):
    """On the s3_inner self-bicrossproduct data, 36 of the 216 cases of each
    matched-pair product law and 54, 6 and 6 of the 216 of the evaluation
    pairing's product-coproduct laws have a nonzero side.  The module-algebra
    law's action is a dense table: every case is visited."""
    h = get_entry("s3_inner").hopf
    act, mp, p = bicross_data("s3_inner")[2], matched_pair("s3_inner"), evaluation_pairing(h)
    counts = visited(
        monkeypatch, lambda: (check_matched_pair(mp), check_module_algebra(act), check_dual_pair(p))
    )
    assert counts["matched-pair.product-acts-right"] == counts["matched-pair.acts-on-product"] == 36
    assert counts["module-algebra.multiplicative"] == 216 == h.dim**3
    mul_comul = ("pairing.mul-comul-left", "pairing.mul-comul-right", "pairing.mul-comul-right-swapped")
    assert [counts[i] for i in mul_comul] == [54, 6, 6]


@pytest.mark.parametrize("name, left, right", [("s3_inner", 6, 36), ("sweedler_hom", 6, 12)])
def test_module_coalgebra_law_visits_only_supported_cases(monkeypatch, name, left, right):
    """On the matched pair of the self-bicrossproduct data, the left action's
    coproduct law has a nonzero side at 6 of its 36 (s3_inner) or 16
    (sweedler_hom) cases, the right action's at 36 of 36 or 12 of 16."""
    mp = matched_pair(name)
    visits = [
        visited(monkeypatch, lambda m=m: check_module_coalgebra(m))["module-coalgebra.comultiplicative"]
        for m in (mp.left_module, mp.right_module)
    ]
    assert visits == [left, right]
    counts = visited(monkeypatch, lambda: check_matched_pair(mp))
    assert counts["module-coalgebra.comultiplicative"] == left + right


def test_bicross_hypotheses_on_dense_tables_visit_every_case(monkeypatch):
    counts = visited(monkeypatch, lambda: bicross_hypotheses(*bicross_data("s3_inner")))
    assert counts["bicross.action-comultiplicative"] == counts["bicross.coaction-multiplicative"] == 36


def test_hom_associativity_on_the_s3_inner_double_visits_one_case_per_pair(monkeypatch):
    double = derived("double", "s3_inner")
    counts = visited(monkeypatch, lambda: check_hom_algebra(double))
    assert 0 < counts["algebra.hom-associative"] <= 1296  # 14,256 nonempty-cell cases


def test_alpha_and_counit_multiplicativity_visit_only_supported_pairs(monkeypatch):
    """On the 36-dim s3_inner double, alpha multiplicativity visits the 216
    filled product cells of the 1,296 pairs (alpha is a signed permutation
    there), and counit multiplicativity the 36 pairs of the 6 basis vectors
    on which the counit is nonzero."""
    double = derived("double", "s3_inner")
    counts = visited(monkeypatch, lambda: (check_hom_algebra(double), check_hom_bialgebra(double)))
    assert counts["algebra.alpha-multiplicative"] == 216
    assert counts["bialgebra.counit-multiplicative"] == 36 == sum(1 for r in double.counit if r) ** 2


@pytest.mark.parametrize("name, most", [("sweedler_hom", 40), ("cyclic:4", 64)])
def test_canonical_left_cocycle_law_visits_few_cases(monkeypatch, name, most):
    sigma = canonical_cocycles(get_entry(name).hopf)[0]
    counts = visited(monkeypatch, lambda: check_cocycle(sigma))
    assert 0 < counts["cocycle.left-condition"] <= most


def test_a_dense_table_is_swept_in_full(monkeypatch):
    bicross = self_bicross(get_entry("cyclic:4").hopf, check=False)
    counts = visited(monkeypatch, lambda: check_hom_algebra(bicross))
    assert counts["algebra.hom-associative"] == 16**3


def test_comul_multiplicativity_forms_only_the_products_a_side_needs(monkeypatch):
    """On the 36-dim s3_inner double 216 of the 1,296 pairs have a filled
    product cell or Sweedler terms whose leg products are both filled cells:
    exactly the 216 filled cells.  Only their products are formed and swept."""
    double = derived("double", "s3_inner")
    formed = []
    products = structures.tensor_power_products

    def counting(*args):
        out = tuple(products(*args))
        formed.append(len(out))
        return iter(out)

    monkeypatch.setattr(structures, "tensor_power_products", counting)
    counts = visited(monkeypatch, lambda: check_hom_bialgebra(double))
    assert formed == [216] and counts["bialgebra.comul-multiplicative"] == 216
    assert sum(1 for plane in double.algebra.mul_cells for cell in plane if cell) == 216


def test_coaction_multiplicativity_forms_only_the_products_a_side_needs(monkeypatch):
    """On the 36-dim twisted doubles of s3_inner, 216 of the 1,296 pairs of
    each of ``verify prop4.7``'s two coactions have a filled product cell of
    the carrier or Sweedler terms whose leg products are both filled: exactly
    the 216 filled cells of the twisted product.  Only their products are
    formed and swept."""
    double, left, tilde, right = twisted_doubles("s3_inner")
    coaction = ComoduleCoaction(double.bialgebra, left, double.coalgebra.comul_rows)
    formed = []
    products = structures.tensor_power_products

    def counting(*args):
        out = tuple(products(*args))
        formed.append(len(out))
        return iter(out)

    monkeypatch.setattr(structures, "tensor_power_products", counting)

    def run():
        assert check_comodule_algebra(left, coaction).ok
        assert check_left_comodule_algebra(right, tilde).ok

    counts = visited(monkeypatch, run)
    assert formed == [216, 216] and counts["comodule-algebra.multiplicative"] == 2 * 216
    for twist in (left, right):
        assert sum(1 for plane in algebra_of(twist).mul_cells for cell in plane if cell) == 216


def test_comul_multiplicativity_groups_each_coproduct_row_once(monkeypatch):
    double = derived("double", "s3_inner")
    calls = []
    group = exactlin._by_first_leg

    def counting(*args):
        calls.append(args)
        return group(*args)

    monkeypatch.setattr(exactlin, "_by_first_leg", counting)
    assert check_hom_bialgebra(double).entry("bialgebra.comul-multiplicative").passed
    assert len(calls) <= 2 * double.dim  # each of the 36 rows as left and as right factor


def test_thm45_expands_each_cocycle_once(monkeypatch):
    expanded = []
    expand = TwoCocycle.products.func

    def counting(sigma):
        expanded.append(sigma.side)
        return expand(sigma)

    spy = cached_property(counting)
    spy.__set_name__(TwoCocycle, "products")
    monkeypatch.setattr(TwoCocycle, "products", spy)
    assert verify_thm_4_5(get_entry("cyclic:4").hopf).passed
    assert sorted(expanded) == ["left", "right"]
