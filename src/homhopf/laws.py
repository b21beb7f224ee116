"""Section 2 of the paper, the data laws of Majid's bicrossproduct: modules
(plain, algebra- and coalgebra-valued), comodule coalgebras, cotwisting
maps and matched pairs.

``check`` runs none of them, so they live apart from ``structures`` (the
domain types, the reports, ``_sweep`` and the Hopf-level checkers), and only
a command that checks bicrossproduct data compiles them.  The laws of the
other sections live with their suites: dual pairs and twisting maps in
``pairing``, 2-cocycles and comodule algebras in ``twist``, which also holds
the comodule axioms every comodule law starts from.  Each law is swept by
``structures._sweep``.

A mirrored law is checked as the one-sided law of an opposite: a right
action of ``A`` as a left action of ``A_op``.
"""

from __future__ import annotations

from itertools import product

from . import twist
from .exactlin import (
    SparseMatrix, SparseTensor3, apply_kron, apply_map, basis, bilinear_apply, compose, kron,
    linear_combination, transpose,
)
from .structures import (
    CheckReport, ComoduleCoaction, MatchedPairData, ModuleAction, _flat, _legs, _product_law,
    _require, _shape, _sweep, algebra_of, bialgebra_of, coalgebra_of,
)


def check_module(m: ModuleAction) -> CheckReport:
    """Left module axioms for an action of a Hom-algebra."""
    actor = algebra_of(m.actor)
    na, nm = actor.dim, m.carrier.dim
    act, am, e = m.act_cells, m.carrier.alpha, basis(nm)
    aa, amul, unit = actor.alpha, actor.mul_cells, actor.unit
    acts = _flat(act)  # h (x) x -> h . x
    checks = (
        _sweep("module.unit-acts-as-alpha", (nm,), compose(kron(unit, e), acts), am),
        _sweep(
            "module.alpha-equivariant", (na, nm), compose(acts, am), compose(kron(aa, am), acts)
        ),
        # alpha(e_a) . (e_b . e_i) against (e_a e_b) . alpha(e_i)
        _sweep("module.hom-associative", _product_law((act, aa, act), (act, amul, am))),
    )
    return CheckReport(checks)


def check_module_algebra(m: ModuleAction) -> CheckReport:
    """Module axioms plus the module Hom-algebra compatibilities."""
    actor = bialgebra_of(m.actor)
    carrier = algebra_of(m.carrier)
    na, nc = actor.dim, carrier.dim
    act, cmc, cmul = m.act_cells, carrier.mul_cells, carrier.mul_map
    alpha2 = actor.power(2)
    e, eta = basis(na), carrier.unit
    eps, delta = actor.coalgebra.counit, actor.coalgebra.comul_rows
    acting_on = transpose(act)  # acting_on[a] is the map h -> h . e_a
    multiplicative = (
        (
            (h, a, b),
            bilinear_apply(act, alpha2[h], cmc[a][b]),
            # (h_1 . a)(h_2 . b)
            apply_map(cmul, apply_kron(acting_on[a], acting_on[b], delta[h])),
        )
        for h, a, b in product(range(na), range(nc), range(nc))
    )
    checks = (
        *check_module(m).checks,
        _sweep("module-algebra.multiplicative", multiplicative),
        _sweep("module-algebra.unit", (na,), compose(kron(e, eta), _flat(act)), compose(eps, eta)),
    )
    return CheckReport(checks)


def check_comodule_coalgebra(c: ComoduleCoaction) -> CheckReport:
    """Comodule axioms plus the comodule Hom-coalgebra compatibilities."""
    coactor = bialgebra_of(c.coactor)
    carrier = coalgebra_of(c.carrier)
    nm, nh = carrier.dim, coactor.dim
    alpha2 = coactor.power(2)
    rho, rho_terms, hmul = c.coact_rows, c.coact_terms, coactor.algebra.mul_cells
    comul_terms, cm, eps = carrier.comul_terms, carrier.comul_rows, carrier.counit
    eta = coactor.algebra.unit
    e, em = basis(nh), basis(nm)
    embed = tuple(kron((row,), em) for row in em)  # embed[d] is m -> e_d (x) m
    # c_1(0) (x) c_2(0) (x) c_1(1) c_2(1)
    coproducts = tuple(
        linear_combination(
            nm * nm * nh,
            (
                (vc * v1, apply_kron(embed[d1], hmul[h1], rho[c2]))
                for c1, c2, vc in comul_terms[i]
                for d1, h1, v1 in rho_terms[c1]
            ),
        )
        for i in range(nm)
    )
    checks = (
        *twist.check_comodule(c).checks,
        _sweep("comodule-coalgebra.counit", (nm,), compose(rho, (eps, e)), compose(eps, eta)),
        # c_(0)1 (x) c_(0)2 (x) alpha_H^2(c_(1))
        _sweep(
            "comodule-coalgebra.comultiplicative", (nm,), compose(rho, (cm, alpha2)), coproducts
        ),
    )
    return CheckReport(checks)


def check_module_coalgebra(m: ModuleAction) -> CheckReport:
    """Module axioms plus comultiplicativity of a coalgebra-valued action."""
    actor = bialgebra_of(m.actor)
    carrier = coalgebra_of(m.carrier)
    nh, nc = actor.dim, carrier.dim
    act, acts, actor_terms = m.act_cells, _flat(m.act_cells), actor.coalgebra.comul_terms
    cm, eps, actor_eps = carrier.comul_rows, carrier.counit, actor.coalgebra.counit
    # h_1 . c_1 (x) h_2 . c_2
    coproducts = tuple(_legs(actor_terms[h], act, act, cm[c]) for h in range(nh) for c in range(nc))
    checks = (
        *check_module(m).checks,
        _sweep("module-coalgebra.comultiplicative", (nh, nc), compose(acts, cm), coproducts),
        _sweep("module-coalgebra.counit", (nh, nc), compose(acts, eps), kron(actor_eps, eps)),
    )
    return CheckReport(checks)


def check_cotwisting(C, D, phi: SparseMatrix) -> CheckReport:
    """The four coherence conditions of a cotwisting map ``C (x) D -> D (x) C``.

    Each side is a chain of row-image maps on ``C (x) D``, the left one
    starting with ``phi``, applied leg by leg; a case ``(c, d)`` is the row
    ``c (x) d``.
    """
    C = coalgebra_of(C)
    D = coalgebra_of(D)
    nc, nd = C.dim, D.dim
    _require(_shape(phi) == (nc * nd, nd * nc), "cotwisting map shape")

    cm, dm, ac, ad = C.comul_rows, D.comul_rows, C.alpha, D.alpha
    ec, ed, cd = basis(nc), basis(nd), (nc, nd)
    eps_c, eps_d = C.counit, D.counit
    # alpha_C (x) delta_D, then phi (x) id_D, then id_D (x) phi
    second = compose(kron(ac, dm), (phi, ed), (ed, phi))
    # delta_C (x) alpha_D, then id_C (x) phi, then phi (x) id_C
    first = compose(kron(cm, ad), (ec, phi), (phi, ec))
    checks = (
        _sweep("cotwisting.comul-second-factor", cd, compose(phi, (dm, ac)), second),
        _sweep("cotwisting.comul-first-factor", cd, compose(phi, (ad, cm)), first),
        _sweep(
            "cotwisting.alpha-compatible", cd, compose(phi, (ad, ac)), compose(kron(ac, ad), phi)
        ),
        # kill the C-leg of the output: eps_C(c^phi) d^phi = eps_C(c) d
        _sweep("cotwisting.counit-first-factor", cd, compose(phi, (ed, eps_c)), kron(eps_c, ed)),
        _sweep("cotwisting.counit-second-factor", cd, compose(phi, (eps_d, ec)), kron(ec, eps_d)),
    )
    return CheckReport(checks)


def check_matched_pair(mp: MatchedPairData) -> CheckReport:
    """Module Hom-coalgebra conditions on both actions plus the three
    compatibility laws of a matched pair.  The right action is checked as the
    left action of ``A_op`` that it is (``MatchedPairData.right_module``)."""
    A = bialgebra_of(mp.A)
    H = bialgebra_of(mp.H)
    na, nh = A.dim, H.dim
    left, right = mp.left_cells, mp.right_cells
    ah_i1, ah_i2, ah_i3 = (H.power(-k) for k in (1, 2, 3))
    aa_i1, aa_i2, aa_i3 = (A.power(-k) for k in (1, 2, 3))
    amul, hmul = A.algebra.mul_cells, H.algebra.mul_cells
    h_terms, a_terms = H.coalgebra.comul_terms, A.coalgebra.comul_terms
    delta_a, delta_a_op = A.coalgebra.comul_rows, A.coalgebra.comul_op_rows
    e_a, rh, ra = basis(na), range(nh), range(na)

    def acted(t: SparseTensor3, hs: SparseMatrix, xs: SparseMatrix):
        """``acted(t, hs, xs)[h][a]`` is ``t`` applied to ``hs[h]`` and ``xs[a]``."""
        return [[bilinear_apply(t, x, y) for y in xs] for x in hs]

    # alpha^-2(g) -> alpha^-3(a), alpha^-1(g) <- alpha^-2(a), alpha^-2(h) -> alpha^-1(a)
    # and alpha^-3(h) <- alpha^-2(a), at [g][a] or [h][a]
    l23, r12 = acted(left, ah_i2, aa_i3), acted(right, ah_i1, aa_i2)
    l21, r32 = acted(left, ah_i2, aa_i1), acted(right, ah_i3, aa_i2)
    acts_on = transpose(left)  # acts_on[b] is x -> (x -> e_b)
    # (h g) <- a  against  (h <- (g_1 -> a_1)) (g_2 <- a_2), and
    # h -> (a b)  against  (h_1 -> a_1) ((h_2 <- a_2) -> b), up to structure-map powers
    products_act = (
        (
            (h, g, a),
            bilinear_apply(right, hmul[h][g], e_a[a]),
            linear_combination(
                nh,
                (
                    (vg * va, bilinear_apply(hmul, apply_map(right[h], l23[g1][a1]), r12[g2][a2]))
                    for g1, g2, vg in h_terms[g]
                    for a1, a2, va in a_terms[a]
                ),
            ),
        )
        for h, g, a in product(rh, rh, ra)
    )
    acting_on_products = (
        (
            (h, a, b),
            apply_map(left[h], amul[a][b]),
            linear_combination(
                na,
                (
                    (vh * va, bilinear_apply(amul, l21[h1][a1], apply_map(acts_on[b], r32[h2][a2])))
                    for h1, h2, vh in h_terms[h]
                    for a1, a2, va in a_terms[a]
                ),
            ),
        )
        for h, a, b in product(rh, ra, ra)
    )
    # h_1 <- a_1 (x) h_2 -> a_2  against  h_2 <- a_2 (x) h_1 -> a_1
    flipped = [[(h2, h1, v) for h1, h2, v in t] for t in h_terms]
    exchange = [
        tuple(_legs(terms[h], right, left, comul[a]) for h in rh for a in ra)
        for terms, comul in ((h_terms, delta_a), (flipped, delta_a_op))
    ]
    checks = (
        *twist._prefixed("matched-pair.left-action.", check_module_coalgebra(mp.left_module).checks),
        *twist._prefixed("matched-pair.right-action.", check_module_coalgebra(mp.right_module).checks),
        _sweep("matched-pair.product-acts-right", products_act),
        _sweep("matched-pair.acts-on-product", acting_on_products),
        _sweep("matched-pair.exchange-symmetry", (nh, na), *exchange),
    )
    return CheckReport(checks)
