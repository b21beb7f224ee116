"""The data-law checkers: modules, comodules, twisting and cotwisting maps,
matched pairs, dual pairings, 2-cocycles and comodule algebras.

``check`` runs none of them, so they live apart from ``structures`` (the
domain types, the reports, ``_sweep`` and the Hopf-level checkers), and only
a command that checks construction data or verifies a suite compiles them.
Each law is swept by ``structures._sweep``.

A mirrored law is checked as the one-sided law of an opposite: a left
comodule algebra over ``C`` as a right one over ``C^cop``, and a right
action of ``A`` as a left action of ``A_op``.
"""

from __future__ import annotations

from itertools import product

from .exactlin import (
    SparseMatrix, SparseTensor3, apply_kron, apply_map, basis, bilinear_apply, compose, kron,
    linear_combination, sparse, transpose, transpose_rows,
)
from .structures import (
    CheckEntry, CheckReport, ComoduleCoaction, HomBialgebra, MatchedPairData, ModuleAction,
    PairingForm, TwoCocycle, _flat, _legs, _multiplicative_cases, _product_law, _require, _shape,
    _sweep, algebra_of, bialgebra_of, coalgebra_of, make_entry,
)


def _partial_forms(gram: SparseMatrix, alpha_left: SparseMatrix, alpha_right: SparseMatrix):
    """For a bilinear form ``<,>`` with Gram matrix ``gram``, the maps
    ``x -> <alpha_left(e_i), x>`` (one per ``i``) and ``x -> <x, alpha_right(e_j)>``
    (one per ``j``) to the one-dimensional space."""
    first = tuple(transpose_rows((row,)) for row in compose(alpha_left, gram))
    second = tuple(transpose_rows((row,)) for row in compose(alpha_right, transpose_rows(gram)))
    return first, second


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


def check_comodule(c: ComoduleCoaction) -> CheckReport:
    """Right comodule axioms for a coaction ``rho: M -> M (x) C``."""
    coactor = coalgebra_of(c.coactor)
    nm = c.carrier.dim
    am, ac, e = c.carrier.alpha, coactor.alpha, basis(nm)
    eps, rho, cm = coactor.counit, c.coact_rows, coactor.comul_rows
    checks = (
        _sweep("comodule.counit-reduces-to-alpha", (nm,), compose(rho, (e, eps)), am),
        _sweep("comodule.alpha-equivariant", (nm,), compose(rho, (am, ac)), compose(am, rho)),
        _sweep(
            "comodule.hom-coassociative", (nm,), compose(rho, (rho, ac)), compose(rho, (am, cm))
        ),
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
        *check_comodule(c).checks,
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


def check_twisting(A, B, t: SparseMatrix) -> CheckReport:
    """The three conditions of a twisting map ``B (x) A -> A (x) B``.

    Each side is a chain of row-image maps applied leg by leg, so no map on
    a triple tensor product is built; a case ``(i,)`` is the ``i``-th basis
    vector of the domain.
    """
    A = algebra_of(A)
    B = algebra_of(B)
    na, nb = A.dim, B.dim
    _require(_shape(t) == (nb * na, na * nb), "twisting map shape")

    am, bm, aa, ba = A.mul_map, B.mul_map, A.alpha, B.alpha
    ia, ib = basis(na), basis(nb)
    n = nb * na
    alphas = compose(kron(ba, aa), t)  # alpha_B (x) alpha_A, then t
    # on B (x) B (x) A: id_B (x) t, then t (x) id_B, then alpha_A (x) mu_B
    second = compose(kron(ib, t), (t, ib), (aa, bm))
    # on B (x) A (x) A: t (x) id_A, then id_A (x) t, then mu_A (x) alpha_B
    first = compose(kron(t, ia), (ia, t), (am, ba))
    checks = (
        _sweep("twisting.alpha-compatible", (n,), compose(t, (aa, ba)), alphas),
        # mu_B (x) alpha_A, then t
        _sweep("twisting.second-factor-product", (nb * n,), compose(kron(bm, aa), t), second),
        # alpha_B (x) mu_A, then t
        _sweep("twisting.first-factor-product", (n * na,), compose(kron(ba, am), t), first),
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
        *_prefixed("matched-pair.left-action.", check_module_coalgebra(mp.left_module).checks),
        *_prefixed("matched-pair.right-action.", check_module_coalgebra(mp.right_module).checks),
        _sweep("matched-pair.product-acts-right", products_act),
        _sweep("matched-pair.acts-on-product", acting_on_products),
        _sweep("matched-pair.exchange-symmetry", (nh, na), *exchange),
    )
    return CheckReport(checks)


def _prefixed(prefix: str, checks) -> list[CheckEntry]:
    return [CheckEntry(prefix + c.axiom_id, c.passed, c.witness) for c in checks]


def check_dual_pair(P: PairingForm) -> CheckReport:
    """Compatibility of a non-degenerate pairing with units, products,
    coproducts, structure maps and antipodes.

    The coproduct-side condition whose printed form is type-inconsistent is
    checked in the reading symmetric to the product-side one; the swapped
    alternative is reported as an extra informational entry.
    """
    A, B, gram = P.left, P.right, P.gram
    na, nb = A.dim, B.dim
    e_a, e_b, a_alpha, b_alpha = basis(na), basis(nb), A.alpha, B.alpha
    eps_a, eps_b = A.coalgebra.counit, B.coalgebra.counit
    a_mul, b_mul = A.algebra.mul_cells, B.algebra.mul_cells
    a_unit, b_unit, s_a = A.algebra.unit, B.algebra.unit, A.antipode_rows
    form = P.form
    pair = _flat(form)  # a (x) b -> <a, b>
    s_b_inverse = compose(kron(e_a, B.antipode_inverse), pair)
    # x -> <alpha^2(a_i), x> on B and x -> <x, alpha^2(b_j)> on A
    with_a, with_b = _partial_forms(gram, A.power(2), B.power(2))
    delta_a, delta_b = A.coalgebra.comul_rows, B.coalgebra.comul_rows

    def mul_comul_right(swapped: bool):
        """``<a, b b'>`` against ``<a_1, alpha^2(b)> <a_2, alpha^2(b')>``, or
        with ``b`` and ``b'`` exchanged on the right if ``swapped``."""
        return (
            (
                (i, j, jp),
                bilinear_apply(form, e_a[i], b_mul[j][jp]),
                apply_kron(with_b[x], with_b[y], delta_a[i]),
            )
            for i, j, jp in product(range(na), range(nb), range(nb))
            for x, y in [(jp, j) if swapped else (j, jp)]
        )

    mul_comul_left = (
        (
            (i, ip, j),
            bilinear_apply(form, a_mul[i][ip], e_b[j]),
            apply_kron(with_a[i], with_a[ip], delta_b[j]),
        )
        for i, ip, j in product(range(na), range(na), range(nb))
    )
    checks = (
        # a PairingForm with a singular gram is refused when it is built
        make_entry("pairing.non-degenerate", True),
        _sweep("pairing.unit-right", (na,), compose(kron(e_a, b_unit), pair), eps_a),
        _sweep("pairing.unit-left", (nb,), compose(kron(a_unit, e_b), pair), eps_b),
        _sweep("pairing.alpha-invariant", (na, nb), compose(kron(a_alpha, b_alpha), pair), pair),
        _sweep("pairing.mul-comul-left", mul_comul_left),
        _sweep("pairing.mul-comul-right", mul_comul_right(False)),
        _sweep("pairing.mul-comul-right-swapped", mul_comul_right(True)),
        # <S_A(a), b> against <a, S_B^-1(b)>
        _sweep("pairing.antipode", (na, nb), compose(kron(s_a, e_b), pair), s_b_inverse),
    )
    return CheckReport(checks)


def check_cocycle(sigma: TwoCocycle) -> CheckReport:
    """Structure-map invariance, the (left or right) cocycle law, and
    normality, each as a separate verdict.  Invariance reads ``alpha G alpha^T``
    (``n`` rows, not the ``n^2`` of ``alpha (x) alpha``) at the one-entry cases
    ``(i, j)`` where it or ``G`` is nonzero: both sides of the others are zero."""
    B, gram, form = sigma.algebra, sigma.gram, sigma.form
    n, alpha, a2 = B.dim, B.alpha, B.power(2)
    # sigma(alpha(e_i), alpha(e_j)) against sigma(e_i, e_j), read from alpha G alpha^T
    invariant = compose(alpha, gram, transpose_rows(alpha))
    cases = ((i, j) for i in range(n) for j in sorted(invariant[i].keys() | gram[i].keys()))
    invariance = (((i, j), sparse((invariant[i].get(j, 0),)), form[i][j]) for i, j in cases)
    # w[l][k]: sigma(l_1, k_1) l_2 k_2 (left) or sigma(l_2, k_2) l_1 k_1 (right)
    w = sigma.products
    # h -> (sigma(1, h), sigma(h, 1)) against h -> (counit(h), counit(h))
    eta, counit = B.unit, transpose_rows(B.counit)
    normal = transpose_rows(compose(eta, gram) + compose(eta, transpose_rows(gram)))

    checks = (
        _sweep("cocycle.alpha-invariant", invariance),
        # left:  sigma(alpha^2(h), l_2 k_2) sigma(l_1, k_1)
        #          = sigma(h_2 l_2, alpha^2(k)) sigma(h_1, l_1)
        # right: sigma(alpha^2(h), l_1 k_1) sigma(l_2, k_2)
        #          = sigma(h_1 l_1, alpha^2(k)) sigma(h_2, l_2)
        # that is, sigma(alpha^2(e_h), w[l][k]) against sigma(w[h][l], alpha^2(e_k))
        _sweep(f"cocycle.{sigma.side}-condition", _product_law((form, a2, w), (form, w, a2))),
        _sweep("cocycle.normal", (n,), normal, transpose_rows(counit + counit)),
    )
    return CheckReport(checks)


def check_comodule_algebra(A, c: ComoduleCoaction) -> CheckReport:
    """Right comodule axioms plus multiplicativity and unitality of the
    coaction on a Hom-algebra carrier.  Multiplicativity is swept only where a
    side has a nonzero term (``square_cases`` with the carrier's table on the
    first leg and the coactor's on the second): both sides of the others are zero."""
    alg = algebra_of(A)
    coactor = bialgebra_of(c.coactor)
    rho, legs = c.coact_rows, (alg.mul_cells, coactor.algebra.mul_cells)
    unit, coactor_unit = alg.unit, coactor.algebra.unit
    checks = (
        *check_comodule(c).checks,
        # rho(a b) against a_(0) b_(0) (x) a_(1) b_(1)
        _sweep("comodule-algebra.multiplicative", _multiplicative_cases(legs, rho)),
        _sweep("comodule-algebra.unit", (), compose(unit, rho), kron(unit, coactor_unit)),
    )
    return CheckReport(checks)


def check_left_comodule_algebra(A, coactor) -> CheckReport:
    """Mirrored, left-sided comodule Hom-algebra conditions on the algebra
    ``A`` for the coaction ``rho: A -> C (x) A`` that is the coproduct of
    ``coactor`` (so both have one dimension): the right-sided conditions for
    the coaction ``A -> A (x) C^cop`` with the legs exchanged, each id
    prefixed ``left-``."""
    co = bialgebra_of(coactor)
    cop = HomBialgebra(co.algebra, co.coalgebra.op)
    report = check_comodule_algebra(A, ComoduleCoaction(cop, A, cop.coalgebra.comul_rows))
    return CheckReport(tuple(_prefixed("left-", report.checks)))
