"""Builders for derived Hom-Hopf objects.

Each construction assembles exact structure constants for a composite object:
linear duals, opposites, Yau twists, smash products, cotwist coproducts,
bicrossproducts, double crossed products, Drinfel'd doubles (via the closed
multiplication formula, via matched pairs, and via dual pairs), Heisenberg
doubles, and cocycle twists.

Tensor-factor ordering is fixed per construction: a double lives on
``H_op (x) H_dual``, the tilde variant on ``(A_op)_dual (x) A``, a double
built from a pairing on ``A (x) B``, and every product space flattens
row-major (first factor major).  Preconditions are verified before building
unless ``check=False`` (outputs are then unvalidated); an output above
``MAX_DIM`` dimensions is refused before either.  Leg tables compose with
``lm = mul_cells[x]``, left multiplication by ``e_x``, and with
``rm = transpose(mul_cells)[y]``, right multiplication by ``e_y``.
"""

from __future__ import annotations

from itertools import chain, product

from .errors import (
    CrossCheckFailed,
    HypothesisFailed,
    InvalidParameter,
    NotAMorphism,
    PreconditionFailed,
)
from .exactlin import (
    ONE,
    Matrix,
    Vector,
    alpha_power,
    apply_kron,
    apply_map,
    basis,
    bilinear_apply,
    cells,
    compose,
    comul_tensor,
    dense,
    dense_rows,
    identity,
    kron,
    linear_combination,
    mat_compose,
    mat_inverse,
    matrix_from_entries,
    rows,
    transpose,
)
from .structures import (
    MAX_DIM,
    CheckReport,
    ComoduleCoaction,
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopfAlgebra,
    MatchedPairData,
    ModuleAction,
    PairingForm,
    Record,
    RMatrix,
    TwoCocycle,
    _flat,
    _legs,
    _sweep,
    algebra_of,
    bialgebra_of,
    check_cocycle,
    check_comodule_coalgebra,
    check_cotwisting,
    check_dual_pair,
    check_matched_pair,
    check_module_algebra,
    coalgebra_of,
    cocycle_products,
    hopf_algebra,
    merge_reports,
)

def _product_dim(n1: int, n2: int) -> int:
    """The dimension ``n1 * n2`` of a product space, refused with
    ``InvalidParameter`` above ``MAX_DIM`` before anything on it is built."""
    if n1 * n2 > MAX_DIM:
        raise InvalidParameter(
            f"the construction would be {n1 * n2}-dim, above the limit of {MAX_DIM}"
        )
    return n1 * n2


def _dense_kron(f: Matrix, g: Matrix) -> Matrix:
    """The Kronecker product of two dense matrices as a dense matrix, for the
    structure map and the unit of a product space."""
    return dense_rows(kron(rows(f), rows(g)))


def _flip(n1: int, n2: int) -> Matrix:
    """The flip ``e_i (x) e_j -> e_j (x) e_i`` from an n1*n2 to an n2*n1 pair space."""
    return matrix_from_entries(
        n1 * n2, n2 * n1, {(i * n2 + j, j * n1 + i): ONE for i in range(n1) for j in range(n2)}
    )


def _tensor_coalgebra(C, D) -> HomCoalgebra:
    """The tensor-product coalgebra ``delta(c (x) d) = c_1 (x) d_1 (x) c_2 (x) d_2``:
    the cotwist coproduct of the flip."""
    return cotwist_coproduct(C, D, _flip(C.dim, D.dim), check=False)


# ---------------------------------------------------------------------------
# elementary constructions


def yau_twist(classical: HomHopfAlgebra, endo: Matrix) -> HomHopfAlgebra:
    """Twist a classical Hopf algebra (structure map = identity) along a
    bialgebra endomorphism: the product becomes endo(ab), the coproduct
    becomes delta(endo(a)), and endo is the new structure map."""
    n = classical.dim
    if classical.alpha != identity(n):
        raise PreconditionFailed("input must be classical: its structure map must be the identity")
    A, C = classical.algebra, classical.coalgebra
    er, m, sr, su = rows(endo), A.mul_map, classical.antipode_rows, (A.unit_vector,)
    dr, eps = C.comul_rows, C.counit_map
    twisted_mul, twisted_delta = compose(m, er), compose(er, dr)  # endo(ab), delta(endo(a))
    laws = (
        ("endo(1) = 1", compose(su, er), su),
        ("endo(ab) = endo(a) endo(b)", twisted_mul, compose(kron(er, er), m)),
        ("delta(endo(a)) = (endo (x) endo) delta(a)", twisted_delta, compose(dr, (er, er))),
        ("counit(endo(a)) = counit(a)", compose(er, eps), eps),
        ("endo(S(a)) = S(endo(a))", compose(sr, er), compose(er, sr)),
    )
    for law, lhs, rhs in laws:
        if lhs != rhs:
            raise NotAMorphism(law)

    twisted_mul = tuple(dense_rows(twisted_mul[i * n : (i + 1) * n]) for i in range(n))
    twisted_comul = comul_tensor(dense_rows(twisted_delta), n)
    return hopf_algebra(n, twisted_mul, A.unit, twisted_comul, C.counit, endo, classical.antipode)


def opposite(h: HomHopfAlgebra) -> HomHopfAlgebra:
    """Reverse the multiplication (``h.algebra.op``); the coalgebra and the
    stored antipode are carried over unchanged (the result is consumed as
    algebra-plus-coalgebra data and need not satisfy the antipode law)."""
    return HomHopfAlgebra(HomBialgebra(h.algebra.op, h.coalgebra), h.antipode)


def opposite_hopf(h: HomHopfAlgebra) -> HomHopfAlgebra:
    """The opposite with the inverse antipode, which is again Hom-Hopf."""
    return HomHopfAlgebra(opposite(h).bialgebra, mat_inverse(h.antipode))


def co_opposite(h: HomHopfAlgebra) -> HomHopfAlgebra:
    """The co-opposite ``delta(a) = a_2 (x) a_1`` (``h.coalgebra.op``) with the
    inverse antipode, which is again Hom-Hopf."""
    return HomHopfAlgebra(HomBialgebra(h.algebra, h.coalgebra.op), mat_inverse(h.antipode))


def dual(h: HomHopfAlgebra) -> HomHopfAlgebra:
    """The dual Hom-Hopf algebra on the dual basis.

    Multiplication pairs against the twisted coproduct,
    ``(f.g)(h) = f(alpha^-2(h_1)) g(alpha^-2(h_2))``, the coproduct against
    the twisted product, ``<delta(f), h (x) k> = f(alpha^-2(hk))``, the
    structure map is the transpose of the inverse structure map, and the
    antipode is the transpose of the antipode.
    """
    n = h.dim
    ainv2 = alpha_power(h.alpha_inverse, 2)
    a2 = rows(ainv2)
    # row (i, j): the coefficients of e^i e^j; row i: those of delta(e^i)
    products = transpose(dense_rows(compose(h.coalgebra.comul_rows, (a2, a2))))
    coproducts = transpose(dense_rows(compose(h.algebra.mul_map, a2)))
    return hopf_algebra(
        n,
        tuple(products[i * n : (i + 1) * n] for i in range(n)),
        h.counit,
        comul_tensor(coproducts, n),
        h.unit,
        transpose(h.alpha_inverse),
        transpose(h.antipode),
    )


# ---------------------------------------------------------------------------
# smash products and cotwists


def smash_product(A, H, act: ModuleAction, check: bool = True) -> HomAlgebra:
    """The smash product algebra on ``A (x) H`` for a module-algebra action:
    ``(a # h)(b # k) = a (alpha_H^-2(h_1) . alpha_A^-1(b)) # alpha_H^-1(h_2) k``."""
    alg = algebra_of(A)
    bi = bialgebra_of(H)
    na, nh = alg.dim, bi.dim
    nd = _product_dim(na, nh)
    if check:
        report = check_module_algebra(act)
        if not report.ok:
            raise PreconditionFailed("action is not a module-algebra action", report)
    ah_i1, ah_i2 = (rows(alpha_power(bi.alpha_inverse, k)) for k in (1, 2))
    aa_i1 = rows(alg.alpha_inverse)
    amul, hmul, action = alg.mul_cells, bi.algebra.mul_cells, act.act_cells
    delta = bi.coalgebra.comul_rows
    # first[a][b] maps h_1 to a (alpha_H^-2(h_1) . alpha_A^-1(b)),
    # second[k] maps h_2 to alpha_H^-1(h_2) k
    acted = [[bilinear_apply(action, x, y) for x in ah_i2] for y in aa_i1]
    first = [[compose(row, lm) for row in acted] for lm in amul]
    second = [compose(ah_i1, rm) for rm in transpose(hmul)]
    mul = tuple(
        tuple(
            dense(apply_kron(first[a][b], second[k], delta[hh]))
            for b in range(na)
            for k in range(nh)
        )
        for a in range(na)
        for hh in range(nh)
    )
    unit = _dense_kron((alg.unit,), (bi.unit,))[0]
    return HomAlgebra(nd, mul, unit, _dense_kron(alg.alpha, bi.alpha))


def comodule_cotwist(co: ComoduleCoaction, check: bool = True) -> Matrix:
    """The cotwisting map induced by a comodule Hom-coalgebra structure:
    ``phi(h (x) c) = alpha_C^-1(c_(0)) (x) alpha_H^-1(h) alpha_H^-2(c_(1))``.

    The structure-map power applied to ``c_(1)`` must be the coactor's (a
    carrier power there would not typecheck when the two maps differ).
    """
    coactor = bialgebra_of(co.coactor)
    carrier = coalgebra_of(co.carrier)
    nh, nc = coactor.dim, carrier.dim
    ac_i1 = rows(carrier.alpha_inverse)
    ah_i1, ah_i2 = (rows(alpha_power(coactor.alpha_inverse, k)) for k in (1, 2))
    hmul, rho = coactor.algebra.mul_cells, co.coact_rows
    # second[h] maps c_(1) to alpha_H^-1(h) alpha_H^-2(c_(1))
    second = [tuple(bilinear_apply(hmul, x, y) for y in ah_i2) for x in ah_i1]
    phi = tuple(chain.from_iterable(dense_rows(compose(rho, (ac_i1, s))) for s in second))
    if check:
        report = check_cotwisting(coactor, carrier, phi)
        if not report.ok:
            raise PreconditionFailed("induced map is not a cotwisting map", report)
    return phi


def cotwist_coproduct(C, D, phi: Matrix, check: bool = True) -> HomCoalgebra:
    """The twisted coproduct on ``C (x) D``:
    ``delta(c (x) d) = c_1 (x) d_1^phi (x) c_2^phi (x) d_2``."""
    Cc = coalgebra_of(C)
    Dc = coalgebra_of(D)
    nc, nd = Cc.dim, Dc.dim
    n = _product_dim(nc, nd)
    if check:
        report = check_cotwisting(Cc, Dc, phi)
        if not report.ok:
            raise PreconditionFailed("not a cotwisting map", report)
    ec, ed, phi_rows = basis(nc), basis(nd), rows(phi)
    # (id (x) phi (x) id)(delta_C (x) delta_D) in two steps: phi_d maps
    # c_2 (x) d to phi(c_2 (x) d_1) (x) d_2, and c (x) d goes to c_1 (x) phi_d(c_2 (x) d)
    phi_d = compose(kron(ec, Dc.comul_rows), (phi_rows, ed))
    comul = dense_rows(compose(kron(Cc.comul_rows, ed), (ec, phi_d)))
    return HomCoalgebra(
        n,
        comul_tensor(comul, n),
        _dense_kron((Cc.counit,), (Dc.counit,))[0],
        _dense_kron(Cc.alpha, Dc.alpha),
    )


# ---------------------------------------------------------------------------
# bicrossproduct


def bicross_hypotheses(A, H, act: ModuleAction, co: ComoduleCoaction) -> CheckReport:
    """The three compatibility hypotheses between the action of H on A and
    the coaction of A on H, each reported separately."""
    alg = algebra_of(A)
    coa = coalgebra_of(A)
    bi = bialgebra_of(H)
    na, nh = alg.dim, bi.dim
    ah_i1 = rows(bi.alpha_inverse)
    aa_i1 = rows(alg.alpha_inverse)
    action, amul, hmul = act.act_cells, alg.mul_cells, bi.algebra.mul_cells
    h_terms, co_terms = bi.coalgebra.comul_terms, co.coact_terms
    delta_a, rho, eps_a = coa.comul_rows, co.coact_rows, coa.counit_map
    acts, e_h = _flat(action), basis(nh)  # acts maps h (x) b to h . b
    eps_h, hm = bi.coalgebra.counit_map, bi.algebra.mul_map
    # Legs as maps of a basis vector: acted[h] is b -> alpha^-1(h) . b,
    # times[h] is g -> alpha^-1(h) g, and twisted[a * nh + h] is
    # b -> alpha^-1(a) (alpha^-1(h) . alpha^-1(b)).
    acted = transpose(tuple(compose(ah_i1, rm) for rm in transpose(action)))
    times = transpose(tuple(compose(ah_i1, rm) for rm in transpose(hmul)))
    acted_twice = [[bilinear_apply(action, h, b) for b in aa_i1] for h in ah_i1]
    twisted = [tuple(bilinear_apply(amul, a, x) for x in row) for a in aa_i1 for row in acted_twice]
    # at x * na + b, acted_then is a -> (x . b) a and then_acted is a -> a (x . b)
    acted_then = transpose(tuple(compose(acts, rm) for rm in transpose(amul)))
    then_acted = transpose(tuple(compose(acts, lm) for lm in amul))

    # the terms (h_1(0), (h_1(1), h_2), v) of each h, whose legs are read from acted
    # or times and from twisted
    dressed = [
        [(h10, h11 * nh + h2, vh * vco) for h1, h2, vh in sw for h10, h11, vco in co_terms[h1]]
        for sw in h_terms
    ]
    # (alpha^-1(h_1(0)) . b_1) (x) alpha^-1(h_1(1)) (alpha^-1(h_2) . alpha^-1(b_2))
    hyp1 = tuple(_legs(terms, acted, twisted, delta_a[b]) for terms in dressed for b in range(na))
    # alpha^-1(h_1(0)) g_(0) (x) alpha^-1(h_1(1)) (alpha^-1(h_2) . alpha^-1(g_(1)))
    hyp2 = tuple(_legs(terms, times, twisted, rho[g]) for terms in dressed for g in range(nh))
    # h_2(0) (x) (h_1 . b) h_2(1) against h_1(0) (x) h_1(1) (h_2 . b)
    flipped = [[(h2, h1, v) for h1, h2, v in sweedler] for sweedler in h_terms]
    exchange = [
        tuple(
            linear_combination(
                nh * na, ((v, apply_kron(e_h, legs[x * na + b], rho[y])) for x, y, v in terms)
            )
            for terms in sweedlers
            for b in range(na)
        )
        for legs, sweedlers in ((acted_then, h_terms), (then_acted, flipped))
    ]

    checks = (
        _sweep("bicross.action-comultiplicative", (nh, na), compose(acts, delta_a), hyp1),
        _sweep("bicross.action-counit", (nh, na), compose(acts, eps_a), kron(eps_h, eps_a)),
        _sweep("bicross.coaction-multiplicative", (nh, nh), compose(hm, rho), hyp2),
        _sweep("bicross.action-coaction-exchange", (nh, na), *exchange),
    )
    return CheckReport(checks)


def bicrossproduct(
    A: HomHopfAlgebra, H: HomHopfAlgebra, act: ModuleAction, co: ComoduleCoaction, check: bool = True
) -> HomHopfAlgebra:
    """The bicrossproduct Hom-Hopf algebra on ``A (x) H`` built from a
    module-algebra action of H on A and a comodule-coalgebra coaction of A on
    H satisfying the three compatibility hypotheses.

    Its coproduct is the cotwist coproduct of the cotwisting map the coaction
    induces: ``a_1 (x) alpha_H^-1(h_1(0)) (x) alpha_A^-1(a_2) alpha_A^-2(h_1(1)) (x) h_2``.
    """
    na, nh = A.dim, H.dim
    nd = _product_dim(na, nh)
    if check:
        mod_report = check_module_algebra(act)
        if not mod_report.ok:
            raise PreconditionFailed("action is not a module-algebra action", mod_report)
        co_report = check_comodule_coalgebra(co)
        if not co_report.ok:
            raise PreconditionFailed("coaction is not a comodule-coalgebra coaction", co_report)
        hyp = bicross_hypotheses(A, H, act, co)
        for label, entry in zip(("1", "1", "2", "3"), hyp.checks):
            if not entry.passed:
                raise HypothesisFailed(label, CheckReport((entry,)))

    aa_i2, aa_i3 = (rows(alpha_power(A.alpha_inverse, k)) for k in (2, 3))
    smash = smash_product(A, H, act, check=False)
    coalg = cotwist_coproduct(A, H, comodule_cotwist(co, check=False), check=False)

    # S(a (x) h) = (1 (x) S_H alpha_H^-2(h_(0))) (S_A(alpha_A^-2(a) alpha_A^-3(h_(1))) (x) 1)
    co_terms, mc, amul = co.coact_terms, smash.mul_cells, A.algebra.mul_cells
    # h -> 1 (x) S_H(alpha_H^-2(h)) and a -> S_A(a) (x) 1
    sh_i2 = rows(mat_compose(alpha_power(H.alpha_inverse, 2), H.antipode))
    s_h = kron((A.algebra.unit_vector,), sh_i2)
    s_then_1 = kron(A.antipode_rows, (H.algebra.unit_vector,))
    s_a = [[apply_map(s_then_1, bilinear_apply(amul, a, x)) for x in aa_i3] for a in aa_i2]
    antipode = tuple(
        dense(
            linear_combination(
                nd, ((v, bilinear_apply(mc, s_h[h0], s_a[a][h1])) for h0, h1, v in co_terms[hh])
            )
        )
        for a in range(na)
        for hh in range(nh)
    )
    return HomHopfAlgebra(HomBialgebra(smash, coalg), antipode)


def self_bicross_data(H: HomHopfAlgebra) -> tuple[HomHopfAlgebra, ModuleAction, ComoduleCoaction]:
    """The canonical bicrossproduct data on ``(H, H_op)``: the opposite acts
    by ``h . a = (S(alpha^-2(h_1)) alpha^-1(a)) alpha^-1(h_2)`` and H coacts
    by ``rho(h) = alpha^-1(h_12) (x) S(alpha^-2(h_11)) alpha^-1(h_2)``."""
    n = H.dim
    _product_dim(n, n)  # the bicrossproduct these data build
    hop = opposite_hopf(H)
    ainv1 = rows(H.alpha_inverse)
    s_ainv2 = rows(mat_compose(alpha_power(H.alpha_inverse, 2), H.antipode))  # S(alpha^-2(e_h))
    hmul, h_terms = H.algebra.mul_cells, H.coalgebra.comul_terms

    def acts(h, a):
        return linear_combination(
            n,
            (
                (c, bilinear_apply(hmul, bilinear_apply(hmul, s_ainv2[h1], ainv1[a]), ainv1[h2]))
                for h1, h2, c in h_terms[h]
            ),
        )

    act = tuple(tuple(dense(acts(h, a)) for a in range(n)) for h in range(n))

    # rho(h) applies alpha^-1 (x) second[h_2] to h_12 (x) h_11, the co-opposite
    # coproduct of h_1; second[h_2] maps h_11 to S(alpha^-2(h_11)) alpha^-1(h_2)
    op_delta = H.coalgebra.comul_op_rows
    second = [tuple(bilinear_apply(hmul, x, y) for x in s_ainv2) for y in ainv1]
    coact = tuple(
        dense(
            linear_combination(
                n * n,
                ((c, apply_kron(ainv1, second[h2], op_delta[h1])) for h1, h2, c in h_terms[h]),
            )
        )
        for h in range(n)
    )
    return hop, ModuleAction(hop, H, act), ComoduleCoaction(H, hop, comul_tensor(coact, n))


def self_bicross(H: HomHopfAlgebra, check: bool = True) -> HomHopfAlgebra:
    """The bicrossproduct on ``H (x) H_op``, cross-checked against the
    closed product and coproduct formulas stated for it."""
    n = H.dim
    nd = _product_dim(n, n)
    hop, act, co = self_bicross_data(H)
    built = bicrossproduct(H, hop, act, co, check=check)

    ainv1, ainv2, ainv3 = (rows(alpha_power(H.alpha_inverse, k)) for k in (1, 2, 3))
    s_ainv4 = rows(mat_compose(alpha_power(H.alpha_inverse, 4), H.antipode))  # S(alpha^-4(e_h))
    e, hmul, Hc = basis(n), H.algebra.mul_cells, H.coalgebra
    h_terms, delta, op_delta = Hc.comul_terms, Hc.comul_rows, Hc.comul_op_rows

    # closed form of the product:
    # (a x h)(b x k) = a[(S(alpha^-4(h_11)) alpha^-2(b)) alpha^-3(h_12)] x k alpha^-1(h_2);
    # first[a][b] maps h_11 (x) h_12 and second[k] maps h_2 to their legs
    dressed = [
        [bilinear_apply(hmul, bilinear_apply(hmul, x, b), y) for x in s_ainv4 for y in ainv3]
        for b in ainv2
    ]
    first = [[compose(row, lm) for row in dressed] for lm in hmul]
    second = [compose(ainv1, lm) for lm in hmul]
    twice = compose(delta, (delta, e))  # h_11 (x) h_12 (x) h_2
    closed_mul = tuple(
        tuple(
            dense(apply_kron(first[a][b], second[k], twice[h]))
            for b in range(n)
            for k in range(n)
        )
        for a in range(n)
        for h in range(n)
    )
    if closed_mul != built.mul:
        raise CrossCheckFailed("closed-form product disagrees with the generic route")

    # closed form of the coproduct:
    # delta(a x h) = a_1 x alpha^-2(h_112)
    #   (x) alpha^-1(a_2)(S(alpha^-4(h_111)) alpha^-3(h_12)) x h_2,
    # the cotwist coproduct of the map closed_phi from a_2 (x) h_1 to the middle two
    # legs: alpha^-2 (x) third[a_2][h_12] applied to h_112 (x) h_111, the co-opposite
    # coproduct of h_11, where third[a_2][h_12] maps h_111 to the last leg
    inner = [[bilinear_apply(hmul, x, y) for x in s_ainv4] for y in ainv3]
    third = [[tuple(bilinear_apply(hmul, a, v) for v in row) for row in inner] for a in ainv1]
    closed_phi = tuple(
        dense(
            linear_combination(
                nd,
                (
                    (v, apply_kron(ainv2, third[a2][h12], op_delta[h11]))
                    for h11, h12, v in h_terms[h1]
                ),
            )
        )
        for a2 in range(n)
        for h1 in range(n)
    )
    closed_comul = cotwist_coproduct(H, H, closed_phi, check=False).comul
    if closed_comul != built.comul:
        raise CrossCheckFailed("closed-form coproduct disagrees with the generic route")
    return built


# ---------------------------------------------------------------------------
# matched pairs and doubles


def double_cross_product(mp: MatchedPairData, check: bool = True) -> HomHopfAlgebra:
    """The double crossed product on ``A (x) H`` of a matched pair, with the
    tensor coproduct and the antipode
    ``S(a (x) h) = (1 (x) S_H alpha_H^-1(h)) (S_A alpha_A^-1(a) (x) 1)``."""
    A = mp.A
    H = mp.H
    na, nh = A.dim, H.dim
    nd = _product_dim(na, nh)
    if check:
        report = check_matched_pair(mp)
        if not report.ok:
            raise PreconditionFailed("not a matched pair", report)
    ah_i2 = rows(alpha_power(H.alpha_inverse, 2))
    aa_i2 = rows(alpha_power(A.alpha_inverse, 2))
    left, right = mp.left_cells, mp.right_cells
    amul, hmul = A.algebra.mul_cells, H.algebra.mul_cells
    h_terms, delta_a = H.coalgebra.comul_terms, A.coalgebra.comul_rows

    # (a (x) h)(b (x) g)
    #   = a (alpha^-2(h_1) -> alpha^-2(b_1)) (x) (alpha^-2(h_2) <- alpha^-2(b_2)) g;
    # first[a][h_1] and second[g][h_2] are the two legs as maps of b_1 and b_2
    lefts = [[bilinear_apply(left, x, y) for y in aa_i2] for x in ah_i2]
    rights = [[bilinear_apply(right, x, y) for y in aa_i2] for x in ah_i2]
    first = [[compose(row, lm) for row in lefts] for lm in amul]
    second = [[compose(row, rm) for row in rights] for rm in transpose(hmul)]
    mul = tuple(
        tuple(
            dense(_legs(h_terms[h], first[a], second[g], delta_a[b]))
            for b in range(na)
            for g in range(nh)
        )
        for a in range(na)
        for h in range(nh)
    )
    coalg = _tensor_coalgebra(A, H)
    alg = HomAlgebra(nd, mul, _dense_kron((A.unit,), (H.unit,))[0], coalg.alpha)

    # the two antipode factors as maps: h -> 1 (x) S_H alpha_H^-1(h), a -> S_A alpha_A^-1(a) (x) 1
    s_h = kron((A.algebra.unit_vector,), rows(mat_compose(H.alpha_inverse, H.antipode)))
    s_a = kron(rows(mat_compose(A.alpha_inverse, A.antipode)), (H.algebra.unit_vector,))
    antipode = tuple(
        dense(bilinear_apply(alg.mul_cells, s_h[h], s_a[a])) for a in range(na) for h in range(nh)
    )
    return HomHopfAlgebra(HomBialgebra(alg, coalg), antipode)


def dual_matched_pair(
    A: HomHopfAlgebra, H: HomHopfAlgebra, act: ModuleAction, co: ComoduleCoaction, check: bool = True
) -> MatchedPairData:
    """Dualize bicrossproduct data into a matched pair ``(H, A_dual)``:
    the dual acts by ``f > h = f(h_(1)) h_(0)`` and is acted on by
    ``<f < h, a> = <f, h . alpha^-2(a)>``."""
    if check:
        mod_report = check_module_algebra(act)
        co_report = check_comodule_coalgebra(co)
        hyp = bicross_hypotheses(A, H, act, co)
        combined = merge_reports(mod_report, co_report, hyp)
        if not combined.ok:
            raise PreconditionFailed("bicrossproduct preconditions fail", combined)
    na, nh = A.dim, H.dim
    aa_i2 = alpha_power(A.alpha_inverse, 2)
    # column j of alpha^-2 followed by the action of h is <e^j < h, .>
    acted = [transpose(mat_compose(aa_i2, act.act[h])) for h in range(nh)]
    left = tuple(
        tuple(tuple(co.coact[h][h0][j] for h0 in range(nh)) for h in range(nh)) for j in range(na)
    )
    right = tuple(tuple(acted[h][j] for h in range(nh)) for j in range(na))
    return MatchedPairData(H, dual(A), left, right)


def drinfeld_double(H: HomHopfAlgebra) -> HomHopfAlgebra:
    """The Drinfel'd double on ``H_op (x) H_dual`` with multiplication

    ``(h (x) f)(k (x) g) =
        alpha^-2(k_21) h (x) [alpha^-3(k_22) -> ((alpha*)^2(f) <- S alpha^-3(k_1))] g``,

    the tensor coproduct, unit ``1 (x) counit``, counit
    ``h (x) f -> counit(h) f(1)``, and structure map
    ``alpha (x) (alpha^-1)*``."""
    n = H.dim
    nd = _product_dim(n, n)
    hst = dual(H)
    ainv2, ainv3 = (rows(alpha_power(H.alpha_inverse, k)) for k in (2, 3))
    a2t = rows(transpose(alpha_power(H.alpha, 2)))
    S = H.antipode
    s_ainv3 = rows(mat_compose(alpha_power(H.alpha_inverse, 3), S))  # rows S(alpha^-3(e_k))
    er, hmul = basis(n), H.algebra.mul_cells
    # shifted[h] maps e_k to alpha^-2(e_k) e_h and times[l] maps f to f e^l
    shifted = [compose(ainv2, rm) for rm in transpose(hmul)]
    times = transpose(hst.algebra.mul_cells)
    # the regular actions on the dual as bilinear maps of (h, f):
    # <f <- h, k> = <f, h alpha^-2(k)> and <h -> f, k> = <f, alpha^-2(k) h>
    right = cells(tuple(transpose(dense_rows(compose(ainv2, lm))) for lm in hmul))
    left = cells(tuple(transpose(dense_rows(row)) for row in shifted))
    h_terms = H.coalgebra.comul_terms

    blocks = {}
    for m, sweedler in enumerate(h_terms):
        for j in range(n):
            # the sum over the Sweedler terms of k_21 (x) f, where
            # f = alpha^-3(k_22) -> ((alpha*)^2(e^j) <- S alpha^-3(k_1))
            pure = []
            for k1, k2, c1 in sweedler:
                acted = bilinear_apply(right, s_ainv3[k1], a2t[j])
                for k21, k22, c2 in h_terms[k2]:
                    f = bilinear_apply(left, ainv3[k22], acted)
                    pure.append((c1 * c2, kron((er[k21],), (f,))[0]))
            dressed = linear_combination(nd, pure)
            for h, l in product(range(n), repeat=2):
                blocks[h * n + j, m * n + l] = dense(apply_kron(shifted[h], times[l], dressed))
    mul = tuple(tuple(blocks[r, c] for c in range(nd)) for r in range(nd))
    coalg = _tensor_coalgebra(H, hst)
    alg = HomAlgebra(nd, mul, _dense_kron((H.unit,), (hst.unit,))[0], coalg.alpha)

    # S(h (x) f) = (1 (x) S*(alpha*(f))) (S^-1(alpha^-1(h)) (x) counit), factor by factor
    counit = hst.algebra.unit_vector  # the counit of H is the unit of its dual
    s_f = kron((H.algebra.unit_vector,), rows(mat_compose(transpose(H.alpha), hst.antipode)))
    s_h = kron(rows(mat_compose(H.alpha_inverse, mat_inverse(S))), (counit,))
    mc = alg.mul_cells
    antipode = tuple(dense(bilinear_apply(mc, s_f[j], s_h[h])) for h in range(n) for j in range(n))
    return HomHopfAlgebra(HomBialgebra(alg, coalg), antipode)


def canonical_r_matrix(H: HomHopfAlgebra, double: HomHopfAlgebra | None = None) -> RMatrix:
    """The canonical quasitriangular structure on the double:
    ``R = sum_i (1 (x) (alpha^-1)*(e^i)) (x) (S^-1(e_i) (x) counit)``."""
    if double is None:
        double = drinfeld_double(H)
    first = _dense_kron((H.unit,), transpose(H.alpha_inverse))
    second = _dense_kron(mat_inverse(H.antipode), (H.counit,))
    return RMatrix(double.bialgebra, mat_compose(transpose(first), second))


def evaluation_pairing(H: HomHopfAlgebra) -> PairingForm:
    """The evaluation pairing on ``(H_op, H_dual)``; the opposite carries the
    inverse antipode so both sides are Hom-Hopf."""
    return PairingForm(opposite_hopf(H), dual(H), identity(H.dim))


class PairedDouble(Record):
    """A double built from a dual pairing, with its twisting map and the
    outcome of comparing the closed-form antipode inverses of the two
    half-braidings against their exact matrix inverses."""

    hopf: HomHopfAlgebra
    twisting: Matrix
    closed_form_inverses_match: tuple[bool, bool]


def dual_pair_double(P: PairingForm, check: bool = True) -> PairedDouble:
    """The double on ``A (x) B`` of a dual pair, with multiplication

    ``(a (x) b)(a' (x) b') = (S^-1 alpha_A(a'_1), b_2)(a'_22, alpha_B^-1(b_11))
        a alpha_A^-2(a'_21) (x) alpha_B^-2(b_12) b'``,

    coproduct ``a_1 (x) b_2 (x) a_2 (x) b_1``, and antipode built from the
    twisting map.  The antipode-based closed forms for the half-braiding
    inverses are evaluated and compared against exact matrix inverses; a
    mismatch is recorded, never fatal."""
    A, B, gram = P.left, P.right, P.gram
    na, nb = A.dim, B.dim
    nd = _product_dim(na, nb)
    if check:
        report = check_dual_pair(P)
        required = [c for c in report.checks if c.axiom_id != "pairing.mul-comul-right-swapped"]
        if not all(c.passed for c in required):
            raise PreconditionFailed("not a dual pair", CheckReport(tuple(required)))
    aa_i2 = rows(alpha_power(A.alpha_inverse, 2))
    bb_i1 = B.alpha_inverse
    bb_i2 = rows(alpha_power(B.alpha_inverse, 2))
    sa_inv = mat_inverse(A.antipode)
    sb_inv = mat_inverse(B.antipode)
    e_a, e_b = identity(na), identity(nb)

    def paired(weight: Matrix, first: bool, a_then: Matrix, b_then: Matrix) -> Matrix:
        """The map on ``A (x) B`` that pairs one Sweedler leg of ``a`` with one of
        ``b`` through ``weight`` and keeps the other two, then applies
        ``a_then (x) b_then``: ``a_1 (x) <a_2, b_1> b_2`` if ``first``, else
        ``a_2 (x) <a_1, b_2> b_1``, the same through the co-opposites."""
        ca, cb = (A.coalgebra, B.coalgebra) if first else (A.coalgebra.op, B.coalgebra.op)
        legs, b_comul, kept = ca.comul_rows, cb.comul, rows(a_then)
        # through[b] maps the paired leg of a to the kept leg of b
        through = [rows(mat_compose(mat_compose(weight, plane), b_then)) for plane in b_comul]
        return tuple(
            dense(apply_kron(kept, through[b], legs[a])) for a in range(na) for b in range(nb)
        )

    def weight(antipode: Matrix | None) -> Matrix:
        # <(antipode) alpha_A(a), b>
        return mat_compose(A.alpha if antipode is None else mat_compose(A.alpha, antipode), gram)

    aa_i1 = A.alpha_inverse
    r1 = paired(weight(None), True, aa_i1, bb_i1)
    r2 = paired(weight(None), False, aa_i1, bb_i1)
    r1_inv = mat_inverse(r1)
    r2_inv = mat_inverse(r2)
    closed_r1_inv = paired(weight(sa_inv), True, aa_i1, bb_i1)
    closed_r2_inv = paired(weight(sa_inv), False, aa_i1, bb_i1)
    inverses_match = (closed_r1_inv == r1_inv, closed_r2_inv == r2_inv)
    twisting = mat_compose(mat_compose(_flip(nb, na), r2_inv), r1)

    # a' (x) b goes to <S^-1 alpha_A(a'_1), b_2> a'_2 (x) b_1, and then a'_2 (x) b_1 to
    # <a'_22, alpha_B^-1(b_11)> a'_21 (x) b_12
    weight2 = mat_compose(gram, transpose(bb_i1))  # <a, alpha_B^-1(b)>
    middles = rows(
        mat_compose(paired(weight(sa_inv), False, e_a, e_b), paired(weight2, True, e_a, e_b))
    )
    # first[a] maps a'_21 to a alpha_A^-2(a'_21), second[b'] maps b_12 to alpha_B^-2(b_12) b'
    amul, bmul = A.algebra.mul_cells, B.algebra.mul_cells
    first = [compose(aa_i2, lm) for lm in amul]
    second = [compose(bb_i2, rm) for rm in transpose(bmul)]
    mul = tuple(
        tuple(
            dense(apply_kron(first[a], second[bp], middles[ap * nb + b]))
            for ap in range(na)
            for bp in range(nb)
        )
        for a in range(na)
        for b in range(nb)
    )
    # a_1 (x) b_2 (x) a_2 (x) b_1: the tensor coproduct with B's co-opposite
    coalg = _tensor_coalgebra(A, B.coalgebra.op)
    antipode = mat_compose(mat_compose(_dense_kron(A.antipode, sb_inv), _flip(na, nb)), twisting)
    unit = _dense_kron((A.unit,), (B.unit,))[0]
    hopf = hopf_algebra(nd, mul, unit, coalg.comul, coalg.counit, coalg.alpha, antipode)
    return PairedDouble(hopf, twisting, inverses_match)


# ---------------------------------------------------------------------------
# Heisenberg doubles and cocycle twists


def regular_action(h: HomHopfAlgebra) -> ModuleAction:
    """The left regular action of the dual: ``f -> b = f(b_2) b_1``."""
    n = h.dim
    act = tuple(
        tuple(tuple(h.comul[b][b1][j] for b1 in range(n)) for b in range(n)) for j in range(n)
    )
    return ModuleAction(dual(h), h, act)


def heisenberg_double(A: HomHopfAlgebra) -> HomAlgebra:
    """The Heisenberg double ``A # A_dual`` under the left regular action:
    ``(a # f)(b # g) = a((f_1 o alpha^2) -> alpha^-1(b)) # (f_2 o alpha) g``.

    Assembled without the generic smash-product gate: the regular action is
    a module-algebra action exactly when the input satisfies the bialgebra
    compatibility, and the smash formula itself only needs an invertible
    structure map.
    """
    _product_dim(A.dim, A.dim)
    act = regular_action(A)
    return smash_product(A, act.actor, act, check=False)


def drinfeld_double_tilde(A: HomHopfAlgebra) -> HomBialgebra:
    """The mirrored double on ``(A_op)_dual (x) A`` with multiplication

    ``(f (x) a)(g (x) b) =
        f[(alpha^-3(a_1) -> (alpha^2)*(g)) <- S^-1 alpha^-3(a_22)]
        (x) alpha^-2(a_21) b``.

    It is the double of the co-opposite, ``D = drinfeld_double(A^cop)``,
    with the opposite product and the co-opposite coproduct, carried to
    ``(A_op)_dual (x) A`` by the flip ``h (x) f -> f (x) h``.  The tensor
    coproduct and counit are attached so the result can host a cocycle;
    only the algebra part is asserted Hom-associative."""
    n = A.dim
    d = drinfeld_double(co_opposite(A))
    # basis vector q here is the double's basis vector flip[q]; the flip is an involution
    flip = [q % n * n + q // n for q in range(n * n)]

    def moved(v: Vector) -> Vector:
        return tuple(v[p] for p in flip)

    mul = tuple(tuple(moved(d.mul[pc][pr]) for pc in flip) for pr in flip)
    comul = tuple(tuple(tuple(d.comul[pr][pb][pa] for pb in flip) for pa in flip) for pr in flip)
    alpha = tuple(moved(d.alpha[p]) for p in flip)
    return HomBialgebra(
        HomAlgebra(n * n, mul, moved(d.unit), alpha),
        HomCoalgebra(n * n, comul, moved(d.counit), alpha),
    )


def cocycle_twist(B, sigma: TwoCocycle, check: bool = True) -> HomAlgebra:
    """Deform the multiplication by a normal cocycle:
    left twist ``h . k = sigma(h_1, k_1) alpha^-1(h_2 k_2)``, right twist
    ``h . k = alpha^-1(h_1 k_1) sigma(h_2, k_2)``."""
    bi = bialgebra_of(B)
    if sigma.algebra != bi:
        raise PreconditionFailed("cocycle host differs from the algebra being twisted")
    if check:
        report = check_cocycle(sigma)
        if not report.ok:
            raise PreconditionFailed("not a normal cocycle", report)
    ainv1 = rows(bi.alpha_inverse)
    mul = tuple(tuple(dense(apply_map(ainv1, w)) for w in row) for row in cocycle_products(sigma))
    return HomAlgebra(bi.dim, mul, bi.unit, bi.alpha)


def canonical_cocycles(
    A: HomHopfAlgebra,
    double: HomHopfAlgebra | None = None,
    double_tilde: HomBialgebra | None = None,
) -> tuple[TwoCocycle, TwoCocycle]:
    """The canonical left cocycle on the double,
    ``sigma(h (x) f, k (x) g) = counit(h) g(1) <f, alpha(k)>``, and the
    canonical right cocycle on the mirrored double,
    ``eta(f (x) a, g (x) b) = counit(b) f(1) <g, alpha(a)>``."""
    n = A.dim
    if double is None:
        double = drinfeld_double(A)
    if double_tilde is None:
        double_tilde = drinfeld_double_tilde(A)
    rng = range(n)
    sigma = tuple(
        tuple(A.counit[h] * A.alpha[k][j] * A.unit[l] for k in rng for l in rng)
        for h in rng
        for j in rng
    )
    eta = tuple(
        tuple(A.unit[j] * A.alpha[a][l] * A.counit[b] for l in rng for b in rng)
        for j in rng
        for a in rng
    )
    return TwoCocycle(double.bialgebra, sigma, "left"), TwoCocycle(double_tilde, eta, "right")
