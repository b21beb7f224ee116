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
``MAX_DIM`` dimensions is refused before either.  A product on a pair space
comes from ``_pair_product`` and an exchange map that swaps the two inner
legs; a coproduct on a pair space comes from ``cotwist_coproduct`` and a
cotwisting map.
"""

from __future__ import annotations

from itertools import chain

from .errors import (
    CrossCheckFailed,
    HypothesisFailed,
    InvalidParameter,
    NotAMorphism,
    PreconditionFailed,
)
from .exactlin import (
    Matrix,
    SparseMatrix,
    SparseTensor3,
    Vector,
    apply_kron,
    apply_map,
    basis,
    bilinear_apply,
    compose,
    dense,
    dense_rows,
    flip,
    identity,
    kron,
    linear_combination,
    mat_compose,
    mat_inverse,
    pair_cells,
    rows,
    rows_from_entries,
    transpose,
    transpose_rows,
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
    hopf_of_tables,
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


def _product_alpha(X, Y) -> tuple[Matrix, Matrix]:
    """The structure map ``alpha_X (x) alpha_Y`` of a product space and its
    inverse, the product of the inverses."""
    return tuple(dense_rows(kron(X.power(k), Y.power(k))) for k in (1, -1))


def _pair_product(left, right, tau) -> SparseTensor3:
    """The product table on a pair space ``X (x) Y`` whose product of
    ``e_(x, y)`` and ``e_(x', y')`` is ``(left[x] (x) right[y'])(tau[y][x'])``.

    ``tau[y][x']`` is the exchange map ``Y (x) X -> X (x) Y`` on the inner legs
    ``e_y (x) e_x'``; ``left[x]`` then acts on its first leg and ``right[y']``
    on its second, both as row-image maps.
    """
    return tuple(
        tuple(apply_kron(lm, rm, v) for v in row for rm in right)
        for lm in left
        for row in tau
    )


def _tensor_coalgebra(C, D) -> HomCoalgebra:
    """The tensor-product coalgebra ``delta(c (x) d) = c_1 (x) d_1 (x) c_2 (x) d_2``:
    the cotwist coproduct of the flip."""
    return cotwist_coproduct(C, D, dense_rows(flip(C.dim, D.dim)), check=False)


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

    twisted_mul = tuple(twisted_mul[i * n : (i + 1) * n] for i in range(n))
    return hopf_of_tables(twisted_mul, A.unit, twisted_delta, C.counit, endo, sr)


def opposite(h: HomHopfAlgebra) -> HomHopfAlgebra:
    """Reverse the multiplication (``h.algebra.op``); the coalgebra and the
    stored antipode are carried over unchanged (the result is consumed as
    algebra-plus-coalgebra data and need not satisfy the antipode law)."""
    return HomHopfAlgebra(HomBialgebra(h.algebra.op, h.coalgebra), h.antipode_rows)


def opposite_hopf(h: HomHopfAlgebra) -> HomHopfAlgebra:
    """The opposite with the inverse antipode, which is again Hom-Hopf."""
    return HomHopfAlgebra(opposite(h).bialgebra, rows(h.antipode_inverse))


def co_opposite(h: HomHopfAlgebra) -> HomHopfAlgebra:
    """The co-opposite ``delta(a) = a_2 (x) a_1`` (``h.coalgebra.op``) with the
    inverse antipode, which is again Hom-Hopf."""
    return HomHopfAlgebra(HomBialgebra(h.algebra, h.coalgebra.op), rows(h.antipode_inverse))


def dual(h: HomHopfAlgebra) -> HomHopfAlgebra:
    """The dual Hom-Hopf algebra on the dual basis.

    Multiplication pairs against the twisted coproduct,
    ``(f.g)(h) = f(alpha^-2(h_1)) g(alpha^-2(h_2))``, the coproduct against
    the twisted product, ``<delta(f), h (x) k> = f(alpha^-2(hk))``, the
    structure map is the transpose of the inverse structure map (its inverse
    the transpose of alpha), and the antipode is the transpose of the antipode.
    """
    n = h.dim
    a2 = h.power(-2)
    # row (i, j): the coefficients of e^i e^j; row i: those of delta(e^i)
    products = transpose_rows(compose(h.coalgebra.comul_rows, (a2, a2)))
    coproducts = transpose_rows(compose(h.algebra.mul_map, a2))
    return hopf_of_tables(
        tuple(products[i * n : (i + 1) * n] for i in range(n)),
        h.counit,
        coproducts,
        h.unit,
        transpose(h.alpha_inverse),
        transpose_rows(h.antipode_rows),
        transpose(h.alpha),
    )


# ---------------------------------------------------------------------------
# smash products and cotwists


def smash_product(A, H, act: ModuleAction, check: bool = True) -> HomAlgebra:
    """The smash product algebra on ``A (x) H`` for a module-algebra action:
    ``(a # h)(b # k) = a (alpha_H^-2(h_1) . alpha_A^-1(b)) # alpha_H^-1(h_2) k``."""
    alg = algebra_of(A)
    bi = bialgebra_of(H)
    na, nh = alg.dim, bi.dim
    _product_dim(na, nh)
    if check:
        report = check_module_algebra(act)
        if not report.ok:
            raise PreconditionFailed("action is not a module-algebra action", report)
    ah_i1, ah_i2, aa_i1 = bi.power(-1), bi.power(-2), alg.power(-1)
    action, delta = act.act_cells, bi.coalgebra.comul_rows
    # acted[b] maps h_1 to alpha_H^-2(h_1) . alpha_A^-1(b), and tau[h][b] is
    # (alpha_H^-2(h_1) . alpha_A^-1(b)) (x) alpha_H^-1(h_2)
    acted = [[bilinear_apply(action, x, y) for x in ah_i2] for y in aa_i1]
    tau = [[apply_kron(row, ah_i1, v) for row in acted] for v in delta]
    mul = _pair_product(alg.mul_cells, transpose(bi.algebra.mul_cells), tau)
    unit = _dense_kron((alg.unit,), (bi.unit,))[0]
    alpha, inverse = _product_alpha(alg, bi)
    return HomAlgebra(na * nh, mul, unit, alpha, alpha_inverse=inverse)


def comodule_cotwist(co: ComoduleCoaction, check: bool = True) -> Matrix:
    """The cotwisting map induced by a comodule Hom-coalgebra structure:
    ``phi(h (x) c) = alpha_C^-1(c_(0)) (x) alpha_H^-1(h) alpha_H^-2(c_(1))``.

    The structure-map power applied to ``c_(1)`` must be the coactor's (a
    carrier power there would not typecheck when the two maps differ).
    """
    coactor = bialgebra_of(co.coactor)
    carrier = coalgebra_of(co.carrier)
    nh, nc = coactor.dim, carrier.dim
    ac_i1, ah_i1, ah_i2 = carrier.power(-1), coactor.power(-1), coactor.power(-2)
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
    _product_dim(nc, nd)
    if check:
        report = check_cotwisting(Cc, Dc, phi)
        if not report.ok:
            raise PreconditionFailed("not a cotwisting map", report)
    ec, ed, phi_rows = basis(nc), basis(nd), rows(phi)
    # (id (x) phi (x) id)(delta_C (x) delta_D) in two steps: phi_d maps
    # c_2 (x) d to phi(c_2 (x) d_1) (x) d_2, and c (x) d goes to c_1 (x) phi_d(c_2 (x) d)
    phi_d = compose(kron(ec, Dc.comul_rows), (phi_rows, ed))
    comul = compose(kron(Cc.comul_rows, ed), (ec, phi_d))
    counit = _dense_kron((Cc.counit,), (Dc.counit,))[0]
    alpha, inverse = _product_alpha(Cc, Dc)
    return HomCoalgebra(nc * nd, comul, counit, alpha, alpha_inverse=inverse)


# ---------------------------------------------------------------------------
# bicrossproduct


def bicross_hypotheses(A, H, act: ModuleAction, co: ComoduleCoaction) -> CheckReport:
    """The three compatibility hypotheses between the action of H on A and
    the coaction of A on H, each reported separately."""
    alg = algebra_of(A)
    coa = coalgebra_of(A)
    bi = bialgebra_of(H)
    na, nh = alg.dim, bi.dim
    ah_i1, aa_i1 = bi.power(-1), alg.power(-1)
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

    aa_i2, aa_i3 = A.power(-2), A.power(-3)
    smash = smash_product(A, H, act, check=False)
    coalg = cotwist_coproduct(A, H, comodule_cotwist(co, check=False), check=False)

    # S(a (x) h) = (1 (x) S_H alpha_H^-2(h_(0))) (S_A(alpha_A^-2(a) alpha_A^-3(h_(1))) (x) 1)
    co_terms, mc, amul = co.coact_terms, smash.mul_cells, A.algebra.mul_cells
    # h -> 1 (x) S_H(alpha_H^-2(h)) and a -> S_A(a) (x) 1
    sh_i2 = compose(H.power(-2), H.antipode_rows)
    s_h = kron((A.algebra.unit_vector,), sh_i2)
    s_then_1 = kron(A.antipode_rows, (H.algebra.unit_vector,))
    s_a = [[apply_map(s_then_1, bilinear_apply(amul, a, x)) for x in aa_i3] for a in aa_i2]
    antipode = tuple(
        linear_combination(
            nd, ((v, bilinear_apply(mc, s_h[h0], s_a[a][h1])) for h0, h1, v in co_terms[hh])
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
    ainv1 = H.power(-1)
    s_ainv2 = compose(H.power(-2), H.antipode_rows)  # S(alpha^-2(e_h))
    hmul, h_terms = H.algebra.mul_cells, H.coalgebra.comul_terms

    def acts(h, a):
        return linear_combination(
            n,
            (
                (c, bilinear_apply(hmul, bilinear_apply(hmul, s_ainv2[h1], ainv1[a]), ainv1[h2]))
                for h1, h2, c in h_terms[h]
            ),
        )

    act = tuple(tuple(acts(h, a) for a in range(n)) for h in range(n))

    # rho(h) applies alpha^-1 (x) second[h_2] to h_12 (x) h_11, the co-opposite
    # coproduct of h_1; second[h_2] maps h_11 to S(alpha^-2(h_11)) alpha^-1(h_2)
    op_delta = H.coalgebra.comul_op_rows
    second = [tuple(bilinear_apply(hmul, x, y) for x in s_ainv2) for y in ainv1]
    coact = tuple(
        linear_combination(
            n * n, ((c, apply_kron(ainv1, second[h2], op_delta[h1])) for h1, h2, c in h_terms[h])
        )
        for h in range(n)
    )
    return hop, ModuleAction(hop, H, act), ComoduleCoaction(H, hop, coact)


def self_bicross(H: HomHopfAlgebra, check: bool = True) -> HomHopfAlgebra:
    """The bicrossproduct on ``H (x) H_op``, cross-checked against the
    closed product and coproduct formulas stated for it."""
    n = H.dim
    nd = _product_dim(n, n)
    hop, act, co = self_bicross_data(H)
    built = bicrossproduct(H, hop, act, co, check=check)

    ainv1, ainv2, ainv3 = (H.power(-k) for k in (1, 2, 3))
    s_ainv4 = compose(H.power(-4), H.antipode_rows)  # S(alpha^-4(e_h))
    e, hmul, Hc = basis(n), H.algebra.mul_cells, H.coalgebra
    h_terms, delta, op_delta = Hc.comul_terms, Hc.comul_rows, Hc.comul_op_rows

    # closed form of the product:
    # (a x h)(b x k) = a[(S(alpha^-4(h_11)) alpha^-2(b)) alpha^-3(h_12)] x k alpha^-1(h_2);
    # dressed[b] maps h_11 (x) h_12 to the bracket, and tau[h][b] is
    # [(S(alpha^-4(h_11)) alpha^-2(b)) alpha^-3(h_12)] (x) alpha^-1(h_2)
    dressed = [
        [bilinear_apply(hmul, bilinear_apply(hmul, x, b), y) for x in s_ainv4 for y in ainv3]
        for b in ainv2
    ]
    twice = compose(delta, (delta, e))  # h_11 (x) h_12 (x) h_2
    tau = [[apply_kron(row, ainv1, v) for row in dressed] for v in twice]
    if _pair_product(hmul, hmul, tau) != built.algebra.mul_cells:
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
    closed_comul = cotwist_coproduct(H, H, closed_phi, check=False).comul_rows
    if closed_comul != built.coalgebra.comul_rows:
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
    _product_dim(na, nh)
    if check:
        report = check_matched_pair(mp)
        if not report.ok:
            raise PreconditionFailed("not a matched pair", report)
    ah_i2, aa_i2 = H.power(-2), A.power(-2)
    left, right = mp.left_cells, mp.right_cells
    h_terms, delta_a = H.coalgebra.comul_terms, A.coalgebra.comul_rows

    # (a (x) h)(b (x) g)
    #   = a (alpha^-2(h_1) -> alpha^-2(b_1)) (x) (alpha^-2(h_2) <- alpha^-2(b_2)) g;
    # lefts[h_1] and rights[h_2] map b_1 and b_2 to the two legs of tau[h][b]
    lefts = [[bilinear_apply(left, x, y) for y in aa_i2] for x in ah_i2]
    rights = [[bilinear_apply(right, x, y) for y in aa_i2] for x in ah_i2]
    tau = [[_legs(terms, lefts, rights, v) for v in delta_a] for terms in h_terms]
    mul = _pair_product(A.algebra.mul_cells, transpose(H.algebra.mul_cells), tau)
    coalg = _tensor_coalgebra(A, H)
    unit = _dense_kron((A.unit,), (H.unit,))[0]
    alg = HomAlgebra(coalg.dim, mul, unit, coalg.alpha, alpha_inverse=coalg.alpha_inverse)

    # the two antipode factors as maps: h -> 1 (x) S_H alpha_H^-1(h), a -> S_A alpha_A^-1(a) (x) 1
    s_h = kron((A.algebra.unit_vector,), compose(H.power(-1), H.antipode_rows))
    s_a = kron(compose(A.power(-1), A.antipode_rows), (H.algebra.unit_vector,))
    antipode = tuple(
        bilinear_apply(alg.mul_cells, s_h[h], s_a[a]) for a in range(na) for h in range(nh)
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
    # e^j > e_h is the sum of c e_h0 over the terms (h0, j, c) of rho(e_h)
    entries = {(j, h, h0): c for h, terms in enumerate(co.coact_terms) for h0, j, c in terms}
    left = pair_cells(rows_from_entries((na, nh, nh), entries), nh)
    # column j of alpha^-2 followed by the action of h is <e^j < h, .>
    acted = [transpose_rows(compose(A.power(-2), plane)) for plane in act.act_cells]
    right = tuple(tuple(columns[j] for columns in acted) for j in range(na))
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
    ainv2, ainv3 = H.power(-2), H.power(-3)
    # hst.power(-k) is transpose(alpha^k): the dual's structure map is transpose(alpha^-1)
    a2t = hst.power(-2)
    s_ainv3 = compose(ainv3, H.antipode_rows)  # rows S(alpha^-3(e_k))
    er, hmul = basis(n), H.algebra.mul_cells
    # shifted[h] maps e_k to alpha^-2(e_k) e_h and times[l] maps f to f e^l
    shifted = [compose(ainv2, rm) for rm in transpose(hmul)]
    times = transpose(hst.algebra.mul_cells)
    # the regular actions on the dual as bilinear maps of (h, f):
    # <f <- h, k> = <f, h alpha^-2(k)> and <h -> f, k> = <f, alpha^-2(k) h>
    right = tuple(transpose_rows(compose(ainv2, lm)) for lm in hmul)
    left = tuple(map(transpose_rows, shifted))
    h_terms = H.coalgebra.comul_terms

    def dressed(j: int, sweedler):
        """The exchange of ``e^j (x) e_k`` for the Sweedler terms of ``k``: the
        sum of ``k_21 (x) [alpha^-3(k_22) -> ((alpha*)^2(e^j) <- S alpha^-3(k_1))]``."""
        pure = []
        for k1, k2, c1 in sweedler:
            acted = bilinear_apply(right, s_ainv3[k1], a2t[j])
            for k21, k22, c2 in h_terms[k2]:
                f = bilinear_apply(left, ainv3[k22], acted)
                pure.append((c1 * c2, kron((er[k21],), (f,))[0]))
        return linear_combination(nd, pure)

    tau = [[dressed(j, sweedler) for sweedler in h_terms] for j in range(n)]
    mul = _pair_product(shifted, times, tau)
    coalg = _tensor_coalgebra(H, hst)
    unit = _dense_kron((H.unit,), (hst.unit,))[0]
    alg = HomAlgebra(coalg.dim, mul, unit, coalg.alpha, alpha_inverse=coalg.alpha_inverse)

    # S(h (x) f) = (1 (x) S*(alpha*(f))) (S^-1(alpha^-1(h)) (x) counit), factor by factor
    counit = hst.algebra.unit_vector  # the counit of H is the unit of its dual
    s_f = kron((H.algebra.unit_vector,), compose(hst.power(-1), hst.antipode_rows))
    s_h = kron(compose(H.power(-1), rows(H.antipode_inverse)), (counit,))
    mc = alg.mul_cells
    antipode = tuple(bilinear_apply(mc, s_f[j], s_h[h]) for h in range(n) for j in range(n))
    return HomHopfAlgebra(HomBialgebra(alg, coalg), antipode)


def canonical_r_matrix(H: HomHopfAlgebra, double: HomHopfAlgebra | None = None) -> RMatrix:
    """The canonical quasitriangular structure on the double:
    ``R = sum_i (1 (x) (alpha^-1)*(e^i)) (x) (S^-1(e_i) (x) counit)``."""
    if double is None:
        double = drinfeld_double(H)
    first = _dense_kron((H.unit,), transpose(H.alpha_inverse))
    second = _dense_kron(H.antipode_inverse, (H.counit,))
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
    _product_dim(na, nb)
    if check:
        report = check_dual_pair(P)
        required = [c for c in report.checks if c.axiom_id != "pairing.mul-comul-right-swapped"]
        if not all(c.passed for c in required):
            raise PreconditionFailed("not a dual pair", CheckReport(tuple(required)))
    aa_i1, aa_i2, bb_i1, bb_i2 = A.power(-1), A.power(-2), B.power(-1), B.power(-2)
    sa_inv, sb_inv = A.antipode_inverse, B.antipode_inverse
    e_a, e_b = basis(na), basis(nb)

    def paired(weight: Matrix, first: bool, a_then: SparseMatrix, b_then: SparseMatrix) -> Matrix:
        """The map on ``A (x) B`` that pairs one Sweedler leg of ``a`` with one of
        ``b`` through ``weight`` and keeps the other two, then applies
        ``a_then (x) b_then``: ``a_1 (x) <a_2, b_1> b_2`` if ``first``, else
        ``a_2 (x) <a_1, b_2> b_1``, the same through the co-opposites."""
        ca, cb = (A.coalgebra, B.coalgebra) if first else (A.coalgebra.op, B.coalgebra.op)
        legs, w = ca.comul_rows, rows(weight)
        # through[b] maps the paired leg of a to the kept leg of b
        through = [compose(w, plane, b_then) for plane in pair_cells(cb.comul_rows, nb)]
        return tuple(
            dense(apply_kron(a_then, through[b], legs[a])) for a in range(na) for b in range(nb)
        )

    # <alpha_A(a), b> and <S_A^-1 alpha_A(a), b>
    plain, inverse = mat_compose(A.alpha, gram), mat_compose(mat_compose(A.alpha, sa_inv), gram)
    r1 = paired(plain, True, aa_i1, bb_i1)
    r2 = paired(plain, False, aa_i1, bb_i1)
    r1_inv = mat_inverse(r1)
    r2_inv = mat_inverse(r2)
    closed_r1_inv = paired(inverse, True, aa_i1, bb_i1)
    closed_r2_inv = paired(inverse, False, aa_i1, bb_i1)
    inverses_match = (closed_r1_inv == r1_inv, closed_r2_inv == r2_inv)
    twisting = mat_compose(mat_compose(dense_rows(flip(nb, na)), r2_inv), r1)

    # a' (x) b goes to <S^-1 alpha_A(a'_1), b_2> a'_2 (x) b_1, and then a'_2 (x) b_1 to
    # <a'_22, alpha_B^-1(b_11)> a'_21 (x) b_12
    weight2 = mat_compose(gram, transpose(B.alpha_inverse))  # <a, alpha_B^-1(b)>
    middles = rows(mat_compose(paired(inverse, False, e_a, e_b), paired(weight2, True, e_a, e_b)))
    # first[a] maps a'_21 to a alpha_A^-2(a'_21), second[b'] maps b_12 to alpha_B^-2(b_12) b'
    first = [compose(aa_i2, lm) for lm in A.algebra.mul_cells]
    second = [compose(bb_i2, rm) for rm in transpose(B.algebra.mul_cells)]
    tau = [[middles[ap * nb + b] for ap in range(na)] for b in range(nb)]
    # a_1 (x) b_2 (x) a_2 (x) b_1: the tensor coproduct with B's co-opposite
    coalg = _tensor_coalgebra(A, B.coalgebra.op)
    antipode = compose(kron(A.antipode_rows, rows(sb_inv)), flip(na, nb), rows(twisting))
    unit = _dense_kron((A.unit,), (B.unit,))[0]
    mul = _pair_product(first, second, tau)
    alg = HomAlgebra(coalg.dim, mul, unit, coalg.alpha, alpha_inverse=coalg.alpha_inverse)
    hopf = HomHopfAlgebra(HomBialgebra(alg, coalg), antipode)
    return PairedDouble(hopf, twisting, inverses_match)


# ---------------------------------------------------------------------------
# Heisenberg doubles and cocycle twists


def regular_action(h: HomHopfAlgebra) -> ModuleAction:
    """The left regular action of the dual: ``f -> b = f(b_2) b_1``."""
    n = h.dim
    # e^j -> e_b is the sum of c e_b1 over the Sweedler terms (b1, j, c) of e_b
    terms = h.coalgebra.comul_terms
    entries = {(j, b, b1): c for b, sweedler in enumerate(terms) for b1, j, c in sweedler}
    return ModuleAction(dual(h), h, pair_cells(rows_from_entries((n,) * 3, entries), n))


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
    # basis vector q here is the double's order[q]; the flip f is an involution
    f = flip(n, n)
    order = [q % n * n + q // n for q in range(n * n)]

    def moved(v: Vector) -> Vector:
        return tuple(v[p] for p in order)

    op = transpose(d.algebra.mul_cells)
    mul = tuple(compose([op[pr][pc] for pc in order], f) for pr in order)
    comul = compose([d.coalgebra.comul_op_rows[p] for p in order], (f, f))
    alpha, alpha_inverse = (tuple(moved(m[p]) for p in order) for m in (d.alpha, d.alpha_inverse))
    return HomBialgebra(
        HomAlgebra(d.dim, mul, moved(d.unit), alpha, alpha_inverse=alpha_inverse),
        HomCoalgebra(d.dim, comul, moved(d.counit), alpha, alpha_inverse=alpha_inverse),
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
    ainv1 = bi.power(-1)
    mul = tuple(tuple(apply_map(ainv1, w) for w in row) for row in sigma.products)
    return HomAlgebra(bi.dim, mul, bi.unit, bi.alpha, alpha_inverse=bi.alpha_inverse)


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
