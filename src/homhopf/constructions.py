"""Builders for derived Hom-Hopf objects.

Each construction assembles exact structure constants for a composite object:
linear duals, opposites, Yau twists, smash products, cotwist coproducts,
Drinfel'd doubles (via the closed multiplication formula and via dual
pairs), Heisenberg doubles, and cocycle twists.  The bicrossproducts and
the double crossed product of a matched pair are built in ``bicross``, and
the preconditions are checked by ``laws``; each is compiled only by a
command that runs it.

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

from .errors import InvalidParameter, NotAMorphism, PreconditionFailed
from .exactlin import (
    SparseMatrix,
    SparseTensor3,
    apply_kron,
    apply_map,
    basis,
    bilinear_apply,
    compose,
    flip,
    kron,
    linear_combination,
    mat_inverse,
    pair_cells,
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
    ModuleAction,
    PairingForm,
    Record,
    RMatrix,
    TwoCocycle,
    algebra_of,
    bialgebra_of,
    coalgebra_of,
    hopf_of_tables,
)

def _product_dim(n1: int, n2: int) -> int:
    """The dimension ``n1 * n2`` of a product space, refused with
    ``InvalidParameter`` above ``MAX_DIM`` before anything on it is built."""
    if n1 * n2 > MAX_DIM:
        raise InvalidParameter(
            f"the construction would be {n1 * n2}-dim, above the limit of {MAX_DIM}"
        )
    return n1 * n2


def _product_alpha(X, Y) -> tuple[SparseMatrix, SparseMatrix]:
    """The structure map ``alpha_X (x) alpha_Y`` of a product space and its
    inverse, the product of the inverses."""
    return kron(X.alpha, Y.alpha), kron(X.alpha_inverse, Y.alpha_inverse)


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
    return cotwist_coproduct(C, D, flip(C.dim, D.dim), check=False)


# ---------------------------------------------------------------------------
# elementary constructions


def yau_twist(classical: HomHopfAlgebra, endo: SparseMatrix) -> HomHopfAlgebra:
    """Twist a classical Hopf algebra (structure map = identity) along a
    bialgebra endomorphism: the product becomes endo(ab), the coproduct
    becomes delta(endo(a)), and endo is the new structure map."""
    n = classical.dim
    if classical.alpha != basis(n):
        raise PreconditionFailed("input must be classical: its structure map must be the identity")
    A, C = classical.algebra, classical.coalgebra
    er, m, sr, su = endo, A.mul_map, classical.antipode_rows, A.unit
    dr, eps = C.comul_rows, C.counit
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
    return HomHopfAlgebra(opposite(h).bialgebra, h.antipode_inverse)


def co_opposite(h: HomHopfAlgebra) -> HomHopfAlgebra:
    """The co-opposite ``delta(a) = a_2 (x) a_1`` (``h.coalgebra.op``) with the
    inverse antipode, which is again Hom-Hopf."""
    return HomHopfAlgebra(HomBialgebra(h.algebra, h.coalgebra.op), h.antipode_inverse)


def dual(h: HomHopfAlgebra) -> HomHopfAlgebra:
    """The dual Hom-Hopf algebra on the dual basis.

    Multiplication pairs against the twisted coproduct,
    ``(f.g)(h) = f(alpha^-2(h_1)) g(alpha^-2(h_2))``, the coproduct against
    the twisted product, ``<delta(f), h (x) k> = f(alpha^-2(hk))``, the unit
    and the counit are the transposes of the counit and the unit, the
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
        transpose_rows(h.counit),
        coproducts,
        transpose_rows(h.unit),
        transpose_rows(h.alpha_inverse),
        transpose_rows(h.antipode_rows),
        transpose_rows(h.alpha),
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
        from .laws import check_module_algebra

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
    alpha, inverse = _product_alpha(alg, bi)
    return HomAlgebra(na * nh, mul, kron(alg.unit, bi.unit), alpha, alpha_inverse=inverse)


def comodule_cotwist(co: ComoduleCoaction, check: bool = True) -> SparseMatrix:
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
    phi = tuple(chain.from_iterable(compose(rho, (ac_i1, s)) for s in second))
    if check:
        from .laws import check_cotwisting

        report = check_cotwisting(coactor, carrier, phi)
        if not report.ok:
            raise PreconditionFailed("induced map is not a cotwisting map", report)
    return phi


def cotwist_coproduct(C, D, phi: SparseMatrix, check: bool = True) -> HomCoalgebra:
    """The twisted coproduct on ``C (x) D``:
    ``delta(c (x) d) = c_1 (x) d_1^phi (x) c_2^phi (x) d_2``."""
    Cc = coalgebra_of(C)
    Dc = coalgebra_of(D)
    nc, nd = Cc.dim, Dc.dim
    _product_dim(nc, nd)
    if check:
        from .laws import check_cotwisting

        report = check_cotwisting(Cc, Dc, phi)
        if not report.ok:
            raise PreconditionFailed("not a cotwisting map", report)
    ec, ed = basis(nc), basis(nd)
    # (id (x) phi (x) id)(delta_C (x) delta_D) in two steps: phi_d maps
    # c_2 (x) d to phi(c_2 (x) d_1) (x) d_2, and c (x) d goes to c_1 (x) phi_d(c_2 (x) d)
    phi_d = compose(kron(ec, Dc.comul_rows), (phi, ed))
    comul = compose(kron(Cc.comul_rows, ed), (ec, phi_d))
    alpha, inverse = _product_alpha(Cc, Dc)
    return HomCoalgebra(nc * nd, comul, kron(Cc.counit, Dc.counit), alpha, alpha_inverse=inverse)


# ---------------------------------------------------------------------------
# doubles


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
    unit = kron(H.unit, hst.unit)
    alg = HomAlgebra(coalg.dim, mul, unit, coalg.alpha, alpha_inverse=coalg.alpha_inverse)

    # S(h (x) f) = (1 (x) S*(alpha*(f))) (S^-1(alpha^-1(h)) (x) counit), factor by factor;
    # the counit of H is the unit of its dual
    s_f = kron(H.unit, compose(hst.power(-1), hst.antipode_rows))
    s_h = kron(compose(H.power(-1), H.antipode_inverse), hst.unit)
    mc = alg.mul_cells
    antipode = tuple(bilinear_apply(mc, s_f[j], s_h[h]) for h in range(n) for j in range(n))
    return HomHopfAlgebra(HomBialgebra(alg, coalg), antipode)


def canonical_r_matrix(H: HomHopfAlgebra, double: HomHopfAlgebra | None = None) -> RMatrix:
    """The canonical quasitriangular structure on the double:
    ``R = sum_i (1 (x) (alpha^-1)*(e^i)) (x) (S^-1(e_i) (x) counit)``."""
    if double is None:
        double = drinfeld_double(H)
    # row i of first is 1 (x) (alpha^-1)*(e^i), row i of second S^-1(e_i) (x) counit
    first = kron(H.unit, transpose_rows(H.alpha_inverse))
    second = kron(H.antipode_inverse, transpose_rows(H.counit))
    return RMatrix(double.bialgebra, compose(transpose_rows(first), second))


def evaluation_pairing(H: HomHopfAlgebra) -> PairingForm:
    """The evaluation pairing on ``(H_op, H_dual)``; the opposite carries the
    inverse antipode so both sides are Hom-Hopf."""
    return PairingForm(opposite_hopf(H), dual(H), basis(H.dim))


class PairedDouble(Record):
    """A double built from a dual pairing, with its twisting map and the
    outcome of comparing the closed-form antipode inverses of the two
    half-braidings against their exact matrix inverses."""

    hopf: HomHopfAlgebra
    twisting: SparseMatrix
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
        from .laws import check_dual_pair

        report = check_dual_pair(P)
        required = [c for c in report.checks if c.axiom_id != "pairing.mul-comul-right-swapped"]
        if not all(c.passed for c in required):
            raise PreconditionFailed("not a dual pair", CheckReport(tuple(required)))
    aa_i1, aa_i2, bb_i1, bb_i2 = A.power(-1), A.power(-2), B.power(-1), B.power(-2)
    sa_inv, sb_inv = A.antipode_inverse, B.antipode_inverse
    e_a, e_b = basis(na), basis(nb)

    def paired(weight: SparseMatrix, first: bool, a_then, b_then) -> SparseMatrix:
        """The map on ``A (x) B`` that pairs one Sweedler leg of ``a`` with one of
        ``b`` through ``weight`` and keeps the other two, then applies
        ``a_then (x) b_then``: ``a_1 (x) <a_2, b_1> b_2`` if ``first``, else
        ``a_2 (x) <a_1, b_2> b_1``, the same through the co-opposites."""
        ca, cb = (A.coalgebra, B.coalgebra) if first else (A.coalgebra.op, B.coalgebra.op)
        legs = ca.comul_rows
        # through[b] maps the paired leg of a to the kept leg of b
        through = [compose(weight, plane, b_then) for plane in pair_cells(cb.comul_rows, nb)]
        return tuple(apply_kron(a_then, t, legs[a]) for a in range(na) for t in through)

    # <alpha_A(a), b> and <S_A^-1 alpha_A(a), b>
    plain, inverse = compose(A.alpha, gram), compose(A.alpha, sa_inv, gram)
    r1 = paired(plain, True, aa_i1, bb_i1)
    r2 = paired(plain, False, aa_i1, bb_i1)
    r1_inv = mat_inverse(r1)
    r2_inv = mat_inverse(r2)
    closed_r1_inv = paired(inverse, True, aa_i1, bb_i1)
    closed_r2_inv = paired(inverse, False, aa_i1, bb_i1)
    inverses_match = (closed_r1_inv == r1_inv, closed_r2_inv == r2_inv)
    twisting = compose(flip(nb, na), r2_inv, r1)

    # a' (x) b goes to <S^-1 alpha_A(a'_1), b_2> a'_2 (x) b_1, and then a'_2 (x) b_1 to
    # <a'_22, alpha_B^-1(b_11)> a'_21 (x) b_12
    weight2 = compose(gram, transpose_rows(B.alpha_inverse))  # <a, alpha_B^-1(b)>
    middles = compose(paired(inverse, False, e_a, e_b), paired(weight2, True, e_a, e_b))
    # first[a] maps a'_21 to a alpha_A^-2(a'_21), second[b'] maps b_12 to alpha_B^-2(b_12) b'
    first = [compose(aa_i2, lm) for lm in A.algebra.mul_cells]
    second = [compose(bb_i2, rm) for rm in transpose(B.algebra.mul_cells)]
    tau = [[middles[ap * nb + b] for ap in range(na)] for b in range(nb)]
    # a_1 (x) b_2 (x) a_2 (x) b_1: the tensor coproduct with B's co-opposite
    coalg = _tensor_coalgebra(A, B.coalgebra.op)
    antipode = compose(kron(A.antipode_rows, sb_inv), flip(na, nb), twisting)
    unit = kron(A.unit, B.unit)
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
    op = transpose(d.algebra.mul_cells)
    mul = tuple(compose([op[pr][pc] for pc in order], f) for pr in order)
    comul = compose([d.coalgebra.comul_op_rows[p] for p in order], (f, f))
    alpha, alpha_inverse = (compose([m[p] for p in order], f) for m in (d.alpha, d.alpha_inverse))
    counit = tuple(d.counit[p] for p in order)
    return HomBialgebra(
        HomAlgebra(d.dim, mul, compose(d.unit, f), alpha, alpha_inverse=alpha_inverse),
        HomCoalgebra(d.dim, comul, counit, alpha, alpha_inverse=alpha_inverse),
    )


def cocycle_twist(B, sigma: TwoCocycle, check: bool = True) -> HomAlgebra:
    """Deform the multiplication by a normal cocycle:
    left twist ``h . k = sigma(h_1, k_1) alpha^-1(h_2 k_2)``, right twist
    ``h . k = alpha^-1(h_1 k_1) sigma(h_2, k_2)``.  ``alpha^-1`` is applied only
    to the nonempty products: an empty one is already the zero of the twist."""
    bi = bialgebra_of(B)
    if sigma.algebra != bi:
        raise PreconditionFailed("cocycle host differs from the algebra being twisted")
    if check:
        from .laws import check_cocycle

        report = check_cocycle(sigma)
        if not report.ok:
            raise PreconditionFailed("not a normal cocycle", report)
    ainv1 = bi.power(-1)
    mul = tuple(tuple(apply_map(ainv1, w) if w else w for w in row) for row in sigma.products)
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
    if double is None:
        double = drinfeld_double(A)
    if double_tilde is None:
        double_tilde = drinfeld_double_tilde(A)
    # rows of the forms: e_h (x) e^j -> counit(e_h) <e^j, alpha(.)> (.)(1) and
    # e^j (x) e_a -> e^j(1) <., alpha(e_a)> counit(.)
    sigma = kron(A.counit, kron(transpose_rows(A.alpha), A.unit))
    eta = kron(transpose_rows(A.unit), kron(A.alpha, transpose_rows(A.counit)))
    return TwoCocycle(double.bialgebra, sigma, "left"), TwoCocycle(double_tilde, eta, "right")
