"""Builders for derived Hom-Hopf objects.

Each construction assembles exact structure constants for a composite object:
linear duals, opposites, smash products, cotwist coproducts, the
closed-form Drinfel'd double and its R-matrix, the mirrored double and
Heisenberg doubles.  The cocycle twist and the canonical cocycles
(``twist``), the Yau twist (``yau``), the bicrossproducts (``bicross``),
the double crossed product of a matched pair (``matchedpair``), the double
of a dual pair (``pairing``) and the precondition laws live apart, each
compiled only by a command that runs it; the first three still resolve
here on first use (``__getattr__``), where the benchmark's tracer spans them.

Tensor-factor ordering is fixed per construction: a double lives on
``H_op (x) H_dual``, the tilde variant on ``(A_op)_dual (x) A``, and every
product space flattens row-major (first factor major).  Preconditions are
verified before building unless ``check=False`` (outputs are then
unvalidated); an output above ``MAX_DIM`` dimensions is refused before
either.  A product on a pair space comes from ``_pair_product`` and an
exchange map that swaps the two inner legs; a coproduct on a pair space
comes from ``cotwist_coproduct`` and a cotwisting map.
"""

from __future__ import annotations

from importlib import import_module

from .errors import InvalidParameter, PreconditionFailed
from .exactlin import (
    SparseMatrix, SparseTensor3, apply_kron, basis, bilinear_apply, compose, flip, kron, linear_combination,
    pair_cells, rows_from_entries, transpose, transpose_rows,
)
from .structures import (
    MAX_DIM, HomAlgebra, HomBialgebra, HomCoalgebra, HomHopfAlgebra, ModuleAction, RMatrix, algebra_of,
    bialgebra_of, coalgebra_of, hopf_of_tables,
)

# The constructions the benchmark's tracer spans here, each with its module.
_SPANNED = {"canonical_cocycles": "twist", "cocycle_twist": "twist", "yau_twist": "yau"}


def __getattr__(name):  # PEP 562: a spanned construction, imported from its module on first use
    if name in _SPANNED:
        return getattr(import_module(f".{_SPANNED[name]}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def cotwist_coproduct(C, D, phi: SparseMatrix, check: bool = True) -> HomCoalgebra:
    """The twisted coproduct on ``C (x) D``:
    ``delta(c (x) d) = c_1 (x) d_1^phi (x) c_2^phi (x) d_2``."""
    Cc = coalgebra_of(C)
    Dc = coalgebra_of(D)
    nc, nd = Cc.dim, Dc.dim
    _product_dim(nc, nd)
    if check:
        from .matchedpair import check_cotwisting

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
