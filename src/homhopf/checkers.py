"""The sweeps and the Hopf-level checkers: the algebra, coalgebra, bialgebra
and antipode laws and quasitriangularity, which ``check`` runs,
``check_morphism``, which compares two objects through a map, and the
comodule axioms (``check_comodule``), which the comodule laws of sections 2
(``laws``) and 4 (``twist``) both start from.  The data laws live with their
section of the paper and sweep by ``_sweep`` too.  A command that runs no
checker (``export``, the closed constructions) compiles none of this module.

Every checker quantifies over basis multi-indices (multilinearity reduces the
universally quantified identities to basis cases), compares exact vectors,
and returns a CheckReport.  A failing identity is data, not an error: the
report entry records the lexicographically first failing index together with
both sides' full coefficient vectors.

An axiom is two composed maps (``exactlin.compose``) compared row by row by
``_sweep``: row ``r`` of each side is the basis case at the ``r``-th
multi-index of the law's index space in row-major order, so the first
differing row is the first failing index.  A product law is instead a lazy
stream of per-case sides through the same ``_sweep``, which stops at the
first failure and holds no n^3- or n^2-row map.  It reads its cases and
sides from the same operands (a Sweedler sum from a table built once) and
visits only the cases where a side has a nonzero term: both sides of every
other case are zero.  ``product_cases`` and ``square_cases`` read those
cases from the supports alone.  Every three-index law, and by
``_morphism_products`` the multiplicativity of alpha, of the counit into
``k``, of the antipode and of a morphism, comes from ``_product_law``
(``product_cases``).  Every law ``v(x y) = u(x) v(y)`` with a product in a
tensor product of bilinear maps on the right comes from
``_multiplicative_cases`` (``square_cases``): comultiplicativity,
comodule-algebra multiplicativity, ``module-coalgebra.comultiplicative`` and
the bicrossproduct hypotheses ``action-comultiplicative`` and
``coaction-multiplicative``.  ``tensor_power_products`` multiplies vectors
leg by leg in a tensor product of bilinear maps, each leg with its own left,
right and output dimension; so is each two-leg Sweedler sum
``sum c (F[x] (x) G[y])(v)``: the product of ``sum c e_x (x) e_y`` and ``v``
for the legs ``(F, G)``.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from itertools import product, tee
from math import prod
from operator import or_
from typing import Iterator

from .errors import DimensionMismatch
from .exactlin import (
    Sparse, SparseMatrix, SparseTensor3, _empty, _mismatch, _zero_free, apply_kron, apply_map, basis,
    bilinear_apply, compose, dense, kron, pair_cells, transpose,
)
from .structures import (
    CheckEntry, CheckReport, ComoduleCoaction, HomHopfAlgebra, RMatrix, Witness, _require, algebra_of,
    bialgebra_of, coalgebra_of,
)

# ---------------------------------------------------------------------------
# case streams


def tensor_power_products(muls, us, vs, pairs=None) -> Iterator[Sparse]:
    """The componentwise products ``(x_1 (x) x_2 ...)(y_1 (x) y_2 ...) = m_1(x_1, y_1) (x) ...``
    in the tensor product of the bilinear maps ``muls = (m_1, m_2, ...)``, one per leg, each
    with its own left, right and output dimension (``(mul,) * k`` for a tensor power of one
    algebra): each vector of ``us`` times each of ``vs``, row-major, or only at the index
    pairs ``pairs``, each made as it is read.  Each vector is grouped by legs once, not
    once per product.
    """
    sides = ((us, tuple(map(len, muls))), (vs, tuple(len(m[0]) for m in muls)))
    for ws, dims in sides:
        if bad := [w.dim for w in ws if w.dim != prod(dims)]:
            raise _mismatch(f"tensor product of dimensions {' x '.join(map(str, dims))}", *bad)
    us, vs = ([_by_first_leg(w.items(), dims) for w in ws] for ws, dims in sides)
    out_dim = prod(m[0][0].dim for m in muls)
    pairs = product(range(len(us)), range(len(vs))) if pairs is None else pairs
    products = (_power_product(muls, us[a], vs[b], _empty(out_dim)) for a, b in pairs)
    return map(_zero_free, products)


def _power_product(muls, u, v, out: dict) -> dict:
    """``out`` plus the product of ``u`` and ``v``, grouped by ``_by_first_leg``,
    in the tensor product of the bilinear maps ``muls``, as ``{index: coefficient}``.

    The rest of the legs multiply once per pair of first legs with a nonzero
    product, not once per pair of terms.
    """
    mul, rest_muls = muls[0], muls[1:]
    if not rest_muls:
        for a, cu in u:
            row = mul[a]
            for b, cv in v:
                c = cu * cv
                for k, ck in row[b].items():
                    out[k] = out.get(k, 0) + c * ck
        return out
    weight, v_legs = prod(m[0][0].dim for m in rest_muls), v.items()
    for a, u_rest in u.items():
        row = mul[a]
        for b, v_rest in v_legs:
            if not row[b]:
                continue
            rest = _power_product(rest_muls, u_rest, v_rest, {})
            for k, ck in row[b].items():
                base = k * weight
                for r, cr in rest.items():
                    out[base + r] = out.get(base + r, 0) + ck * cr
    return out


def _by_first_leg(pairs, dims: tuple[int, ...]):
    """The ``(index, coefficient)`` pairs of a vector on a tensor product whose
    legs have the dimensions ``dims``, grouped leg by leg: ``{first leg: the
    rest, grouped}``, down to ``(last leg, coefficient)`` pairs."""
    if len(dims) == 1:
        return pairs
    weight = prod(dims[1:])
    groups: dict[int, list] = {}
    for p, c in pairs:
        a, r = divmod(p, weight)
        groups.setdefault(a, []).append((r, c))
    if len(dims) == 2:
        return groups
    return {a: _by_first_leg(rest, dims[1:]) for a, rest in groups.items()}


def _union(masks, indices) -> int:
    """The union of the bit sets ``masks[i]`` over ``indices``."""
    return reduce(or_, map(masks.__getitem__, indices), 0)


def _bits(mask: int):
    """The members of the bit set ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _hits(filled, ys: SparseMatrix) -> list[int]:
    """The bit sets ``{c : t(e_x, ys[c]) has a nonzero term}``, one per ``x``, of
    a bilinear map ``t`` whose row ``x`` has nonzero cells exactly at ``filled[x]``."""
    cols: defaultdict[int, int] = defaultdict(int)  # the c with y in the support of ys[c]
    for c, v in enumerate(ys):
        for y in v:
            cols[y] |= 1 << c
    return [_union(cols, ys_of_x) for ys_of_x in filled]


def product_cases(left, right):
    """The cases ``(a, b, c)`` of a law with sides ``s(f[a], u[b][c])`` and
    ``t(v[a][b], g[c])``, for ``left = (s, f, u)`` and ``right = (t, v, g)``,
    where a side has a nonzero term, read from the filled cells of ``s`` and
    ``t`` and the supports of the vectors: in lexicographic order, as pairs
    ``((a, b), cs)``, a full ``cs`` as ``range``.  Both sides of every other
    case are zero."""
    (s, f, u), (t, v, g) = left, right
    t_filled = [[y for y, cell in enumerate(row) if cell] for row in t]
    s_filled = t_filled if s is t else [[y for y, cell in enumerate(row) if cell] for row in s]
    right_hits, left_hits, n = _hits(t_filled, g), {}, len(g)
    full = (1 << n) - 1
    for a, b in product(range(len(v)), range(len(u))):
        cs = _union(right_hits, v[a][b])
        if cs != full:
            if b not in left_hits:  # built only where the right side leaves a gap
                left_hits[b] = _hits(s_filled, u[b])
            cs |= _union(left_hits[b], f[a])
        if cs:
            yield (a, b), range(n) if cs == full else _bits(cs)


def _filled(t) -> list[int]:
    """The bit sets ``{j : t[i][j] is nonzero}`` of the rows ``i`` of the cells ``t``."""
    return [sum(1 << j for j, cell in enumerate(row) if cell) for row in t]


def square_cases(muls, us, vs):
    """The cases ``(i, j)`` of a law ``vs(m1[i][j]) = us[i] vs[j]``, its right
    side a product in the tensor product of the bilinear maps ``muls = (m1, m2)``,
    in lexicographic order, where a side has a nonzero term: where ``m1[i][j]``
    is filled, or terms ``e_x1 (x) e_x2`` of ``us[i]`` and ``e_y1 (x) e_y2`` of
    ``vs[j]`` fill ``m1[x1][y1]`` and ``m2[x2][y2]``; both sides are zero elsewhere."""
    filled = _filled(muls[0])  # each table's filled cells are read once
    filled2 = filled if muls[1] is muls[0] else _filled(muls[1])
    n, q = len(muls[1]), len(muls[1][0])  # the second leg's left and right dimensions
    supports = [sum(1 << p for p in v) for v in vs]
    for i, u in enumerate(us):
        # the bit set of the terms e_y1 (x) e_y2 whose products with a term of u fill cells
        reach = reduce(or_, (filled2[p % n] << y * q for p in u for y in _bits(filled[p // n])), 0)
        js = filled[i] | sum(1 << j for j, s in enumerate(supports) if reach & s)
        yield from ((i, j) for j in _bits(js))


# ---------------------------------------------------------------------------
# sweeps


def make_entry(axiom_id: str, passed: bool, index=(), lhs=(), rhs=()) -> CheckEntry:
    """A report entry; failures always carry a witness (possibly empty)."""
    if passed:
        return CheckEntry(axiom_id, True)
    return CheckEntry(axiom_id, False, Witness(tuple(index), tuple(lhs), tuple(rhs)))


def merge_reports(*reports: CheckReport) -> CheckReport:
    checks: list[CheckEntry] = []
    for r in reports:
        checks.extend(r.checks)
    return CheckReport(tuple(checks))


def _sweep(axiom_id: str, shape, lhs=None, rhs=None) -> CheckEntry:
    """Compare the two sides of a law case by case, recording the first
    failure with both sides made dense.

    Either ``lhs`` and ``rhs`` are two maps on the index space ``shape``: row
    ``r`` of each is the case at the ``r``-th multi-index of ``shape`` in
    row-major order, so on ``(n, n)`` row ``i * n + j`` is the case ``(i, j)``,
    and on ``()`` a one-row map is the one case ``()``.  Or ``shape`` is a
    stream of ``(index, lhs, rhs)`` cases, read up to the first failure.
    """
    if lhs is None:
        cases = shape
    else:
        size = prod(shape)
        if len(lhs) != size or len(rhs) != size:
            raise DimensionMismatch(
                f"{axiom_id}: maps of {len(lhs)} and {len(rhs)} rows on {size} cases"
            )
        cases = zip(product(*map(range, shape)), lhs, rhs)
    for idx, left, right in cases:
        if left.dim != right.dim:
            raise DimensionMismatch(
                f"{axiom_id} at {idx}: sides of lengths {left.dim} and {right.dim}"
            )
        if left != right:
            return CheckEntry(axiom_id, False, Witness(idx, dense(left), dense(right)))
    return CheckEntry(axiom_id, True)


def _multiplicative_cases(muls, us, vs):
    """The cases ``((i, j), vs(m1[i][j]), us[i] vs[j])`` of a law whose right side
    is a product in the tensor product of the bilinear maps ``muls = (m1, m2)``,
    at the cases of ``square_cases``, each product formed as the sweep reads it.
    A coproduct is multiplicative by ``((mul, mul), delta, delta)``."""
    cases, pairs = tee(square_cases(muls, us, vs))
    products = tensor_power_products(muls, us, vs, pairs)
    return (((i, j), apply_map(vs, muls[0][i][j]), w) for (i, j), w in zip(cases, products))


def _product_law(left, right):
    """The cases ``((a, b, c), s(f[a], u[b][c]), t(v[a][b], g[c]))`` of the law
    with ``left = (s, f, u)`` and ``right = (t, v, g)``, ``s`` and ``t`` bilinear
    maps, at the cases of ``product_cases``: both sides of the others are zero.
    Cases and sides are read from the same operands."""
    (s, f, u), (t, v, g) = left, right
    return (
        ((a, b, c), bilinear_apply(s, f[a], u[b][c]), bilinear_apply(t, v[a][b], g[c]))
        for (a, b), cs in product_cases(left, right)
        for c in cs
    )


def _morphism_products(phi: SparseMatrix, xc: SparseTensor3, yc: SparseTensor3):
    """The cases ``((i, j), phi(x_i x_j), phi(x_i) phi(x_j))`` of the law that
    ``phi`` is multiplicative, products read from ``xc`` and ``yc``: the product
    law of the bilinear map ``(phi,)`` at ``(e_0, x_i x_j)``."""
    law = _product_law(((phi,), basis(1), xc), (yc, (phi,), phi))
    return (((i, j), lhs, rhs) for (_, i, j), lhs, rhs in law)


# ---------------------------------------------------------------------------
# checkers


def check_hom_algebra(obj) -> CheckReport:
    """Unital Hom-associativity: alpha multiplicativity, twisted units and
    the Hom-associative law alpha(a)(bc) = (ab)alpha(c)."""
    A = algebra_of(obj)
    n = A.dim
    mc, m, ar, e, unit = A.mul_cells, A.mul_map, A.alpha, basis(n), A.unit
    checks = (
        # alpha(e_i e_j) against alpha(e_i) alpha(e_j)
        _sweep("algebra.alpha-multiplicative", _morphism_products(ar, mc, mc)),
        _sweep("algebra.alpha-fixes-unit", (), compose(unit, ar), unit),
        _sweep("algebra.left-unit", (n,), compose(kron(unit, e), m), ar),
        _sweep("algebra.right-unit", (n,), compose(kron(e, unit), m), ar),
        _sweep("algebra.hom-associative", _product_law((mc, ar, mc), (mc, mc, ar))),
    )
    return CheckReport(checks)


def check_hom_coalgebra(obj) -> CheckReport:
    """Counital Hom-coassociativity of a coalgebra."""
    C = coalgebra_of(obj)
    n = C.dim
    ar, e, eps, cm = C.alpha, basis(n), C.counit, C.comul_rows
    checks = (
        _sweep("coalgebra.counit-alpha", (n,), compose(ar, eps), eps),
        _sweep("coalgebra.alpha-comultiplicative", (n,), compose(ar, cm), compose(cm, (ar, ar))),
        _sweep("coalgebra.left-counit", (n,), compose(cm, (eps, e)), ar),
        _sweep("coalgebra.right-counit", (n,), compose(cm, (e, eps)), ar),
        _sweep("coalgebra.hom-coassociative", (n,), compose(cm, (cm, ar)), compose(cm, (ar, cm))),
    )
    return CheckReport(checks)


def check_hom_bialgebra(obj) -> CheckReport:
    """Comultiplication and counit are morphisms of Hom-algebras (the counit into ``k``)."""
    B = bialgebra_of(obj)
    mc, unit = B.algebra.mul_cells, B.algebra.unit
    cm, eps = B.coalgebra.comul_rows, B.coalgebra.counit
    checks = (
        # delta(e_i e_j) against delta(e_i) delta(e_j) in the tensor-square algebra
        _sweep("bialgebra.comul-multiplicative", _multiplicative_cases((mc, mc), cm, cm)),
        _sweep("bialgebra.comul-unit", (), compose(unit, cm), kron(unit, unit)),
        # counit(e_i e_j) against counit(e_i) counit(e_j)
        _sweep("bialgebra.counit-multiplicative", _morphism_products(eps, mc, (basis(1),))),
        _sweep("bialgebra.counit-unit", (), compose(unit, eps), basis(1)),
    )
    return CheckReport(checks)


def check_antipode(H: HomHopfAlgebra) -> CheckReport:
    """Antipode identities plus the derived anti-(co)morphism properties."""
    n = H.dim
    A, C = H.algebra, H.coalgebra
    mc, m, ar, S, e = A.mul_cells, A.mul_map, A.alpha, H.antipode_rows, basis(n)
    cm, cm_op, eps, eta = C.comul_rows, C.comul_op_rows, C.counit, A.unit
    counit_unit = compose(eps, eta)  # h -> counit(h) 1
    checks = (
        _sweep("antipode.commutes-with-alpha", (n,), compose(ar, S), compose(S, ar)),
        _sweep("antipode.left", (n,), compose(cm, (S, e), m), counit_unit),  # S(h_1) h_2
        _sweep("antipode.right", (n,), compose(cm, (e, S), m), counit_unit),  # h_1 S(h_2)
        # delta(S(h)) against S(h_2) (x) S(h_1)
        _sweep("antipode.anti-comultiplicative", (n,), compose(S, cm), compose(cm_op, (S, S))),
        # S(e_i e_j) against S(e_j) S(e_i), from the transposed table (H.op inverts alpha)
        _sweep("antipode.anti-multiplicative", _morphism_products(S, mc, transpose(mc))),
        _sweep("antipode.preserves-counit", (n,), compose(S, eps), eps),
    )
    return CheckReport(checks)


def run_hopf_suite(H: HomHopfAlgebra) -> CheckReport:
    """Full chain: algebra, coalgebra, bialgebra compatibility, antipode."""
    return merge_reports(
        check_hom_algebra(H),
        check_hom_coalgebra(H),
        check_hom_bialgebra(H),
        check_antipode(H),
    )


def check_morphism(prefix: str, X, Y, phi: SparseMatrix) -> CheckReport:
    """The row-image map ``phi: X -> Y`` as a morphism: ``phi(x y) = phi(x) phi(y)``,
    ``phi(1) = 1``, ``phi alpha_X = alpha_Y phi`` and, of two Hom-Hopf algebras,
    ``(phi (x) phi) delta_X = delta_Y phi`` and ``phi S_X = S_Y phi``.  Products
    and coproducts are made as the sweep reads them; a coproduct case ``(i, j)``
    is the first-leg slice ``j`` of both sides on ``e_i``."""
    A, B = algebra_of(X), algebra_of(Y)
    n, m = A.dim, B.dim
    _require(len(phi) == n and phi[0].dim == m, "morphism shape")
    checks = [
        _sweep(prefix + ".mul", _morphism_products(phi, A.mul_cells, B.mul_cells)),
        _sweep(prefix + ".unit", (), compose(A.unit, phi), B.unit),
        _sweep(prefix + ".alpha", (n,), compose(A.alpha, phi), compose(phi, B.alpha)),
    ]
    if isinstance(X, HomHopfAlgebra) and isinstance(Y, HomHopfAlgebra):
        xd, yd = X.coalgebra.comul_rows, Y.coalgebra.comul_rows
        cut = (pair_cells((apply_kron(phi, phi, xd[i]), apply_map(yd, phi[i])), m) for i in range(n))
        coproducts = (((i, j), lhs[j], rhs[j]) for i, (lhs, rhs) in enumerate(cut) for j in range(m))
        S, T = X.antipode_rows, Y.antipode_rows
        checks += (
            _sweep(prefix + ".comul", coproducts),
            _sweep(prefix + ".antipode", (n,), compose(S, phi), compose(phi, T)),
        )
    return CheckReport(tuple(checks))


def check_quasitriangular(H, R: RMatrix) -> CheckReport:
    """The three quasitriangularity axioms; products are taken componentwise
    in the tensor-square and tensor-cube Hom-algebras."""
    B = bialgebra_of(H)
    n = B.dim
    mc, alpha, rvec, r = B.algebra.mul_cells, B.alpha, R.vector, (R.vector,)
    e, unit = basis(n), B.algebra.unit
    cm, cm_op = B.coalgebra.comul_rows, B.coalgebra.comul_op_rows
    with_unit = kron(e, unit)  # x -> x (x) 1
    unit_with = kron(unit, e)  # x -> 1 (x) x
    r13 = apply_kron(with_unit, e, rvec)
    r23 = apply_kron(unit_with, e, rvec)
    r12 = apply_kron(e, with_unit, rvec)
    # delta^op(h) R against R delta(h), and R_13 R_23 and R_13 R_12
    op_r = tuple(tensor_power_products((mc, mc), cm_op, r))
    r_comul = tuple(tensor_power_products((mc, mc), r, cm))
    r13_r23, r13_r12 = tensor_power_products((mc, mc, mc), (r13,), (r23, r12))
    checks = (
        _sweep("quasitriangular.intertwines-comul", (n,), op_r, r_comul),
        _sweep("quasitriangular.left-hexagon", (), compose(r, (cm, alpha)), (r13_r23,)),
        _sweep("quasitriangular.right-hexagon", (), compose(r, (alpha, cm)), (r13_r12,)),
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
