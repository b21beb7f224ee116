"""Exact rational linear and multilinear algebra on sparse coefficient dicts.

Every value is built from exact rational scalars, ``int | Fraction``:
integral scalars are Python ``int`` and only proper fractions are
``Fraction`` (arithmetic mixes the two exactly, and ``==`` and ``hash``
agree across them; ``fractions`` is loaded only where one is made).  A
sparse vector (``Sparse``) is the dict ``{index: scalar}`` of the nonzero
coefficients of a vector, with the vector's length
as ``dim``.  Every linear map is a ``SparseMatrix``, the tuple of the sparse
images of the basis vectors (its rows), and a bilinear map is a
``SparseTensor3``, the tuple of the sparse matrices of its first-index
planes (its cells).  Three conventions are fixed package-wide:

* maps are row-image maps: ``m[i]`` is the image of basis vector ``e_i``,
  and ``m[i][j]`` its ``e_j``-coefficient; maps therefore compose left to
  right (``compose``);
* a multiplication table stores ``e_i . e_j`` as the cell ``t[i][j]`` and a
  comultiplication ``delta(e_i)`` as the row ``t[i]`` on the pair space;
* tensor-product indices flatten row-major: the pair ``(i, j)`` with a
  second factor of dimension ``m`` becomes ``i * m + j``.

The kernels ``apply_map``, ``apply_kron``, ``bilinear_apply`` and
``tensor_power_products``, and ``linear_combination``, ``kron``,
``transpose_rows`` and ``mat_inverse`` with them, take sparse operands and
return sparse results.  No result keeps a coefficient that cancelled to
zero, so two sparse vectors of the same length are equal exactly when their
dense vectors (``dense``) are.  Tables are built sparse
(``rows_from_entries``, the kernels) and are the fields of the domain types
of ``structures``; a unit and a counit are maps too, from and to the
one-dimensional space.  Only the two sides of a failure witness are dense
tuples.  ``rows``, ``cells``, ``dense_rows``, ``dense_cells`` and
``flatten_pair`` convert between tables and the dense tensors of the file
records of ``fileformat``, and ``sparse`` and ``dense`` between sparse and
dense vectors.  The kernels check
only that the lengths of their operands fit together.

Tensor legs are enumerated here: ``terms`` lists the nonzero Sweedler terms
of the rows of a comultiplication or coaction, ``apply_kron`` applies one map
to each leg of a vector on a pair space, and ``tensor_power_products``
multiplies vectors leg by leg in a tensor product of bilinear maps, each leg
with its own left, right and output dimension.  So is each two-leg Sweedler
sum ``sum c (F[x] (x) G[y])(v)``: the product of ``sum c e_x (x) e_y`` and
``v`` for the legs ``(F, G)``.  Summed term by term elsewhere are only
``comodule-coalgebra.comultiplicative``, ``bicross.action-coaction-exchange``,
``TwoCocycle.products`` and the closed forms of the self-bicrossproduct, the
double and the bicrossproduct antipode.  ``compose`` chains ``apply_map`` and
``apply_kron`` over the rows of a map, so a composite such as
``mu o (S (x) id) o delta`` is one call.  ``product_cases`` and
``square_cases`` read, from the supports alone, at which basis indices the
sides of a law can be nonzero, so that it is swept only there.

All functions are pure.  Dense values are nested tuples; sparse vectors are
dicts that hash by their items.  Both are hashable.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial, reduce
from itertools import chain, product
from math import prod
from operator import or_
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import DimensionMismatch, SingularMatrixError

if TYPE_CHECKING:
    from fractions import Fraction

Scalar = "int | Fraction"
Vector = tuple[Scalar, ...]
Matrix = tuple[Vector, ...]
Tensor3 = tuple[Matrix, ...]

ZERO = 0
ONE = 1


def _normal(q: Scalar) -> Scalar:
    """``q`` as an ``int`` when it is integral."""
    return q.numerator if q.denominator == 1 else q


def _quotient(x: Scalar, p: Scalar) -> Scalar:
    """``x / p``, exactly: the package's only division (``int / int`` would be a float).
    An exact quotient, such as the inverse of a unit pivot, stays an ``int``."""
    if not x % p:
        return x // p
    from fractions import Fraction
    return _normal(Fraction(x) / p)


def _integer(text: str) -> int:
    """``int(text)`` for ASCII digits after an optional ``-`` (``int`` also takes ``+``, ``_``)."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_scalar(text: str) -> Scalar:
    """Parse an exact rational written as ``p`` or ``p/q`` (q > 0 after reduction)."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        d = _integer(den)
        if d == 0:
            raise ValueError(f"zero denominator in scalar {text!r}")
        from fractions import Fraction
        return _normal(Fraction(_integer(num), d))
    return _integer(text)


def format_scalar(value: Scalar) -> str:
    """Canonical text form of a scalar: ``p`` for integers, else ``p/q``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# vectors


def nonzeros(v: Iterable[Scalar]) -> Iterator[tuple[int, Scalar]]:
    """Yield ``(index, value)`` for the nonzero entries of a vector."""
    for i, a in enumerate(v):
        if a:
            yield i, a


# ---------------------------------------------------------------------------
# sparse vectors


class Sparse(dict):
    """The nonzero coefficients ``{index: scalar}`` of a vector of length ``dim``.

    Its hash is that of its items, so a table of sparse vectors hashes as the
    domain types' fields must; a vector is not changed once it is built."""

    __slots__ = ("dim",)

    def __hash__(self):
        return hash(frozenset(self.items()))


SparseMatrix = tuple[Sparse, ...]
SparseTensor3 = tuple[SparseMatrix, ...]


def _empty(dim: int) -> Sparse:
    """The zero vector of length ``dim``, to accumulate a result in."""
    out = Sparse()
    out.dim = dim
    return out


def _zero_free(out: Sparse) -> Sparse:
    """``out`` without the coefficients that cancelled to zero."""
    if not all(out.values()):
        for i in [i for i, c in out.items() if not c]:
            del out[i]
    return out


def sparse(v: Vector) -> Sparse:
    """The nonzero entries of the vector ``v``."""
    out = Sparse(nonzeros(v))
    out.dim = len(v)
    return out


def dense(v: Sparse) -> Vector:
    """The dense vector of the sparse vector ``v``: the one place where a
    sparse value is spread over a dense list."""
    out = [ZERO] * v.dim
    for i, c in v.items():
        out[i] = c
    return tuple(out)


def basis(n: int) -> SparseMatrix:
    """The standard basis of an ``n``-dimensional space: the rows of the identity map."""
    out = []
    for i in range(n):
        e = _empty(n)
        e[i] = ONE
        out.append(e)
    return tuple(out)


def rows(m: Matrix) -> SparseMatrix:
    """The nonzero entries of each row of the matrix ``m``."""
    return tuple(sparse(row) for row in m)


def dense_rows(m: SparseMatrix) -> Matrix:
    """The dense matrix of the sparse matrix ``m``; its zero rows are one shared tuple."""
    zero = (ZERO,) * m[0].dim if m else ()
    return tuple(dense(row) if row else zero for row in m)


def rows_from_entries(shape: tuple[int, ...], entries: dict) -> SparseMatrix:
    """The rows of the matrix or rank-3 tensor of ``shape`` with the nonzero ``entries``
    ``{index tuple: scalar}``, a tensor ``t`` as the map ``e_i -> sum t[i][j][k] e_j (x) e_k``."""
    n1, *rest = shape
    out = tuple(_empty(prod(rest)) for _ in range(n1))
    for (i, *idx), c in sorted(entries.items()):
        if c:
            out[i][idx[0] * rest[-1] + idx[-1] if len(idx) == 2 else idx[0]] = c
    return out


def pair_cells(m: SparseMatrix, n2: int) -> SparseTensor3:
    """The map ``m`` to a pair space whose second factor has dimension ``n2`` as the
    cells of a rank-3 tensor: ``t[i][j][k]`` is the ``e_j (x) e_k`` coefficient of ``m[i]``."""
    cut = (((v.dim // n2, n2), {divmod(p, n2): c for p, c in v.items()}) for v in m)
    return tuple(rows_from_entries(*args) for args in cut)


def cells(t: Tensor3) -> SparseTensor3:
    """The nonzero entries of each cell ``t[i][j]`` of the rank-3 tensor ``t``."""
    return tuple(rows(plane) for plane in t)


def dense_cells(t: SparseTensor3) -> Tensor3:
    """The dense rank-3 tensor of the cells ``t``; its zero rows are shared plane by plane."""
    return tuple(map(dense_rows, t))


def linear_combination(n: int, scaled: Iterable[tuple[Scalar, Sparse]]) -> Sparse:
    """The length-``n`` vector ``sum c * v`` over the ``(c, v)`` pairs of ``scaled``."""
    out = _empty(n)
    for c, v in scaled:
        if c:
            for i, a in v.items():
                out[i] = out.get(i, ZERO) + c * a
    return _zero_free(out)


def _mismatch(what: str, *lengths: int) -> DimensionMismatch:
    return DimensionMismatch(f"{what} applied to lengths {', '.join(map(str, lengths))}")


# ---------------------------------------------------------------------------
# matrices


def transpose(t: SparseTensor3) -> SparseTensor3:
    """The cells ``t`` with the first two indices exchanged: ``transpose(t)[j][i] is t[i][j]``."""
    return tuple(zip(*t)) if t else ()


def transpose_rows(m: SparseMatrix) -> SparseMatrix:
    """The transpose of the sparse matrix ``m``."""
    entries = {(j, i): c for i, row in enumerate(m) for j, c in row.items()}
    return rows_from_entries((m[0].dim, len(m)), entries)


def flip(n1: int, n2: int) -> SparseMatrix:
    """The flip ``e_i (x) e_j -> e_j (x) e_i`` from an n1*n2 to an n2*n1 pair space."""
    e = basis(n1 * n2)
    return tuple(e[p % n2 * n1 + p // n2] for p in range(n1 * n2))


def apply_map(m: SparseMatrix, v: Sparse) -> Sparse:
    """Image of the vector ``v`` under the row-image map ``m``."""
    if v.dim != len(m):
        raise _mismatch(f"{len(m)}-row map", v.dim)
    out = _empty(m[0].dim)
    for i, c in v.items():
        for j, a in m[i].items():
            out[j] = out.get(j, ZERO) + c * a
    return _zero_free(out)


def mat_inverse(m: SparseMatrix) -> SparseMatrix:
    """Exact inverse by Gauss-Jordan elimination over the rationals, on sparse rows.

    Raises SingularMatrixError carrying the rank found when no inverse exists.
    """
    n = len(m)
    if any(row.dim != n for row in m):
        raise DimensionMismatch(f"cannot invert non-square ({n}, {m[0].dim}) matrix")
    a, inv, rank = list(m), list(basis(n)), 0  # row r of the elimination is a[r] | inv[r]
    for col in range(n):
        pivot = next((r for r in range(rank, n) if col in a[r]), None)
        if pivot is None:
            continue
        for rs in (a, inv):
            rs[rank], rs[pivot] = rs[pivot], rs[rank]
        scale = _quotient(ONE, a[rank][col])
        a[rank], inv[rank] = (linear_combination(n, ((scale, v),)) for v in (a[rank], inv[rank]))
        for r in range(n):
            if r != rank and col in a[r]:
                c = -a[r][col]
                a[r], inv[r] = (
                    linear_combination(n, ((ONE, rs[r]), (c, rs[rank]))) for rs in (a, inv)
                )
        rank += 1
    if rank != n:
        raise SingularMatrixError(f"singular matrix: rank {rank} of {n}", rank=rank)
    entries = {(i, j): _normal(x) for i, v in enumerate(inv) for j, x in v.items()}
    return rows_from_entries((n, n), entries)


def kron(f: SparseMatrix, g: SparseMatrix) -> SparseMatrix:
    """Kronecker product under row-major pair indexing ``p = i * dim(g) + j``."""
    q = g[0].dim
    out = []
    for frow in f:
        for grow in g:
            row = _empty(frow.dim * q)
            for a, ca in frow.items():
                base = a * q
                for b, cb in grow.items():
                    row[base + b] = ca * cb
            out.append(row)
    return tuple(out)


def apply_kron(f: SparseMatrix, g: SparseMatrix, v: Sparse) -> Sparse:
    """``apply_map(kron(f, g), v)`` without building ``kron(f, g)``.

    ``v`` lives on the flattened pair space of the two sources, so this
    applies ``f`` to the first tensor leg and ``g`` to the second.
    """
    m = len(g)
    if v.dim != len(f) * m:
        raise _mismatch(f"{len(f)}-row (x) {m}-row map", v.dim)
    q = g[0].dim
    out = _empty(f[0].dim * q)
    for p, c in v.items():
        i, j = divmod(p, m)
        grow = g[j].items()
        for a, ca in f[i].items():
            base = a * q
            cca = c * ca
            for b, cb in grow:
                out[base + b] = out.get(base + b, ZERO) + cca * cb
    return _zero_free(out)


def compose(m: SparseMatrix, *maps) -> SparseMatrix:
    """The rows of ``m`` sent through each of ``maps`` in turn: the row-image
    composition ``m``, then ``maps[0]``, then ``maps[1]`` ...

    A factor ``(f, g)`` is ``kron(f, g)``, applied leg by leg (``apply_kron``)
    and never built.  A zero row stays zero without a kernel call.
    """
    for f in maps:
        if isinstance(f[0], Sparse):
            dim, step = f[0].dim, partial(apply_map, f)
        else:
            dim, step = f[0][0].dim * f[1][0].dim, partial(apply_kron, *f)
        m = tuple(step(v) if v else _empty(dim) for v in m)
    return m


# ---------------------------------------------------------------------------
# rank-3 tensors


def bilinear_apply(t: SparseTensor3, x: Sparse, y: Sparse) -> Sparse:
    """Evaluate the bilinear map ``t`` on a pair of vectors: sum x_i y_j t[i][j][.]."""
    if x.dim != len(t) or y.dim != len(t[0]):
        raise _mismatch(f"bilinear map on {len(t)} x {len(t[0])}", x.dim, y.dim)
    out = _empty(t[0][0].dim)
    ys = y.items()
    for i, xi in x.items():
        ti = t[i]
        for j, yj in ys:
            c = xi * yj
            for k, a in ti[j].items():
                out[k] = out.get(k, ZERO) + c * a
    return _zero_free(out)


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


Pairs = Iterable[tuple[int, Scalar]]


def _power_product(muls, u, v, out: dict) -> dict[int, Scalar]:
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
                    out[k] = out.get(k, ZERO) + c * ck
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
                    out[base + r] = out.get(base + r, ZERO) + ck * cr
    return out


def _by_first_leg(pairs: Pairs, dims: tuple[int, ...]):
    """``pairs`` of a vector on a tensor product whose legs have the dimensions
    ``dims``, grouped leg by leg: ``{first leg: the rest, grouped}``, down to
    ``(last leg, coefficient)`` pairs."""
    if len(dims) == 1:
        return pairs
    weight = prod(dims[1:])
    groups: dict[int, list[tuple[int, Scalar]]] = {}
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


def terms(m: SparseMatrix, n2: int) -> tuple[tuple[tuple[int, int, Scalar], ...], ...]:
    """For each row of a map ``m`` to a pair space with second factor of dimension
    ``n2``, the nonzero ``(j, k, coefficient)`` of ``e_j (x) e_k``, row-major.

    On a comultiplication ``terms(comul_rows, n)[i]`` lists the Sweedler terms
    ``(i_1, i_2, coefficient)`` of ``delta(e_i)``; on a coaction the terms
    ``(m_(0), c_(1), coefficient)`` of ``rho(e_i)``.  Computing the table once
    per map keeps zero entries out of every Sweedler sum.
    """
    return tuple(tuple((p // n2, p % n2, c) for p, c in sorted(row.items())) for row in m)


def flatten_pair(row_of_rows: Matrix) -> Vector:
    """Flatten an n2 x n3 coefficient block into a vector on the product space."""
    return tuple(chain.from_iterable(row_of_rows))
