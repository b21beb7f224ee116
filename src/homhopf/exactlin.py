"""Exact rational linear and multilinear algebra on dense nested tuples and
sparse coefficient dicts.

Every value is built from exact rational scalars, ``int | Fraction``:
integral scalars are Python ``int`` and only proper fractions are
``Fraction`` (arithmetic mixes the two exactly, and ``==`` and ``hash``
agree across them).  Vectors are tuples of scalars, matrices are tuples of
row tuples, rank-3 tensors are tuples of matrices.  Three conventions are
fixed package-wide:

* matrices are row-image maps: ``m[i][j]`` is the ``e_j``-coefficient of the
  image of basis vector ``e_i``; maps therefore compose left to right, and
  ``dense(apply_map(rows(m), sparse(v)))[j] == sum_i v[i] * m[i][j]``;
* a multiplication tensor stores ``e_i . e_j = sum_k t[i][j][k] e_k`` and a
  comultiplication tensor stores ``delta(e_i) = sum t[i][j][k] e_j (x) e_k``;
* tensor-product indices flatten row-major: the pair ``(i, j)`` with a
  second factor of dimension ``m`` becomes ``i * m + j``.

The four kernels ``apply_map``, ``apply_kron``, ``bilinear_apply`` and
``tensor_power_product``, and ``linear_combination`` and ``kron`` with them,
take sparse operands and return sparse results.  A sparse vector
(``Sparse``) is the dict ``{index: scalar}`` of the nonzero coefficients of
a vector, with the vector's length as ``dim``; a sparse matrix (``rows``) is
the tuple of its sparse rows, and a sparse rank-3 tensor (``cells``) the
tuple of the sparse matrices of its first-index planes.  No result keeps a
coefficient that cancelled to zero, so two sparse vectors of the same
length are equal exactly when their dense vectors (``dense``) are.  The
operand tables of structure constants belong to the domain types of
``structures``, which build each once, on first use; callers feed kernel
results straight into further kernels and make a result dense only where it
fills a dense structure tensor or a failure witness.  The kernels check only
that the lengths of their operands fit together.

Sweedler sums and tensor legs are enumerated here and nowhere else:
``terms`` lists the nonzero Sweedler terms of a comultiplication or coaction
tensor, ``apply_kron`` applies one map to each leg of a vector on a pair
space, and ``tensor_power_product`` multiplies two vectors of a tensor power
leg by leg.  ``compose`` chains ``apply_map`` and ``apply_kron`` over the
rows of a map, so a composite such as ``mu o (S (x) id) o delta`` is one
call.

All functions are pure.  Dense values are nested tuples and hashable;
sparse vectors are dicts, so they are not.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain
from typing import Iterable, Iterator

from .errors import DimensionMismatch, SingularMatrixError

Scalar = int | Fraction
Vector = tuple[Scalar, ...]
Matrix = tuple[Vector, ...]
Tensor3 = tuple[Matrix, ...]

ZERO = 0
ONE = 1


def _normal(q: Fraction) -> Scalar:
    """``q`` as an ``int`` when it is integral."""
    return q.numerator if q.denominator == 1 else q


def _quotient(x: Scalar, p: Scalar) -> Scalar:
    """``x / p``, exactly: the package's only division (``int / int`` would be a float)."""
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
        return _normal(Fraction(_integer(num), d))
    return _integer(text)


def format_scalar(value: Scalar) -> str:
    """Canonical text form of a scalar: ``p`` for integers, else ``p/q``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# vectors


def basis_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vector_from_entries(n: int, entries: dict[int, Scalar]) -> Vector:
    return tuple(entries.get(i, ZERO) for i in range(n))


def nonzeros(v: Iterable[Scalar]) -> Iterator[tuple[int, Scalar]]:
    """Yield ``(index, value)`` for the nonzero entries of a vector."""
    for i, a in enumerate(v):
        if a:
            yield i, a


# ---------------------------------------------------------------------------
# sparse vectors


class Sparse(dict):
    """The nonzero coefficients ``{index: scalar}`` of a vector of length ``dim``."""

    __slots__ = ("dim",)


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
    """The dense matrix of the sparse matrix ``m``."""
    return tuple(dense(row) for row in m)


def cells(t: Tensor3) -> SparseTensor3:
    """The nonzero entries of each cell ``t[i][j]`` of the rank-3 tensor ``t``."""
    return tuple(rows(plane) for plane in t)


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


def identity(n: int) -> Matrix:
    return tuple(basis_vector(n, i) for i in range(n))


def matrix_from_entries(rows: int, cols: int, entries: dict[tuple[int, int], Scalar]) -> Matrix:
    return tuple(tuple(entries.get((i, j), ZERO) for j in range(cols)) for i in range(rows))


def matrix_from_rows(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(_normal(Fraction(x)) for x in row) for row in rows)


def mat_shape(m: Matrix) -> tuple[int, int]:
    return len(m), len(m[0]) if m else 0


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def apply_map(m: SparseMatrix, v: Sparse) -> Sparse:
    """Image of the vector ``v`` under the row-image map ``m``."""
    if v.dim != len(m):
        raise _mismatch(f"{len(m)}-row map", v.dim)
    out = _empty(m[0].dim)
    for i, c in v.items():
        for j, a in m[i].items():
            out[j] = out.get(j, ZERO) + c * a
    return _zero_free(out)


def mat_compose(f: Matrix, g: Matrix) -> Matrix:
    """Row-image composition: apply ``f`` first, then ``g`` (matrix product f.g)."""
    if len(f[0]) != len(g):
        raise DimensionMismatch(
            f"cannot compose {mat_shape(f)} with {mat_shape(g)}: inner dimensions differ"
        )
    gr = rows(g)
    return tuple(dense(apply_map(gr, row)) for row in rows(f))


def mat_inverse(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination over the rationals.

    Raises SingularMatrixError carrying the rank found when no inverse exists.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionMismatch(f"cannot invert non-square {mat_shape(m)} matrix")
    a = [list(row) for row in m]
    inv = [list(row) for row in identity(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv[rank], inv[pivot] = inv[pivot], inv[rank]
        p = a[rank][col]
        if p != ONE:
            a[rank] = [_quotient(x, p) for x in a[rank]]
            inv[rank] = [_quotient(x, p) for x in inv[rank]]
        for r in range(n):
            if r != rank and a[r][col]:
                c = a[r][col]
                a[r] = [x - c * y for x, y in zip(a[r], a[rank])]
                inv[r] = [x - c * y for x, y in zip(inv[r], inv[rank])]
        rank += 1
    if rank != n:
        raise SingularMatrixError(f"singular matrix: rank {rank} of {n}", rank=rank)
    return tuple(tuple(row) for row in inv)


def alpha_power(alpha: Matrix, k: int) -> Matrix:
    """Exact k-th power of a structure map.

    Negative powers require invertibility and raise SingularMatrixError
    otherwise.  ``alpha_power(a, 0)`` is the identity.
    """
    n = len(alpha)
    if k == 0:
        return identity(n)
    if k < 0:
        return alpha_power(mat_inverse(alpha), -k)
    if k == 1:
        return alpha
    return mat_compose(alpha_power(alpha, k - 1), alpha)


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


def tensor3_from_entries(
    shape: tuple[int, int, int], entries: dict[tuple[int, int, int], Scalar]
) -> Tensor3:
    n1, n2, n3 = shape
    return tuple(
        tuple(tuple(entries.get((i, j, k), ZERO) for k in range(n3)) for j in range(n2))
        for i in range(n1)
    )


def tensor3_shape(t: Tensor3) -> tuple[int, int, int]:
    return len(t), len(t[0]) if t else 0, len(t[0][0]) if t and t[0] else 0


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


def tensor_power_product(mul: SparseTensor3, legs: int, u: Sparse, v: Sparse) -> Sparse:
    """The componentwise product ``(x_1 (x) x_2 ...)(y_1 (x) y_2 ...) = x_1 y_1 (x) x_2 y_2 ...``
    on the ``legs``-fold tensor power of the algebra with multiplication ``mul``.
    """
    n = len(mul)
    size = n**legs
    if u.dim != size or v.dim != size:
        raise _mismatch(f"{legs}-leg tensor power of dimension {n}", u.dim, v.dim)
    out = Sparse(_power_product(mul, size // n, u.items(), v.items()))
    out.dim = size
    return _zero_free(out)


Pairs = Iterable[tuple[int, Scalar]]


def _power_product(mul: SparseTensor3, weight: int, u: Pairs, v: Pairs) -> dict[int, Scalar]:
    """The product of ``u`` and ``v``, given by their nonzero ``(index, scalar)``
    pairs on a tensor power whose first leg has place value ``weight``, as
    ``{index: coefficient}``.

    The pairs are grouped by first leg, so the rest of the legs multiply once
    per pair of first legs with a nonzero product, not once per pair of pairs.
    """
    out: dict[int, Scalar] = {}
    if weight == 1:
        for a, cu in u:
            row = mul[a]
            for b, cv in v:
                c = cu * cv
                for k, ck in row[b].items():
                    out[k] = out.get(k, ZERO) + c * ck
        return out
    v_legs = _by_first_leg(v, weight).items()
    for a, u_rest in _by_first_leg(u, weight).items():
        row = mul[a]
        for b, v_rest in v_legs:
            if not row[b]:
                continue
            rest = _power_product(mul, weight // len(mul), u_rest, v_rest)
            for k, ck in row[b].items():
                base = k * weight
                for r, cr in rest.items():
                    out[base + r] = out.get(base + r, ZERO) + ck * cr
    return out


def _by_first_leg(pairs: Pairs, weight: int) -> dict[int, list[tuple[int, Scalar]]]:
    """``pairs`` grouped by first leg: ``{first leg: [(rest index, coefficient), ...]}``."""
    groups: dict[int, list[tuple[int, Scalar]]] = {}
    for p, c in pairs:
        a, r = divmod(p, weight)
        groups.setdefault(a, []).append((r, c))
    return groups


def terms(t: Tensor3) -> tuple[tuple[tuple[int, int, Scalar], ...], ...]:
    """For each first index ``i``, the nonzero ``(j, k, t[i][j][k])`` in row-major order.

    On a comultiplication tensor ``terms(comul)[i]`` lists the Sweedler terms
    ``(i_1, i_2, coefficient)`` of ``delta(e_i)``; on a coaction tensor the
    terms ``(m_(0), c_(1), coefficient)`` of ``rho(e_i)``.  Computing the table
    once per tensor keeps zero entries out of every Sweedler sum.
    """
    return tuple(
        tuple((j, k, c) for j, row in enumerate(plane) for k, c in nonzeros(row)) for plane in t
    )


def flatten_pair(row_of_rows: Matrix) -> Vector:
    """Flatten an n2 x n3 coefficient block into a vector on the product space."""
    return tuple(chain.from_iterable(row_of_rows))


def comul_matrix(comul: Tensor3) -> Matrix:
    """The comultiplication tensor as a row-image map ``H -> H (x) H``."""
    return tuple(flatten_pair(plane) for plane in comul)


def comul_tensor(m: Matrix, n2: int) -> Tensor3:
    """The inverse of ``comul_matrix``: a map to a pair space whose second
    factor has dimension ``n2``, as a rank-3 tensor."""
    return tuple(tuple(row[p : p + n2] for p in range(0, len(row), n2)) for row in m)
