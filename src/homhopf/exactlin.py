"""Exact rational linear and multilinear algebra on immutable nested tuples.

Every value is built from `fractions.Fraction` scalars: vectors are tuples
of scalars, matrices are tuples of row tuples, rank-3 tensors are tuples of
matrices.  Three conventions are fixed package-wide:

* matrices are row-image maps: ``m[i][j]`` is the ``e_j``-coefficient of the
  image of basis vector ``e_i``; maps therefore compose left to right, and
  ``apply_map(m, v)[j] == sum_i v[i] * m[i][j]``;
* a multiplication tensor stores ``e_i . e_j = sum_k t[i][j][k] e_k`` and a
  comultiplication tensor stores ``delta(e_i) = sum t[i][j][k] e_j (x) e_k``;
* tensor-product indices flatten row-major: the pair ``(i, j)`` with a
  second factor of dimension ``m`` becomes ``i * m + j``.

Sweedler sums and tensor legs are enumerated here and nowhere else:
``terms`` lists the nonzero Sweedler terms of a comultiplication or coaction
tensor, ``apply_kron`` applies one map to each leg of a vector on a pair
space, and ``tensor_power_product`` multiplies two vectors of a tensor power
leg by leg.

All functions are pure and all results are hashable, so they are safe to
share between threads and to memoize.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator

from .errors import DimensionMismatch, SingularMatrixError

Scalar = Fraction
Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
Tensor3 = tuple[Matrix, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_scalar(text: str) -> Fraction:
    """Parse an exact rational written as ``p`` or ``p/q`` (q > 0 after reduction)."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in scalar {text!r}")
        return Fraction(int(num), d)
    return Fraction(int(text))


def format_scalar(value: Fraction) -> str:
    """Canonical text form of a scalar: ``p`` for integers, else ``p/q``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# vectors


def zeros(n: int) -> Vector:
    return (ZERO,) * n


def basis_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vector_from_entries(n: int, entries: dict[int, Fraction]) -> Vector:
    return tuple(entries.get(i, ZERO) for i in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c: Fraction, v: Vector) -> Vector:
    if c == ONE:
        return v
    return tuple(c * a for a in v)


# Dense tensors and fresh accumulators hold the shared ZERO object in every
# untouched entry, so the scans below test identity with it before the much
# slower Fraction truth test; a zero computed by arithmetic still fails the
# truth test.


def nonzeros(v: Iterable[Fraction]) -> Iterator[tuple[int, Fraction]]:
    """Yield ``(index, value)`` for the nonzero entries of a vector."""
    for i, a in enumerate(v):
        if a is not ZERO and a:
            yield i, a


def add_scaled(acc: list[Fraction], c: Fraction, v: Vector) -> None:
    """In-place ``acc += c * v`` skipping zero entries."""
    if not c:
        return
    for i, a in enumerate(v):
        if a is not ZERO and a:
            acc[i] += c * a


def linear_combination(n: int, scaled: Iterable[tuple[Fraction, Vector]]) -> Vector:
    """The length-``n`` vector ``sum c * v`` over the ``(c, v)`` pairs of ``scaled``."""
    acc = [ZERO] * n
    for c, v in scaled:
        add_scaled(acc, c, v)
    return tuple(acc)


# ---------------------------------------------------------------------------
# matrices


def identity(n: int) -> Matrix:
    return tuple(basis_vector(n, i) for i in range(n))


def matrix_from_entries(rows: int, cols: int, entries: dict[tuple[int, int], Fraction]) -> Matrix:
    return tuple(tuple(entries.get((i, j), ZERO) for j in range(cols)) for i in range(rows))


def matrix_from_rows(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def mat_shape(m: Matrix) -> tuple[int, int]:
    return len(m), len(m[0]) if m else 0


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def apply_map(m: Matrix, v: Vector) -> Vector:
    """Image of the vector ``v`` under the row-image map ``m``."""
    if len(v) != len(m):
        raise DimensionMismatch(f"cannot apply {mat_shape(m)} map to length-{len(v)} vector")
    acc = [ZERO] * len(m[0])
    for i, c in nonzeros(v):
        add_scaled(acc, c, m[i])
    return tuple(acc)


def mat_compose(f: Matrix, g: Matrix) -> Matrix:
    """Row-image composition: apply ``f`` first, then ``g`` (matrix product f.g)."""
    if len(f[0]) != len(g):
        raise DimensionMismatch(
            f"cannot compose {mat_shape(f)} with {mat_shape(g)}: inner dimensions differ"
        )
    cols = len(g[0])
    out = []
    for row in f:
        acc = [ZERO] * cols
        for k, c in nonzeros(row):
            add_scaled(acc, c, g[k])
        out.append(tuple(acc))
    return tuple(out)


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
            a[rank] = [x / p for x in a[rank]]
            inv[rank] = [x / p for x in inv[rank]]
        for r in range(n):
            if r != rank and a[r][col]:
                c = a[r][col]
                a[r] = [x - c * y for x, y in zip(a[r], a[rank])]
                inv[r] = [x - c * y for x, y in zip(inv[r], inv[rank])]
        rank += 1
    if rank != n:
        raise SingularMatrixError(f"singular matrix: rank {rank} of {n}", rank=rank)
    return tuple(tuple(row) for row in inv)


def is_invertible(m: Matrix) -> bool:
    try:
        mat_inverse(m)
    except SingularMatrixError:
        return False
    return True


@lru_cache(maxsize=None)
def _cached_inverse(m: Matrix) -> Matrix:
    return mat_inverse(m)


@lru_cache(maxsize=None)
def alpha_power(alpha: Matrix, k: int) -> Matrix:
    """Exact k-th power of a structure map, memoized per ``(alpha, k)``.

    Negative powers require invertibility and raise SingularMatrixError
    otherwise.  ``alpha_power(a, 0)`` is the identity.
    """
    n = len(alpha)
    if k == 0:
        return identity(n)
    if k < 0:
        return alpha_power(_cached_inverse(alpha), -k)
    if k == 1:
        return alpha
    return mat_compose(alpha_power(alpha, k - 1), alpha)


def kron(f: Matrix, g: Matrix) -> Matrix:
    """Kronecker product under row-major pair indexing ``p = i * dim(g) + j``."""
    out = []
    for frow in f:
        for grow in g:
            out.append(tuple(ZERO if a is ZERO or b is ZERO else a * b for a in frow for b in grow))
    return tuple(out)


def apply_kron(f: Matrix, g: Matrix, v: Vector) -> Vector:
    """``apply_map(kron(f, g), v)`` without building ``kron(f, g)``.

    ``v`` lives on the flattened pair space of the two sources, so this
    applies ``f`` to the first tensor leg and ``g`` to the second.
    """
    m, q = len(g), len(g[0])
    if len(v) != len(f) * m:
        raise DimensionMismatch(
            f"cannot apply {mat_shape(f)} (x) {mat_shape(g)} to length-{len(v)} vector"
        )
    acc = [ZERO] * (len(f[0]) * q)
    for p, c in nonzeros(v):
        i, j = divmod(p, m)
        grow = g[j]
        for a, ca in nonzeros(f[i]):
            base = a * q
            cca = c * ca
            for b, cb in nonzeros(grow):
                acc[base + b] += cca * cb
    return tuple(acc)


# ---------------------------------------------------------------------------
# rank-3 tensors


def tensor3_from_entries(
    shape: tuple[int, int, int], entries: dict[tuple[int, int, int], Fraction]
) -> Tensor3:
    n1, n2, n3 = shape
    return tuple(
        tuple(tuple(entries.get((i, j, k), ZERO) for k in range(n3)) for j in range(n2))
        for i in range(n1)
    )


def tensor3_shape(t: Tensor3) -> tuple[int, int, int]:
    return len(t), len(t[0]) if t else 0, len(t[0][0]) if t and t[0] else 0


def bilinear_apply(t: Tensor3, x: Vector, y: Vector) -> Vector:
    """Evaluate the bilinear map ``t`` on a pair of vectors: sum x_i y_j t[i][j][.]."""
    n1, n2, n3 = tensor3_shape(t)
    if len(x) != n1 or len(y) != n2:
        raise DimensionMismatch(
            f"bilinear map of shape {(n1, n2, n3)} applied to lengths {len(x)}, {len(y)}"
        )
    acc = [ZERO] * n3
    for i, xi in nonzeros(x):
        ti = t[i]
        for j, yj in nonzeros(y):
            add_scaled(acc, xi * yj, ti[j])
    return tuple(acc)


def tensor_power_product(mul: Tensor3, legs: int, u: Vector, v: Vector) -> Vector:
    """The componentwise product ``(x_1 (x) x_2 ...)(y_1 (x) y_2 ...) = x_1 y_1 (x) x_2 y_2 ...``
    on the ``legs``-fold tensor power of the algebra with multiplication ``mul``.
    """
    n = len(mul)
    size = n**legs
    if len(u) != size or len(v) != size:
        raise DimensionMismatch(
            f"{legs}-leg tensor power of dimension {n} applied to lengths {len(u)}, {len(v)}"
        )

    weights = [n**k for k in reversed(range(legs))]

    def legs_of(p: int) -> tuple[int, ...]:
        return tuple(p // w % n for w in weights)

    products: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
    v_terms = [(legs_of(q), cv) for q, cv in nonzeros(v)]
    acc = [ZERO] * size
    for p, cu in nonzeros(u):
        p_legs = legs_of(p)
        for q_legs, cv in v_terms:
            partial = [(0, cu * cv)]
            for pair in zip(p_legs, q_legs):
                leg = products.get(pair)
                if leg is None:
                    leg = products[pair] = tuple(nonzeros(mul[pair[0]][pair[1]]))
                partial = [(base * n + k, c * ck) for base, c in partial for k, ck in leg]
            for k, c in partial:
                acc[k] += c
    return tuple(acc)


def terms(t: Tensor3) -> tuple[tuple[tuple[int, int, Fraction], ...], ...]:
    """For each first index ``i``, the nonzero ``(j, k, t[i][j][k])`` in row-major order.

    On a comultiplication tensor ``terms(comul)[i]`` lists the Sweedler terms
    ``(i_1, i_2, coefficient)`` of ``delta(e_i)``; on a coaction tensor the
    terms ``(m_(0), c_(1), coefficient)`` of ``rho(e_i)``.  Computing the table
    once per tensor keeps zero entries out of every Sweedler sum.
    """
    return tuple(
        tuple(
            (j, k, c)
            for j, row in enumerate(plane)
            for k, c in enumerate(row)
            if c is not ZERO and c
        )
        for plane in t
    )


def flatten_pair(row_of_rows: Matrix) -> Vector:
    """Flatten an n2 x n3 coefficient block into a vector on the product space."""
    return tuple(chain.from_iterable(row_of_rows))


def mul_matrix(mul: Tensor3) -> Matrix:
    """The multiplication tensor as a row-image map ``H (x) H -> H``."""
    return tuple(chain.from_iterable(mul))


def comul_matrix(comul: Tensor3) -> Matrix:
    """The comultiplication tensor as a row-image map ``H -> H (x) H``."""
    return tuple(flatten_pair(plane) for plane in comul)


def comul_tensor(m: Matrix, n2: int) -> Tensor3:
    """The inverse of ``comul_matrix``: a map to a pair space whose second
    factor has dimension ``n2``, as a rank-3 tensor."""
    return tuple(tuple(row[p : p + n2] for p in range(0, len(row), n2)) for row in m)
