"""Hom-algebraic domain types and the axiom checkers.

Every checker quantifies over basis multi-indices (multilinearity reduces the
universally quantified identities to basis cases), compares exact vectors,
and returns a CheckReport.  A failing identity is data, not an error: the
report entry records the lexicographically first failing index together with
both sides' full coefficient vectors.

An axiom is two composed maps (``exactlin.compose``) compared row by row by
``_sweep``: row ``r`` of each side is the basis case at the ``r``-th
multi-index of the law's index space in row-major order, so the first
differing row is the first failing index.  Laws over three basis indices
(Hom-associativity, module-algebra multiplicativity, the cocycle condition,
two matched-pair laws and the pairing's product-coproduct laws) are instead
a lazy stream of per-case sides through the same ``_sweep``, which stops at
the first failure; as whole maps they would hold n^3 rows.  A product law
(Hom-associativity, module Hom-associativity, the cocycle condition and the
product laws of a morphism and of the antipode) visits only the cases where
a side has a nonzero term (``exactlin.product_cases``): both sides of every
other case are zero.  ``check_morphism`` compares two objects through a map
``phi: X -> Y`` by the same sweeps.

Structural invariants (shapes, invertibility of structure maps) are enforced
at construction; algebraic axioms are only ever checker verdicts, so broken
objects can be built deliberately to exercise the checkers.

Each domain type holds its structure constants as sparse tables, the operand
tables of the ``exactlin`` kernels, in its fields: ``HomAlgebra.mul_cells``,
``HomCoalgebra.comul_rows``, ``HomHopfAlgebra.antipode_rows``,
``ModuleAction.act_cells``, ``ComoduleCoaction.coact_rows`` and the
``left_cells`` and ``right_cells`` of a ``MatchedPairData``; structure maps,
units, counits and two-index blocks (Gram matrices, R-matrix entries) stay
dense.  ``==``, ``hash``, ``repr`` and ``__match_args__`` read the fields.  The
dense tensors ``mul``, ``comul``, ``antipode``, ``act`` and ``coact`` are
made from the tables on each read, for a file record or a caller that wants
them; ``hopf_algebra`` is the one constructor from dense constants.  Derived
views are cached in the instance ``__dict__`` (``functools.cached_property``;
``power`` keeps one dict of powers), so they are freed with the object:
``mul_map`` and ``unit_vector``; ``comul_op_rows``, ``comul_terms`` and
``counit_map``; ``alpha_rows``, ``alpha_inverse`` and ``power(k)``, the rows
of ``alpha^k``; the dense ``antipode_inverse``; ``coact_terms``; the ``form``
of a ``PairingForm`` or ``TwoCocycle`` and ``TwoCocycle.products``;
``RMatrix.vector``; and the ``left_module`` and ``right_module`` of a
``MatchedPairData``.  ``HomAlgebra.op`` and ``HomCoalgebra.op`` are objects
built from transposed or leg-swapped tables.  A builder that knows the inverse of a structure map
hands it over (``alpha_inverse=``) instead of having it inverted again.

A mirrored law is checked as the one-sided law of an opposite: a left
comodule algebra over ``C`` as a right one over ``C^cop``, and a right
action of ``A`` as a left action of ``A_op``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, product
from math import prod
from operator import attrgetter

from .errors import DimensionMismatch, MissingStructure, SingularMatrixError
from .exactlin import (
    Matrix,
    Sparse,
    SparseMatrix,
    SparseTensor3,
    Tensor3,
    Vector,
    apply_kron,
    apply_map,
    basis,
    bilinear_apply,
    cells,
    compose,
    dense,
    dense_cells,
    dense_rows,
    flatten_pair,
    flip,
    identity,
    kron,
    linear_combination,
    mat_compose,
    mat_inverse,
    mat_shape,
    pair_cells,
    product_cases,
    rows,
    sparse,
    square_cases,
    tensor_power_products,
    terms,
    transpose,
)

# Largest dimension of an object: the definition-file reader, the catalog and
# the constructions refuse anything larger before they allocate it.  A file
# record of dimension n holds dense n^3 tensors.
MAX_DIM = 128

# ---------------------------------------------------------------------------
# domain types


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DimensionMismatch(message)


class Record:
    """A frozen value type whose fields are the names annotated in its class
    body, in order after a ``Record`` base's, and named by ``__match_args__``.

    It behaves as ``dataclass(frozen=True)`` (construction by position or
    keyword with class defaults, then ``__post_init__``; ``==`` within one
    class, ``hash`` and ``repr`` over the fields; no assignment or deletion)
    but generates no code when a subclass is defined: a dataclass ``exec``s
    its methods, about 1 ms per class in every process.
    """

    __match_args__: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls):
        own = tuple(vars(cls).get("__annotations__", ()))
        cls.__match_args__ += own
        cls._defaults = {**cls._defaults, **{f: vars(cls)[f] for f in own if f in vars(cls)}}

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__qualname__, self.__match_args__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments, not {len(args)}")
        for field in kwargs:
            if field not in fields[len(args) :]:
                problem = "multiple values for" if field in fields else "an unexpected keyword"
                raise TypeError(f"{name}() got {problem} argument {field!r}")
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        for field in fields:
            if field not in values:
                raise TypeError(f"{name}() missing required argument: {field!r}")
            self.__dict__[field] = values[field]
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(self.__dict__[f] for f in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot delete {name!r}")


def _path(dotted: str) -> property:
    """A read-only property that reads the attribute path ``dotted`` of ``self``."""
    return property(attrgetter(dotted))


def _as_map(covector: Vector) -> SparseMatrix:
    """A covector as a row-image map to the one-dimensional space."""
    return rows(transpose((covector,)))


def _shape(t) -> tuple[int, ...]:
    """The shape of a sparse table, read from its first entries: rows as
    ``(len, dim)``, cells as ``(len, len, dim)``."""
    if not t:
        return (0,)
    return (len(t), *_shape(t[0])) if isinstance(t[0], tuple) else (len(t), t[0].dim)


def _inverse(m: Matrix, message: str = "structure map must be invertible") -> Matrix:
    """The inverse of ``m``; ``SingularMatrixError(message)`` if there is none."""
    try:
        return mat_inverse(m)
    except SingularMatrixError:
        raise SingularMatrixError(message) from None


class _HomSpace(Record):
    """What a Hom-algebra and a Hom-coalgebra share: the invertible structure
    map ``alpha`` of a ``dim``-dimensional space, its inverse and its powers.
    A builder that knows the inverse hands it over as ``alpha_inverse``."""

    def __init__(self, *args, alpha_inverse: Matrix | None = None, **kwargs):
        if alpha_inverse is not None:
            self.__dict__["alpha_inverse"] = alpha_inverse
        super().__init__(*args, **kwargs)

    def __post_init__(self):
        _require(mat_shape(self.alpha) == (self.dim, self.dim), "structure map shape")
        # kept, not a field: its rows are power(-1)
        if "alpha_inverse" not in self.__dict__:
            self.__dict__["alpha_inverse"] = _inverse(self.alpha)

    @cached_property
    def alpha_rows(self) -> SparseMatrix:
        return rows(self.alpha)

    @cached_property
    def _powers(self) -> dict[int, SparseMatrix]:
        return {}

    def power(self, k: int) -> SparseMatrix:
        """The rows of ``alpha^k``, composed from the rows of ``alpha`` or of
        ``alpha_inverse`` (``power(0)`` as ``alpha`` then ``alpha^-1``); each
        power is built once."""
        powers = self._powers
        if k not in powers:
            step = 1 if k > 0 else -1
            if k == step:
                powers[k] = self.alpha_rows if k == 1 else rows(self.alpha_inverse)
            else:
                powers[k] = compose(self.power(k - step), self.power(step))
        return powers[k]


class HomAlgebra(_HomSpace):
    """A unital Hom-associative algebra by structure constants.

    ``mul_cells[i][j]`` is the product ``e_i . e_j``; ``unit`` is the
    coordinate vector of the unit element; ``alpha`` is the (invertible)
    structure map as a row-image matrix.
    """

    dim: int
    mul_cells: SparseTensor3
    unit: Vector
    alpha: Matrix

    def __post_init__(self):
        n = self.dim
        _require(_shape(self.mul_cells) == (n, n, n), "multiplication tensor shape")
        _require(len(self.unit) == n, "unit vector length")
        super().__post_init__()

    @property
    def mul(self) -> Tensor3:
        """``mul[i][j][k]``, the ``e_k``-coefficient of ``e_i . e_j``, made dense."""
        return dense_cells(self.mul_cells)

    @cached_property
    def op(self) -> HomAlgebra:
        """The opposite algebra, ``e_i . e_j = e_j e_i``."""
        cells_op = transpose(self.mul_cells)
        return HomAlgebra(self.dim, cells_op, self.unit, self.alpha, alpha_inverse=self.alpha_inverse)

    @cached_property
    def mul_map(self) -> SparseMatrix:
        """The multiplication as a row-image map ``H (x) H -> H``."""
        return _flat(self.mul_cells)

    @cached_property
    def unit_vector(self) -> Sparse:
        return sparse(self.unit)


class HomCoalgebra(_HomSpace):
    """A counital Hom-coassociative coalgebra by structure constants.

    ``comul_rows[i]`` is ``delta(e_i)`` on the flattened pair space, a
    row-image map ``C -> C (x) C``; ``counit`` is the counit as a covector.
    """

    dim: int
    comul_rows: SparseMatrix
    counit: Vector
    alpha: Matrix

    def __post_init__(self):
        n = self.dim
        _require(_shape(self.comul_rows) == (n, n * n), "comultiplication tensor shape")
        _require(len(self.counit) == n, "counit covector length")
        super().__post_init__()

    @property
    def comul(self) -> Tensor3:
        """``comul[i][j][k]``, the ``e_j (x) e_k``-coefficient of ``delta(e_i)``, made dense."""
        return dense_cells(pair_cells(self.comul_rows, self.dim))

    @cached_property
    def op(self) -> HomCoalgebra:
        """The co-opposite coalgebra, ``delta(e_i) = sum e_i2 (x) e_i1``."""
        rows_op = self.comul_op_rows
        return HomCoalgebra(self.dim, rows_op, self.counit, self.alpha, alpha_inverse=self.alpha_inverse)

    @cached_property
    def comul_op_rows(self) -> SparseMatrix:
        """``op.comul_rows``: ``comul_rows``, then the flip of the two legs."""
        return compose(self.comul_rows, flip(self.dim, self.dim))

    @cached_property
    def comul_terms(self):
        """The Sweedler terms of each ``delta(e_i)`` (see ``exactlin.terms``)."""
        return terms(self.comul_rows, self.dim)

    @cached_property
    def counit_map(self) -> SparseMatrix:
        return _as_map(self.counit)


class HomBialgebra(Record):
    algebra: HomAlgebra
    coalgebra: HomCoalgebra

    def __post_init__(self):
        _require(self.algebra.dim == self.coalgebra.dim, "bialgebra factor dimensions")
        _require(self.algebra.alpha == self.coalgebra.alpha, "bialgebra structure maps")

    dim = _path("algebra.dim")
    mul = _path("algebra.mul")
    unit = _path("algebra.unit")
    comul = _path("coalgebra.comul")
    counit = _path("coalgebra.counit")
    alpha = _path("algebra.alpha")
    alpha_rows = _path("algebra.alpha_rows")
    alpha_inverse = _path("algebra.alpha_inverse")
    power = _path("algebra.power")


class HomHopfAlgebra(Record):
    """A Hom-bialgebra with an antipode, ``antipode_rows[i]`` being ``S(e_i)``."""

    bialgebra: HomBialgebra
    antipode_rows: SparseMatrix

    def __post_init__(self):
        n = self.bialgebra.dim
        _require(_shape(self.antipode_rows) == (n, n), "antipode shape")

    dim = _path("bialgebra.algebra.dim")
    mul = _path("bialgebra.algebra.mul")
    unit = _path("bialgebra.algebra.unit")
    comul = _path("bialgebra.coalgebra.comul")
    counit = _path("bialgebra.coalgebra.counit")
    alpha = _path("bialgebra.algebra.alpha")
    alpha_rows = _path("bialgebra.algebra.alpha_rows")
    alpha_inverse = _path("bialgebra.algebra.alpha_inverse")
    power = _path("bialgebra.algebra.power")
    algebra = _path("bialgebra.algebra")
    coalgebra = _path("bialgebra.coalgebra")

    @property
    def antipode(self) -> Matrix:
        """The antipode as a dense row-image matrix."""
        return dense_rows(self.antipode_rows)

    @cached_property
    def antipode_inverse(self) -> Matrix:
        return mat_inverse(self.antipode)


def hopf_of_tables(mul_cells, unit, comul_rows, counit, alpha, antipode_rows, alpha_inverse=None):
    """Assemble a HomHopfAlgebra from its product, coproduct and antipode
    tables, its algebra and coalgebra sharing one ``alpha_inverse``."""
    n = len(mul_cells)
    algebra = HomAlgebra(n, mul_cells, unit, alpha, alpha_inverse=alpha_inverse)
    coalgebra = HomCoalgebra(n, comul_rows, counit, alpha, alpha_inverse=algebra.alpha_inverse)
    return HomHopfAlgebra(HomBialgebra(algebra, coalgebra), antipode_rows)


def hopf_algebra(
    dim: int,
    mul: Tensor3,
    unit: Vector,
    comul: Tensor3,
    counit: Vector,
    alpha: Matrix,
    antipode: Matrix,
) -> HomHopfAlgebra:
    """Assemble a HomHopfAlgebra from dense structure constants, each
    converted to its table once."""
    _require(len(mul) == dim, "multiplication tensor shape")
    return hopf_of_tables(cells(mul), unit, rows(map(flatten_pair, comul)), counit, alpha, rows(antipode))


def algebra_of(obj) -> HomAlgebra:
    """Coerce any of the structure types to its underlying Hom-algebra."""
    if isinstance(obj, HomAlgebra):
        return obj
    if isinstance(obj, HomBialgebra):
        return obj.algebra
    if isinstance(obj, HomHopfAlgebra):
        return obj.bialgebra.algebra
    raise MissingStructure(f"no algebra structure on {type(obj).__name__}")


def coalgebra_of(obj) -> HomCoalgebra:
    """Coerce any of the structure types to its underlying Hom-coalgebra."""
    if isinstance(obj, HomCoalgebra):
        return obj
    if isinstance(obj, HomBialgebra):
        return obj.coalgebra
    if isinstance(obj, HomHopfAlgebra):
        return obj.bialgebra.coalgebra
    raise MissingStructure(f"no coalgebra structure on {type(obj).__name__}")


def bialgebra_of(obj) -> HomBialgebra:
    if isinstance(obj, HomBialgebra):
        return obj
    if isinstance(obj, HomHopfAlgebra):
        return obj.bialgebra
    raise MissingStructure(f"no bialgebra structure on {type(obj).__name__}")


class ModuleAction(Record):
    """A left action of ``actor`` on ``carrier``: ``act_cells[h][m]`` is ``e_h . e_m``."""

    actor: object
    carrier: object
    act_cells: SparseTensor3

    def __post_init__(self):
        na, nc = self.actor.dim, self.carrier.dim
        _require(_shape(self.act_cells) == (na, nc, nc), "action tensor shape")

    @property
    def act(self) -> Tensor3:
        """``act[h][m][m']``, the ``e_m'``-coefficient of ``e_h . e_m``, made dense."""
        return dense_cells(self.act_cells)


class ComoduleCoaction(Record):
    """A right coaction ``rho: M -> M (x) C`` of ``coactor`` on ``carrier``:
    ``coact_rows[m]`` is ``rho(e_m)`` on the flattened pair space."""

    coactor: object
    carrier: object
    coact_rows: SparseMatrix

    def __post_init__(self):
        nc, nm = self.coactor.dim, self.carrier.dim
        _require(_shape(self.coact_rows) == (nm, nm * nc), "coaction tensor shape")

    @property
    def coact(self) -> Tensor3:
        """``coact[m][m'][c]``, the ``e_m' (x) e_c``-coefficient of ``rho(e_m)``, made dense."""
        return dense_cells(pair_cells(self.coact_rows, self.coactor.dim))

    @cached_property
    def coact_terms(self):
        """The terms ``(m_(0), c_(1), coefficient)`` of each ``rho(e_m)``."""
        return terms(self.coact_rows, self.coactor.dim)


class _GramForm(Record):
    """The ``form`` view of a Gram matrix field ``gram``."""

    @cached_property
    def form(self) -> SparseTensor3:
        """The bilinear form as a bilinear map to the one-dimensional space."""
        return cells(tuple(tuple((g,) for g in row) for row in self.gram))


class PairingForm(_GramForm):
    """A non-degenerate bilinear form linking two Hom-Hopf algebras.

    ``gram[i][j]`` is the pairing of the i-th basis vector of ``left`` with
    the j-th basis vector of ``right``.
    """

    left: HomHopfAlgebra
    right: HomHopfAlgebra
    gram: Matrix

    def __post_init__(self):
        _require(mat_shape(self.gram) == (self.left.dim, self.right.dim), "gram shape")
        _inverse(self.gram, "pairing must be non-degenerate")


class TwoCocycle(_GramForm):
    """A bilinear form on a Hom-bialgebra, tagged left or right."""

    algebra: HomBialgebra
    gram: Matrix
    side: str

    def __post_init__(self):
        n = self.algebra.dim
        _require(mat_shape(self.gram) == (n, n), "cocycle gram shape")
        if self.side not in ("left", "right"):
            raise ValueError(f"cocycle side must be 'left' or 'right', got {self.side!r}")

    @cached_property
    def products(self) -> SparseTensor3:
        """``sigma(h_1, k_1) h_2 k_2`` for a left cocycle and ``sigma(h_2, k_2) h_1 k_1``
        for a right one, at every basis pair ``(h, k)``.

        Both sides of the cocycle condition pair these with ``alpha^2`` of the
        third argument, and the cocycle twist applies ``alpha^-1`` to them.
        """
        B, gram = self.algebra, self.gram
        # a right cocycle pairs the second Sweedler legs: the first legs of the co-opposite
        coalgebra = B.coalgebra.op if self.side == "right" else B.coalgebra
        n, mc, sw = B.dim, B.algebra.mul_cells, coalgebra.comul_terms
        return tuple(
            tuple(
                linear_combination(
                    n,
                    (
                        (vh * vk * gram[h1][k1], mc[h2][k2])
                        for h1, h2, vh in sw[h]
                        for k1, k2, vk in sw[k]
                    ),
                )
                for k in range(n)
            )
            for h in range(n)
        )


class RMatrix(Record):
    """An element ``R = sum entries[i][j] e_i (x) e_j`` of ``H (x) H``."""

    host: HomBialgebra
    entries: Matrix

    def __post_init__(self):
        n = self.host.dim
        _require(mat_shape(self.entries) == (n, n), "R-matrix shape")

    @cached_property
    def vector(self) -> Sparse:
        """``R`` as a sparse vector on the flattened pair space."""
        return sparse(flatten_pair(self.entries))


class MatchedPairData(Record):
    """Two Hom-bialgebras acting on each other.

    ``left_cells[h][a]`` is the A-valued action ``h -> a`` of H on A and
    ``right_cells[h][a]`` the H-valued action ``h <- a`` of A on H.
    """

    A: object
    H: object
    left_cells: SparseTensor3
    right_cells: SparseTensor3

    def __post_init__(self):
        na, nh = self.A.dim, self.H.dim
        _require(_shape(self.left_cells) == (nh, na, na), "left action shape")
        _require(_shape(self.right_cells) == (nh, na, nh), "right action shape")

    @cached_property
    def left_module(self) -> ModuleAction:
        """The left action as a ``ModuleAction`` of H on A."""
        return ModuleAction(self.H, self.A, self.left_cells)

    @cached_property
    def right_module(self) -> ModuleAction:
        """The right action as a left action ``a . h = h <- a`` of ``A_op`` on H."""
        A = bialgebra_of(self.A)
        a_op = HomBialgebra(A.algebra.op, A.coalgebra)
        return ModuleAction(a_op, self.H, transpose(self.right_cells))


class Witness(Record):
    index: tuple[int, ...]
    lhs: Vector
    rhs: Vector


class CheckEntry(Record):
    axiom_id: str
    passed: bool
    witness: Witness | None = None

    def __post_init__(self):
        if self.passed == (self.witness is not None):
            raise ValueError("a check entry carries a witness exactly when it fails")


def make_entry(axiom_id: str, passed: bool, index=(), lhs=(), rhs=()) -> CheckEntry:
    """A report entry; failures always carry a witness (possibly empty)."""
    if passed:
        return CheckEntry(axiom_id, True)
    return CheckEntry(axiom_id, False, Witness(tuple(index), tuple(lhs), tuple(rhs)))


class CheckReport(Record):
    checks: tuple[CheckEntry, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckEntry, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def entry(self, axiom_id: str) -> CheckEntry:
        for c in self.checks:
            if c.axiom_id == axiom_id:
                return c
        raise KeyError(axiom_id)


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


def _flat(t: SparseTensor3) -> SparseMatrix:
    """The bilinear map ``t`` as a row-image map on the pair space: its cells, flattened."""
    return tuple(chain.from_iterable(t))


def _legs(terms, first, second, v: Sparse) -> Sparse:
    """``sum c * (first[x] (x) second[y])(v)`` over the terms ``(x, y, c)``: a
    Sweedler sum that picks the maps applied to the two legs of ``v``."""
    n = first[0][0].dim * second[0][0].dim
    return linear_combination(n, ((c, apply_kron(first[x], second[y], v)) for x, y, c in terms))


def _morphism_products(phi: SparseMatrix, xc: SparseTensor3, yc: SparseTensor3):
    """The cases ``((i, j), phi(x_i x_j), phi(x_i) phi(x_j))`` of a product law,
    products read from ``xc`` and ``yc``, where a side has a nonzero term:
    ``phi(w)`` is the bilinear map ``(phi,)`` at ``(e_0, w)``."""
    cases = product_cases(((phi,), [(0,)], xc), (yc, [phi], phi))
    return (
        ((i, j), apply_map(phi, xc[i][j]), bilinear_apply(yc, phi[i], phi[j]))
        for (_, i), js in cases
        for j in js
    )


def _partial_forms(gram: Matrix, alpha_left: Matrix, alpha_right: Matrix):
    """For a bilinear form ``<,>`` with Gram matrix ``gram``, the maps
    ``x -> <alpha_left(e_i), x>`` (one per ``i``) and ``x -> <x, alpha_right(e_j)>``
    (one per ``j``) to the one-dimensional space."""
    first = tuple(_as_map(row) for row in mat_compose(alpha_left, gram))
    second = tuple(_as_map(row) for row in mat_compose(alpha_right, transpose(gram)))
    return first, second


# ---------------------------------------------------------------------------
# checkers


def check_hom_algebra(obj) -> CheckReport:
    """Unital Hom-associativity: alpha multiplicativity, twisted units and
    the Hom-associative law alpha(a)(bc) = (ab)alpha(c)."""
    A = algebra_of(obj)
    n = A.dim
    mc, m, ar, e, unit = A.mul_cells, A.mul_map, A.alpha_rows, basis(n), (A.unit_vector,)
    associative = (
        ((i, j, k), bilinear_apply(mc, ar[i], mc[j][k]), bilinear_apply(mc, mc[i][j], ar[k]))
        for (i, j), ks in product_cases((mc, ar, mc), (mc, mc, ar))
        for k in ks
    )
    checks = (
        _sweep("algebra.alpha-multiplicative", (n, n), compose(m, ar), compose(kron(ar, ar), m)),
        _sweep("algebra.alpha-fixes-unit", (), compose(unit, ar), unit),
        _sweep("algebra.left-unit", (n,), compose(kron(unit, e), m), ar),
        _sweep("algebra.right-unit", (n,), compose(kron(e, unit), m), ar),
        _sweep("algebra.hom-associative", associative),
    )
    return CheckReport(checks)


def check_hom_coalgebra(obj) -> CheckReport:
    """Counital Hom-coassociativity of a coalgebra."""
    C = coalgebra_of(obj)
    n = C.dim
    ar, e, eps, cm = C.alpha_rows, basis(n), C.counit_map, C.comul_rows
    checks = (
        _sweep("coalgebra.counit-alpha", (n,), compose(ar, eps), eps),
        _sweep("coalgebra.alpha-comultiplicative", (n,), compose(ar, cm), compose(cm, (ar, ar))),
        _sweep("coalgebra.left-counit", (n,), compose(cm, (eps, e)), ar),
        _sweep("coalgebra.right-counit", (n,), compose(cm, (e, eps)), ar),
        _sweep("coalgebra.hom-coassociative", (n,), compose(cm, (cm, ar)), compose(cm, (ar, cm))),
    )
    return CheckReport(checks)


def check_hom_bialgebra(obj) -> CheckReport:
    """Comultiplication and counit are morphisms of Hom-algebras."""
    B = bialgebra_of(obj)
    n = B.dim
    mc, m, unit = B.algebra.mul_cells, B.algebra.mul_map, (B.algebra.unit_vector,)
    delta, eps = B.coalgebra.comul_rows, B.coalgebra.counit_map
    # delta(e_i e_j) against delta(e_i) delta(e_j) in the tensor-square algebra
    cases = list(square_cases(mc, delta))
    products = tensor_power_products(mc, 2, delta, delta, cases)
    multiplicative = (((i, j), apply_map(delta, mc[i][j]), w) for (i, j), w in zip(cases, products))
    checks = (
        _sweep("bialgebra.comul-multiplicative", multiplicative),
        _sweep("bialgebra.comul-unit", (), compose(unit, delta), kron(unit, unit)),
        _sweep("bialgebra.counit-multiplicative", (n, n), compose(m, eps), kron(eps, eps)),
        _sweep("bialgebra.counit-unit", (), compose(unit, eps), basis(1)),
    )
    return CheckReport(checks)


def check_antipode(H: HomHopfAlgebra) -> CheckReport:
    """Antipode identities plus the derived anti-(co)morphism properties."""
    n = H.dim
    A, C = H.algebra, H.coalgebra
    mc, m, ar, S, e = A.mul_cells, A.mul_map, A.alpha_rows, H.antipode_rows, basis(n)
    cm, cm_op, eps, eta = C.comul_rows, C.comul_op_rows, C.counit_map, (A.unit_vector,)
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
        _sweep(prefix + ".unit", (), compose((A.unit_vector,), phi), (B.unit_vector,)),
        _sweep(prefix + ".alpha", (n,), compose(A.alpha_rows, phi), compose(phi, B.alpha_rows)),
    ]
    if isinstance(X, HomHopfAlgebra) and isinstance(Y, HomHopfAlgebra):
        xd, yd, e = X.coalgebra.comul_rows, Y.coalgebra.comul_rows, basis(m)
        # (picks[j] (x) id)(v) is the first-leg slice j of v: picks[j] is the covector e_j^*
        picks = [_as_map(row) for row in identity(m)]
        images = ((i, apply_kron(phi, phi, xd[i]), apply_map(yd, phi[i])) for i in range(n))
        coproducts = (
            ((i, j), apply_kron(pick, e, lhs), apply_kron(pick, e, rhs))
            for i, lhs, rhs in images
            for j, pick in enumerate(picks)
        )
        S, T = X.antipode_rows, Y.antipode_rows
        checks += (
            _sweep(prefix + ".comul", coproducts),
            _sweep(prefix + ".antipode", (n,), compose(S, phi), compose(phi, T)),
        )
    return CheckReport(tuple(checks))


def check_module(m: ModuleAction) -> CheckReport:
    """Left module axioms for an action of a Hom-algebra."""
    actor = algebra_of(m.actor)
    na, nm = actor.dim, m.carrier.dim
    act, am, e = m.act_cells, m.carrier.alpha_rows, basis(nm)
    aa, amul, unit = actor.alpha_rows, actor.mul_cells, (actor.unit_vector,)
    acts = _flat(act)  # h (x) x -> h . x
    associative = (
        ((a, b, i), bilinear_apply(act, aa[a], act[b][i]), bilinear_apply(act, amul[a][b], am[i]))
        for (a, b), cs in product_cases((act, aa, act), (act, amul, am))
        for i in cs
    )
    checks = (
        _sweep("module.unit-acts-as-alpha", (nm,), compose(kron(unit, e), acts), am),
        _sweep(
            "module.alpha-equivariant", (na, nm), compose(acts, am), compose(kron(aa, am), acts)
        ),
        _sweep("module.hom-associative", associative),
    )
    return CheckReport(checks)


def check_module_algebra(m: ModuleAction) -> CheckReport:
    """Module axioms plus the module Hom-algebra compatibilities."""
    actor = bialgebra_of(m.actor)
    carrier = algebra_of(m.carrier)
    na, nc = actor.dim, carrier.dim
    act, cmc, cmul = m.act_cells, carrier.mul_cells, carrier.mul_map
    alpha2 = actor.power(2)
    e, eta = basis(na), (carrier.unit_vector,)
    eps, delta = actor.coalgebra.counit_map, actor.coalgebra.comul_rows
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
    am, ac, e = c.carrier.alpha_rows, coactor.alpha_rows, basis(nm)
    eps, rho, cm = coactor.counit_map, c.coact_rows, coactor.comul_rows
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
    comul_terms, cm, eps = carrier.comul_terms, carrier.comul_rows, carrier.counit_map
    eta = (coactor.algebra.unit_vector,)
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
    cm, eps, actor_eps = carrier.comul_rows, carrier.counit_map, actor.coalgebra.counit_map
    # h_1 . c_1 (x) h_2 . c_2
    coproducts = tuple(_legs(actor_terms[h], act, act, cm[c]) for h in range(nh) for c in range(nc))
    checks = (
        *check_module(m).checks,
        _sweep("module-coalgebra.comultiplicative", (nh, nc), compose(acts, cm), coproducts),
        _sweep("module-coalgebra.counit", (nh, nc), compose(acts, eps), kron(actor_eps, eps)),
    )
    return CheckReport(checks)


def check_cotwisting(C, D, phi: Matrix) -> CheckReport:
    """The four coherence conditions of a cotwisting map ``C (x) D -> D (x) C``.

    Each side is a chain of row-image maps on ``C (x) D``, the left one
    starting with ``phi``, applied leg by leg; a case ``(c, d)`` is the row
    ``c (x) d``.
    """
    C = coalgebra_of(C)
    D = coalgebra_of(D)
    nc, nd = C.dim, D.dim
    _require(mat_shape(phi) == (nc * nd, nd * nc), "cotwisting map shape")

    cm, dm, ac, ad = C.comul_rows, D.comul_rows, C.alpha_rows, D.alpha_rows
    ec, ed = basis(nc), basis(nd)
    eps_c, eps_d = C.counit_map, D.counit_map
    ph, cd = rows(phi), (nc, nd)
    # alpha_C (x) delta_D, then phi (x) id_D, then id_D (x) phi
    second = compose(kron(ac, dm), (ph, ed), (ed, ph))
    # delta_C (x) alpha_D, then id_C (x) phi, then phi (x) id_C
    first = compose(kron(cm, ad), (ec, ph), (ph, ec))
    checks = (
        _sweep("cotwisting.comul-second-factor", cd, compose(ph, (dm, ac)), second),
        _sweep("cotwisting.comul-first-factor", cd, compose(ph, (ad, cm)), first),
        _sweep("cotwisting.alpha-compatible", cd, compose(ph, (ad, ac)), compose(kron(ac, ad), ph)),
        # kill the C-leg of the output: eps_C(c^phi) d^phi = eps_C(c) d
        _sweep("cotwisting.counit-first-factor", cd, compose(ph, (ed, eps_c)), kron(eps_c, ed)),
        _sweep("cotwisting.counit-second-factor", cd, compose(ph, (eps_d, ec)), kron(ec, eps_d)),
    )
    return CheckReport(checks)


def check_twisting(A, B, t: Matrix) -> CheckReport:
    """The three conditions of a twisting map ``B (x) A -> A (x) B``.

    Each side is a chain of row-image maps applied leg by leg, so no map on
    a triple tensor product is built; a case ``(i,)`` is the ``i``-th basis
    vector of the domain.
    """
    A = algebra_of(A)
    B = algebra_of(B)
    na, nb = A.dim, B.dim
    _require(mat_shape(t) == (nb * na, na * nb), "twisting map shape")

    am, bm, aa, ba = A.mul_map, B.mul_map, A.alpha_rows, B.alpha_rows
    ia, ib = basis(na), basis(nb)
    tr, n = rows(t), nb * na
    alphas = compose(kron(ba, aa), tr)  # alpha_B (x) alpha_A, then t
    # on B (x) B (x) A: id_B (x) t, then t (x) id_B, then alpha_A (x) mu_B
    second = compose(kron(ib, tr), (tr, ib), (aa, bm))
    # on B (x) A (x) A: t (x) id_A, then id_A (x) t, then mu_A (x) alpha_B
    first = compose(kron(tr, ia), (ia, tr), (am, ba))
    checks = (
        _sweep("twisting.alpha-compatible", (n,), compose(tr, (aa, ba)), alphas),
        # mu_B (x) alpha_A, then t
        _sweep("twisting.second-factor-product", (nb * n,), compose(kron(bm, aa), tr), second),
        # alpha_B (x) mu_A, then t
        _sweep("twisting.first-factor-product", (n * na,), compose(kron(ba, am), tr), first),
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
    e_a, e_b, a_alpha, b_alpha = basis(na), basis(nb), A.alpha_rows, B.alpha_rows
    eps_a, eps_b = A.coalgebra.counit_map, B.coalgebra.counit_map
    a_mul, b_mul = A.algebra.mul_cells, B.algebra.mul_cells
    a_unit, b_unit, s_a = (A.algebra.unit_vector,), (B.algebra.unit_vector,), A.antipode_rows
    form = P.form
    pair = _flat(form)  # a (x) b -> <a, b>
    s_b_inverse = compose(kron(e_a, rows(B.antipode_inverse)), pair)
    # x -> <alpha^2(a_i), x> on B and x -> <x, alpha^2(b_j)> on A
    with_a, with_b = _partial_forms(gram, dense_rows(A.power(2)), dense_rows(B.power(2)))
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
    normality, each as a separate verdict."""
    B = sigma.algebra
    gram = sigma.gram
    n = B.dim
    form = sigma.form
    alpha, pair, a2 = B.alpha_rows, _flat(form), B.power(2)
    # left: sigma(l_1, k_1) l_2 k_2; right: sigma(l_2, k_2) l_1 k_1
    w = sigma.products
    # sigma(alpha^2(e_h), w[l][k]) against sigma(w[h][l], alpha^2(e_k))
    condition = (
        ((h, l, k), bilinear_apply(form, a2[h], w[l][k]), bilinear_apply(form, w[h][l], a2[k]))
        for (h, l), ks in product_cases((form, a2, w), (form, w, a2))
        for k in ks
    )
    # h -> (sigma(1, h), sigma(h, 1)) against h -> (counit(h), counit(h))
    unit = B.algebra.unit_vector
    normal = (dense(apply_map(rows(gram), unit)), dense(apply_map(rows(transpose(gram)), unit)))

    checks = (
        _sweep("cocycle.alpha-invariant", (n, n), compose(kron(alpha, alpha), pair), pair),
        # left:  sigma(alpha^2(h), l_2 k_2) sigma(l_1, k_1)
        #          = sigma(h_2 l_2, alpha^2(k)) sigma(h_1, l_1)
        # right: sigma(alpha^2(h), l_1 k_1) sigma(l_2, k_2)
        #          = sigma(h_1 l_1, alpha^2(k)) sigma(h_2, l_2)
        _sweep(f"cocycle.{sigma.side}-condition", condition),
        _sweep("cocycle.normal", (n,), rows(transpose(normal)), rows(transpose((B.counit,) * 2))),
    )
    return CheckReport(checks)


def check_quasitriangular(H, R: RMatrix) -> CheckReport:
    """The three quasitriangularity axioms; products are taken componentwise
    in the tensor-square and tensor-cube Hom-algebras."""
    B = bialgebra_of(H)
    n = B.dim
    mc, alpha, rvec, r = B.algebra.mul_cells, B.alpha_rows, R.vector, (R.vector,)
    e, unit = basis(n), (B.algebra.unit_vector,)
    cm, cm_op = B.coalgebra.comul_rows, B.coalgebra.comul_op_rows
    with_unit = kron(e, unit)  # x -> x (x) 1
    unit_with = kron(unit, e)  # x -> 1 (x) x
    r13 = apply_kron(with_unit, e, rvec)
    r23 = apply_kron(unit_with, e, rvec)
    r12 = apply_kron(e, with_unit, rvec)
    # delta^op(h) R against R delta(h), and R_13 R_23 and R_13 R_12
    op_r = tensor_power_products(mc, 2, cm_op, r)
    r_comul = tensor_power_products(mc, 2, r, cm)
    r13_r23, r13_r12 = tensor_power_products(mc, 3, (r13,), (r23, r12))
    checks = (
        _sweep("quasitriangular.intertwines-comul", (n,), op_r, r_comul),
        _sweep("quasitriangular.left-hexagon", (), compose(r, (cm, alpha)), (r13_r23,)),
        _sweep("quasitriangular.right-hexagon", (), compose(r, (alpha, cm)), (r13_r12,)),
    )
    return CheckReport(checks)


def check_comodule_algebra(A, c: ComoduleCoaction) -> CheckReport:
    """Right comodule axioms plus multiplicativity and unitality of the
    coaction on a Hom-algebra carrier."""
    alg = algebra_of(A)
    coactor = bialgebra_of(c.coactor)
    nm, nh = alg.dim, coactor.dim
    rho, rho_terms = c.coact_rows, c.coact_terms
    amul, hmul = alg.mul_cells, coactor.algebra.mul_cells
    # a_(0) b_(0) (x) a_(1) b_(1)
    products = tuple(_legs(rho_terms[i], amul, hmul, rho[j]) for i in range(nm) for j in range(nm))
    unit, coactor_unit = (alg.unit_vector,), (coactor.algebra.unit_vector,)
    checks = (
        *check_comodule(c).checks,
        _sweep("comodule-algebra.multiplicative", (nm, nm), compose(alg.mul_map, rho), products),
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
