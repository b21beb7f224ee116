"""Hom-algebraic domain types, check reports and the Hopf-level checkers.

The checkers here are the Hopf-level ones: the algebra, coalgebra,
bialgebra and antipode laws and quasitriangularity, which ``check`` runs,
and ``check_morphism``, which compares two objects through a map.  The
data laws live with their section of the paper, compiled only where run:
modules, comodule coalgebras, cotwisting maps and matched pairs in ``laws``,
pairings and twisting maps in ``pairing``, and comodules, cocycles and
comodule algebras in ``twist``.

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
other case are zero.  Every three-index law, and by ``_morphism_products``
the multiplicativity of alpha, of the counit into ``k``, of the antipode and
of a morphism, comes from ``_product_law`` (``exactlin.product_cases``).
Every law ``v(x y) = u(x) v(y)`` with a product in a tensor product of
bilinear maps on the right comes from ``_multiplicative_cases``
(``exactlin.square_cases``): comultiplicativity, comodule-algebra
multiplicativity, ``module-coalgebra.comultiplicative`` and the
bicrossproduct hypotheses ``action-comultiplicative`` and
``coaction-multiplicative``.  ``check_morphism`` compares two objects
through a map ``phi: X -> Y`` by the same sweeps.

Structural invariants (shapes, invertibility of structure maps) are enforced
at construction; algebraic axioms are only ever checker verdicts, so broken
objects can be built deliberately to exercise the checkers.

Each domain type holds its structure constants as sparse tables, the operand
tables of the ``exactlin`` kernels, in its fields: ``HomAlgebra.mul_cells``,
``HomCoalgebra.comul_rows``, ``HomHopfAlgebra.antipode_rows``,
``ModuleAction.act_cells``, ``ComoduleCoaction.coact_rows`` and the
``left_cells`` and ``right_cells`` of a ``MatchedPairData``.  Every map is
sparse rows too: the structure map ``alpha`` and its inverse, the antipode
inverse, the ``gram`` of a pairing or a cocycle and the ``entries`` of an
R-matrix, and the unit ``eta: k -> A`` (one row) and the counit
``eps: C -> k`` (rows of length one).  Only the two sides of a failure
witness are dense vectors.  ``==``, ``hash``, ``repr`` and
``__match_args__`` read the fields.  No domain type makes a dense tensor:
the dense records of a definition file are ``fileformat``'s.  Derived views
are cached in the instance ``__dict__`` (``functools.cached_property``;
``power`` keeps one dict of powers), so they are freed with the object:
``mul_map``; ``comul_op_rows`` and ``comul_terms``; ``alpha_inverse`` and
``power(k)``, the rows of ``alpha^k``; ``antipode_inverse``;
``coact_terms``; the ``form`` of a ``PairingForm`` or ``TwoCocycle`` and
``TwoCocycle.products``; ``RMatrix.vector``; and the ``left_module`` and
``right_module`` of a ``MatchedPairData``.  ``HomAlgebra.op`` and
``HomCoalgebra.op`` are objects built from transposed or leg-swapped tables.
A builder that knows the inverse of a structure map hands it over
(``alpha_inverse=``) instead of having it inverted again.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, product, tee
from math import prod
from operator import attrgetter

from .errors import DimensionMismatch, MissingStructure, SingularMatrixError
from .exactlin import (
    Sparse,
    SparseMatrix,
    SparseTensor3,
    Vector,
    apply_kron,
    apply_map,
    basis,
    bilinear_apply,
    compose,
    dense,
    kron,
    linear_combination,
    mat_inverse,
    pair_cells,
    product_cases,
    rows_from_entries,
    square_cases,
    tensor_power_products,
    terms,
    transpose,
)

# Largest dimension of an object: the definition-file reader, the catalog and
# the constructions refuse anything larger before they allocate it.
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


def _shape(t) -> tuple[int, ...]:
    """The shape of a sparse table, read from its first entries: rows as
    ``(len, dim)``, cells as ``(len, len, dim)``; a dense vector has no ``dim``."""
    if not t:
        return (0,)
    return (len(t), *_shape(t[0])) if isinstance(t[0], tuple) else (len(t), getattr(t[0], "dim", None))


def _inverse(m: SparseMatrix, message: str = "structure map must be invertible") -> SparseMatrix:
    """The inverse of ``m``; ``SingularMatrixError(message)`` if there is none."""
    try:
        return mat_inverse(m)
    except SingularMatrixError:
        raise SingularMatrixError(message) from None


class _HomSpace(Record):
    """What a Hom-algebra and a Hom-coalgebra share: the invertible structure
    map ``alpha`` of a ``dim``-dimensional space, its inverse and its powers.
    A builder that knows the inverse hands it over as ``alpha_inverse``."""

    def __init__(self, *args, alpha_inverse: SparseMatrix | None = None, **kwargs):
        if alpha_inverse is not None:
            self.__dict__["alpha_inverse"] = alpha_inverse
        super().__init__(*args, **kwargs)

    def __post_init__(self):
        _require(_shape(self.alpha) == (self.dim, self.dim), "structure map shape")
        # kept, not a field: it is power(-1)
        if "alpha_inverse" not in self.__dict__:
            self.__dict__["alpha_inverse"] = _inverse(self.alpha)

    @cached_property
    def _powers(self) -> dict[int, SparseMatrix]:
        return {}

    def power(self, k: int) -> SparseMatrix:
        """The rows of ``alpha^k``, composed from ``alpha`` or ``alpha_inverse``
        (``power(0)`` as ``alpha`` then ``alpha^-1``); each power is built once."""
        powers = self._powers
        if k not in powers:
            step = 1 if k > 0 else -1
            if k == step:
                powers[k] = self.alpha if k == 1 else self.alpha_inverse
            else:
                powers[k] = compose(self.power(k - step), self.power(step))
        return powers[k]


class HomAlgebra(_HomSpace):
    """A unital Hom-associative algebra by structure constants.

    ``mul_cells[i][j]`` is the product ``e_i . e_j``; ``unit`` is the map
    ``eta: k -> A``, its one row the unit element; ``alpha`` is the rows of
    the (invertible) structure map.
    """

    dim: int
    mul_cells: SparseTensor3
    unit: SparseMatrix
    alpha: SparseMatrix

    def __post_init__(self):
        n = self.dim
        _require(_shape(self.mul_cells) == (n, n, n), "multiplication tensor shape")
        _require(_shape(self.unit) == (1, n), "unit shape")
        super().__post_init__()

    @cached_property
    def op(self) -> HomAlgebra:
        """The opposite algebra, ``e_i . e_j = e_j e_i``."""
        cells_op = transpose(self.mul_cells)
        return HomAlgebra(self.dim, cells_op, self.unit, self.alpha, alpha_inverse=self.alpha_inverse)

    @cached_property
    def mul_map(self) -> SparseMatrix:
        """The multiplication as a row-image map ``H (x) H -> H``."""
        return _flat(self.mul_cells)


class HomCoalgebra(_HomSpace):
    """A counital Hom-coassociative coalgebra by structure constants.

    ``comul_rows[i]`` is ``delta(e_i)`` on the flattened pair space, a
    row-image map ``C -> C (x) C``; ``counit`` is the map ``eps: C -> k``,
    ``counit[i]`` being ``eps(e_i)`` on the one-dimensional space.
    """

    dim: int
    comul_rows: SparseMatrix
    counit: SparseMatrix
    alpha: SparseMatrix

    def __post_init__(self):
        n = self.dim
        _require(_shape(self.comul_rows) == (n, n * n), "comultiplication tensor shape")
        _require(_shape(self.counit) == (n, 1), "counit shape")
        super().__post_init__()

    @cached_property
    def op(self) -> HomCoalgebra:
        """The co-opposite coalgebra, ``delta(e_i) = sum e_i2 (x) e_i1``."""
        rows_op = self.comul_op_rows
        return HomCoalgebra(self.dim, rows_op, self.counit, self.alpha, alpha_inverse=self.alpha_inverse)

    @cached_property
    def comul_op_rows(self) -> SparseMatrix:
        """``op.comul_rows``: each ``delta(e_i)`` with its two legs swapped, the
        coefficient of ``e_j (x) e_k`` moved to ``e_k (x) e_j``."""
        n, delta = self.dim, self.comul_rows
        swapped = {(i, p % n, p // n): c for i, row in enumerate(delta) for p, c in row.items()}
        return rows_from_entries((n, n, n), swapped)

    @cached_property
    def comul_terms(self):
        """The Sweedler terms of each ``delta(e_i)`` (see ``exactlin.terms``)."""
        return terms(self.comul_rows, self.dim)


class HomBialgebra(Record):
    algebra: HomAlgebra
    coalgebra: HomCoalgebra

    def __post_init__(self):
        _require(self.algebra.dim == self.coalgebra.dim, "bialgebra factor dimensions")
        _require(self.algebra.alpha == self.coalgebra.alpha, "bialgebra structure maps")

    dim = _path("algebra.dim")
    unit = _path("algebra.unit")
    counit = _path("coalgebra.counit")
    alpha = _path("algebra.alpha")
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
    unit = _path("bialgebra.algebra.unit")
    counit = _path("bialgebra.coalgebra.counit")
    alpha = _path("bialgebra.algebra.alpha")
    alpha_inverse = _path("bialgebra.algebra.alpha_inverse")
    power = _path("bialgebra.algebra.power")
    algebra = _path("bialgebra.algebra")
    coalgebra = _path("bialgebra.coalgebra")

    @cached_property
    def antipode_inverse(self) -> SparseMatrix:
        return mat_inverse(self.antipode_rows)


def hopf_of_tables(mul_cells, unit, comul_rows, counit, alpha, antipode_rows, alpha_inverse=None):
    """Assemble a HomHopfAlgebra from its product, coproduct and antipode
    tables, its algebra and coalgebra sharing one ``alpha_inverse``."""
    n = len(mul_cells)
    algebra = HomAlgebra(n, mul_cells, unit, alpha, alpha_inverse=alpha_inverse)
    coalgebra = HomCoalgebra(n, comul_rows, counit, alpha, alpha_inverse=algebra.alpha_inverse)
    return HomHopfAlgebra(HomBialgebra(algebra, coalgebra), antipode_rows)


def _part(obj, kind: type, name: str):
    """``obj`` if it is a ``kind``, else its ``name`` part if that is a ``kind``."""
    for part in (obj, getattr(obj, name, None)):
        if isinstance(part, kind):
            return part
    raise MissingStructure(f"no {name} structure on {type(obj).__name__}")


def algebra_of(obj) -> HomAlgebra:
    """Coerce any of the structure types to its underlying Hom-algebra."""
    return _part(obj, HomAlgebra, "algebra")


def coalgebra_of(obj) -> HomCoalgebra:
    """Coerce any of the structure types to its underlying Hom-coalgebra."""
    return _part(obj, HomCoalgebra, "coalgebra")


def bialgebra_of(obj) -> HomBialgebra:
    return _part(obj, HomBialgebra, "bialgebra")


class ModuleAction(Record):
    """A left action of ``actor`` on ``carrier``: ``act_cells[h][m]`` is ``e_h . e_m``."""

    actor: object
    carrier: object
    act_cells: SparseTensor3

    def __post_init__(self):
        na, nc = self.actor.dim, self.carrier.dim
        _require(_shape(self.act_cells) == (na, nc, nc), "action tensor shape")


class ComoduleCoaction(Record):
    """A right coaction ``rho: M -> M (x) C`` of ``coactor`` on ``carrier``:
    ``coact_rows[m]`` is ``rho(e_m)`` on the flattened pair space."""

    coactor: object
    carrier: object
    coact_rows: SparseMatrix

    def __post_init__(self):
        nc, nm = self.coactor.dim, self.carrier.dim
        _require(_shape(self.coact_rows) == (nm, nm * nc), "coaction tensor shape")

    @cached_property
    def coact_terms(self):
        """The terms ``(m_(0), c_(1), coefficient)`` of each ``rho(e_m)``."""
        return terms(self.coact_rows, self.coactor.dim)


class _GramForm(Record):
    """The ``form`` view of a Gram matrix field ``gram``, the rows ``gram[i]``."""

    @cached_property
    def form(self) -> SparseTensor3:
        """The bilinear form as a bilinear map to the one-dimensional space."""
        return pair_cells(self.gram, 1)


class PairingForm(_GramForm):
    """A non-degenerate bilinear form linking two Hom-Hopf algebras.

    ``gram[i][j]`` is the pairing of the i-th basis vector of ``left`` with
    the j-th basis vector of ``right``.
    """

    left: HomHopfAlgebra
    right: HomHopfAlgebra
    gram: SparseMatrix

    def __post_init__(self):
        _require(_shape(self.gram) == (self.left.dim, self.right.dim), "gram shape")
        _inverse(self.gram, "pairing must be non-degenerate")


class TwoCocycle(_GramForm):
    """A bilinear form on a Hom-bialgebra, tagged left or right."""

    algebra: HomBialgebra
    gram: SparseMatrix
    side: str

    def __post_init__(self):
        n = self.algebra.dim
        _require(_shape(self.gram) == (n, n), "cocycle gram shape")
        if self.side not in ("left", "right"):
            raise ValueError(f"cocycle side must be 'left' or 'right', got {self.side!r}")

    @cached_property
    def products(self) -> SparseTensor3:
        """``sigma(h_1, k_1) h_2 k_2`` for a left cocycle and ``sigma(h_2, k_2) h_1 k_1``
        for a right one, at every basis pair ``(h, k)``.

        Both sides of the cocycle condition pair these with ``alpha^2`` of the
        third argument, and the cocycle twist applies ``alpha^-1`` to them.
        A term ``h1 (x) h2`` is multiplied only with the terms ``k1 (x) k2`` whose
        ``k1`` is in the support of ``gram[h1]``: the other pairs have weight zero,
        and a product that no pair reaches is zero without a sum.
        """
        B, gram = self.algebra, self.gram
        # a right cocycle pairs the second Sweedler legs: the first legs of the co-opposite
        coalgebra = B.coalgebra.op if self.side == "right" else B.coalgebra
        n, mc, sw = B.dim, B.algebra.mul_cells, coalgebra.comul_terms
        heads = [[] for _ in range(n)]  # heads[k1]: the terms (k, k2, coefficient) of each delta(k)
        for k, k_terms in enumerate(sw):
            for k1, k2, vk in k_terms:
                heads[k1].append((k, k2, vk))
        products = []
        for h in range(n):
            scaled = [[] for _ in range(n)]  # scaled[k]: the weighted products summed at (h, k)
            for h1, h2, vh in sw[h]:
                for k1, g in gram[h1].items():
                    for k, k2, vk in heads[k1]:
                        scaled[k].append((vh * g * vk, mc[h2][k2]))
            products.append(tuple(linear_combination(n, pairs) for pairs in scaled))
        return tuple(products)


class RMatrix(Record):
    """An element ``R = sum entries[i][j] e_i (x) e_j`` of ``H (x) H``, by its rows."""

    host: HomBialgebra
    entries: SparseMatrix

    def __post_init__(self):
        n = self.host.dim
        _require(_shape(self.entries) == (n, n), "R-matrix shape")

    @cached_property
    def vector(self) -> Sparse:
        """``R`` as a sparse vector on the flattened pair space."""
        n = self.host.dim
        entries = {(0, i, j): c for i, row in enumerate(self.entries) for j, c in row.items()}
        return rows_from_entries((1, n, n), entries)[0]


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


def _grid(cells, n: int) -> tuple[tuple, ...]:
    """The row-major stream ``cells`` as rows of ``n``: ``[i][j]`` is the cell ``i * n + j``."""
    return tuple(zip(*[iter(cells)] * n))


def _multiplicative_cases(muls, us, vs):
    """The cases ``((i, j), vs(m1[i][j]), us[i] vs[j])`` of a law whose right side
    is a product in the tensor product of the bilinear maps ``muls = (m1, m2)``,
    at the cases of ``exactlin.square_cases``, each product formed as the sweep
    reads it.  A coproduct is multiplicative by ``((mul, mul), delta, delta)``."""
    cases, pairs = tee(square_cases(muls, us, vs))
    products = tensor_power_products(muls, us, vs, pairs)
    return (((i, j), apply_map(vs, muls[0][i][j]), w) for (i, j), w in zip(cases, products))


def _product_law(left, right):
    """The cases ``((a, b, c), s(f[a], u[b][c]), t(v[a][b], g[c]))`` of the law
    with ``left = (s, f, u)`` and ``right = (t, v, g)``, ``s`` and ``t`` bilinear
    maps, at the cases of ``exactlin.product_cases``: both sides of the others
    are zero.  Cases and sides are read from the same operands."""
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
