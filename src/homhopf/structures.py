"""Hom-algebraic domain types and check reports.

The checkers that produce the reports live in ``checkers`` (the sweeps, the
Hopf-level laws, which ``check`` runs, ``check_morphism`` and the comodule
axioms that every comodule law starts from) and with their section of the
paper: modules, module algebras and comodule coalgebras in ``laws``,
coalgebra-valued modules, cotwisting maps and matched pairs in
``matchedpair``, pairings and twisting maps in ``pairing``, and cocycles
and comodule algebras in ``twist``.  So a command that builds but checks
nothing compiles none of them.  The types of one section live with it too:
the 2-cocycle (``TwoCocycle``) in ``twist`` and the matched-pair data
(``MatchedPairData``) in ``matchedpair``.  The six Hopf-level checkers that
the benchmark's tracer spans as ``structures.*`` still resolve here, from
``checkers`` on first use (``__getattr__``).

Structural invariants (shapes, invertibility of structure maps) are enforced
at construction; algebraic axioms are only ever checker verdicts, so broken
objects can be built deliberately to exercise the checkers.

Each domain type holds its structure constants as sparse tables, the operand
tables of the ``exactlin`` kernels, in its fields: ``HomAlgebra.mul_cells``,
``HomCoalgebra.comul_rows``, ``HomHopfAlgebra.antipode_rows``,
``ModuleAction.act_cells`` and ``ComoduleCoaction.coact_rows``.  Every map
is sparse rows too: the structure map ``alpha`` and its inverse, the
antipode inverse, the ``gram`` of a pairing or a cocycle and the
``entries`` of an R-matrix, and the unit ``eta: k -> A`` (one row) and the
counit ``eps: C -> k`` (rows of length one).  Only the two sides of a
failure witness are dense vectors.  ``==``, ``hash``, ``repr`` and
``__match_args__`` read the fields.  No domain type makes a dense tensor:
the dense records of a definition file are ``fileformat``'s.  Derived views
are cached in the instance ``__dict__`` (``functools.cached_property``;
``power`` keeps one dict of powers), so they are freed with the object:
``mul_map``; ``comul_op_rows`` and ``comul_terms``; ``alpha_inverse`` and
``power(k)``, the rows of ``alpha^k``; ``antipode_inverse``;
``coact_terms``; the ``form`` of a pairing or a cocycle; and
``RMatrix.vector``.  ``HomAlgebra.op`` and ``HomCoalgebra.op`` are objects
built from transposed or leg-swapped tables.  A builder that knows the
inverse of a structure map hands it over (``alpha_inverse=``) instead of
having it inverted again.
"""

from __future__ import annotations

from functools import cached_property
from importlib import import_module
from itertools import chain
from operator import attrgetter

from .errors import DimensionMismatch, MissingStructure, SingularMatrixError
from .exactlin import (
    Sparse, SparseMatrix, SparseTensor3, Vector, compose, mat_inverse, pair_cells,
    rows_from_entries, terms, transpose,
)

# The checkers the benchmark's tracer spans by their ``structures`` paths.
_SPANNED = (
    "check_hom_algebra", "check_hom_coalgebra", "check_hom_bialgebra", "check_antipode",
    "run_hopf_suite", "check_quasitriangular",
)


def __getattr__(name):  # PEP 562: a spanned checker, imported from ``checkers`` on first use
    if name in _SPANNED:
        return getattr(import_module(".checkers", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _flat(t: SparseTensor3) -> SparseMatrix:
    """The bilinear map ``t`` as a row-image map on the pair space: its cells, flattened."""
    return tuple(chain.from_iterable(t))
