"""Hom-algebraic domain types and the axiom checkers.

Every checker quantifies over basis multi-indices (multilinearity reduces the
universally quantified identities to basis cases), compares exact vectors,
and returns a CheckReport.  A failing identity is data, not an error: the
report entry records the lexicographically first failing index together with
both sides' full coefficient vectors.

Structural invariants (shapes, invertibility of structure maps) are enforced
at construction; algebraic axioms are only ever checker verdicts, so broken
objects can be built deliberately to exercise the checkers.

The dense fields are the public contract of each domain type.  Each type
also owns read-only sparse views of them, the operand tables of the
``exactlin`` kernels: ``HomAlgebra.mul_cells``, ``mul_map``, ``alpha_rows``
and ``unit_vector``; ``HomCoalgebra.comul_rows``, ``comul_op_rows``,
``comul_terms``, ``counit_map`` and ``alpha_rows``;
``HomHopfAlgebra.antipode_rows``; ``ModuleAction.act_cells``;
``ComoduleCoaction.coact_rows`` and ``coact_terms``; the ``form`` of a
``PairingForm`` or ``TwoCocycle``; ``RMatrix.vector``; and the
``left_module`` and ``right_module`` of a ``MatchedPairData``, whose
``act_cells`` are its ``left_cells`` and, transposed, its ``right_cells``.
The ``op`` views are objects too: ``HomAlgebra.op`` is the opposite algebra
and ``HomCoalgebra.op`` the co-opposite coalgebra, each with views of its
own.  A view is built on first use and kept in the instance ``__dict__``
(``functools.cached_property``): it is built once per object and freed with
it, and it is not a dataclass field, so ``==``, ``hash``, ``repr`` and
``dataclasses.replace`` see only the dense fields.  Checkers and
constructions read these views; none converts a dense field itself.  A
``HomAlgebra`` or ``HomCoalgebra`` also keeps ``alpha_inverse`` in its
``__dict__``: the inverse found when the structure map is validated.

A mirrored law is checked as the one-sided law of an opposite: a left
comodule algebra over ``C`` as a right one over ``C^cop``, and a right
action of ``A`` as a left action of ``A_op``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from operator import attrgetter

from .errors import DimensionMismatch, MissingStructure, SingularMatrixError
from .exactlin import (
    ONE,
    ZERO,
    Matrix,
    Sparse,
    SparseMatrix,
    SparseTensor3,
    Tensor3,
    Vector,
    alpha_power,
    apply_kron,
    apply_map,
    basis,
    bilinear_apply,
    cells,
    comul_matrix,
    dense,
    flatten_pair,
    kron,
    linear_combination,
    mat_compose,
    mat_inverse,
    mat_shape,
    rows,
    sparse,
    tensor3_shape,
    tensor_power_product,
    terms,
    transpose,
)

# ---------------------------------------------------------------------------
# domain types


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DimensionMismatch(message)


def _path(dotted: str) -> property:
    """A read-only property that reads the attribute path ``dotted`` of ``self``."""
    return property(attrgetter(dotted))


def _as_map(covector: Vector) -> SparseMatrix:
    """A covector as a row-image map to the one-dimensional space."""
    return rows(transpose((covector,)))


def _op_comul(comul: Tensor3) -> Tensor3:
    """The co-opposite comultiplication ``delta(e_i) = sum e_i2 (x) e_i1``.

    Its zero rows are one shared tuple: ``HomCoalgebra.op`` keeps this
    tensor, and a coproduct has few nonzero rows."""
    zero = (ZERO,) * len(comul)
    return tuple(tuple(row if any(row) else zero for row in transpose(plane)) for plane in comul)


def _inverse(m: Matrix, message: str = "structure map must be invertible") -> Matrix:
    """The inverse of ``m``; ``SingularMatrixError(message)`` if there is none."""
    try:
        return mat_inverse(m)
    except SingularMatrixError:
        raise SingularMatrixError(message) from None


@dataclass(frozen=True)
class HomAlgebra:
    """A unital Hom-associative algebra by structure constants.

    ``mul[i][j][k]`` is the ``e_k``-coefficient of ``e_i . e_j``; ``unit`` is
    the coordinate vector of the unit element; ``alpha`` is the (invertible)
    structure map as a row-image matrix.
    """

    dim: int
    mul: Tensor3
    unit: Vector
    alpha: Matrix

    def __post_init__(self):
        n = self.dim
        _require(tensor3_shape(self.mul) == (n, n, n), "multiplication tensor shape")
        _require(len(self.unit) == n, "unit vector length")
        _require(mat_shape(self.alpha) == (n, n), "structure map shape")
        # kept, not a field: alpha_power(alpha_inverse, k) is alpha^-k
        object.__setattr__(self, "alpha_inverse", _inverse(self.alpha))

    @cached_property
    def op(self) -> HomAlgebra:
        """The opposite algebra, ``e_i . e_j = e_j e_i``."""
        return HomAlgebra(self.dim, transpose(self.mul), self.unit, self.alpha)

    @cached_property
    def mul_cells(self) -> SparseTensor3:
        return cells(self.mul)

    @cached_property
    def mul_map(self) -> SparseMatrix:
        """The multiplication as a row-image map ``H (x) H -> H``: the cells, flattened."""
        return tuple(chain.from_iterable(self.mul_cells))

    @cached_property
    def alpha_rows(self) -> SparseMatrix:
        return rows(self.alpha)

    @cached_property
    def unit_vector(self) -> Sparse:
        return sparse(self.unit)


@dataclass(frozen=True)
class HomCoalgebra:
    """A counital Hom-coassociative coalgebra by structure constants.

    ``comul[i][j][k]`` is the ``e_j (x) e_k``-coefficient of ``delta(e_i)``;
    ``counit`` is the counit as a covector.
    """

    dim: int
    comul: Tensor3
    counit: Vector
    alpha: Matrix

    def __post_init__(self):
        n = self.dim
        _require(tensor3_shape(self.comul) == (n, n, n), "comultiplication tensor shape")
        _require(len(self.counit) == n, "counit covector length")
        _require(mat_shape(self.alpha) == (n, n), "structure map shape")
        # kept, not a field: alpha_power(alpha_inverse, k) is alpha^-k
        object.__setattr__(self, "alpha_inverse", _inverse(self.alpha))

    @cached_property
    def op(self) -> HomCoalgebra:
        """The co-opposite coalgebra, ``delta(e_i) = sum e_i2 (x) e_i1``."""
        return HomCoalgebra(self.dim, _op_comul(self.comul), self.counit, self.alpha)

    @cached_property
    def comul_rows(self) -> SparseMatrix:
        """The comultiplication as a row-image map ``C -> C (x) C``."""
        return rows(comul_matrix(self.comul))

    @cached_property
    def comul_op_rows(self) -> SparseMatrix:
        """``op.comul_rows``, for checkers that read only rows: ``op`` keeps a dense tensor."""
        return rows(comul_matrix(_op_comul(self.comul)))

    @cached_property
    def comul_terms(self):
        """The Sweedler terms of each ``delta(e_i)`` (see ``exactlin.terms``)."""
        return terms(self.comul)

    @cached_property
    def counit_map(self) -> SparseMatrix:
        return _as_map(self.counit)

    @cached_property
    def alpha_rows(self) -> SparseMatrix:
        return rows(self.alpha)


@dataclass(frozen=True)
class HomBialgebra:
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


@dataclass(frozen=True)
class HomHopfAlgebra:
    bialgebra: HomBialgebra
    antipode: Matrix

    def __post_init__(self):
        n = self.bialgebra.dim
        _require(mat_shape(self.antipode) == (n, n), "antipode shape")

    dim = _path("bialgebra.algebra.dim")
    mul = _path("bialgebra.algebra.mul")
    unit = _path("bialgebra.algebra.unit")
    comul = _path("bialgebra.coalgebra.comul")
    counit = _path("bialgebra.coalgebra.counit")
    alpha = _path("bialgebra.algebra.alpha")
    alpha_rows = _path("bialgebra.algebra.alpha_rows")
    alpha_inverse = _path("bialgebra.algebra.alpha_inverse")
    algebra = _path("bialgebra.algebra")
    coalgebra = _path("bialgebra.coalgebra")

    @cached_property
    def antipode_rows(self) -> SparseMatrix:
        return rows(self.antipode)


def hopf_algebra(
    dim: int,
    mul: Tensor3,
    unit: Vector,
    comul: Tensor3,
    counit: Vector,
    alpha: Matrix,
    antipode: Matrix,
) -> HomHopfAlgebra:
    """Assemble a HomHopfAlgebra from flat structure constants."""
    return HomHopfAlgebra(
        HomBialgebra(
            HomAlgebra(dim, mul, unit, alpha),
            HomCoalgebra(dim, comul, counit, alpha),
        ),
        antipode,
    )


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


@dataclass(frozen=True)
class ModuleAction:
    """A left action of ``actor`` on ``carrier``: ``act[h][m][m']``."""

    actor: object
    carrier: object
    act: Tensor3

    def __post_init__(self):
        na, nc = self.actor.dim, self.carrier.dim
        _require(tensor3_shape(self.act) == (na, nc, nc), "action tensor shape")

    @cached_property
    def act_cells(self) -> SparseTensor3:
        return cells(self.act)


@dataclass(frozen=True)
class ComoduleCoaction:
    """A right coaction ``rho: M -> M (x) C`` of ``coactor`` on ``carrier``.

    ``coact[m][m'][c]`` is the ``e_m' (x) e_c``-coefficient of ``rho(e_m)``.
    """

    coactor: object
    carrier: object
    coact: Tensor3

    def __post_init__(self):
        nc, nm = self.coactor.dim, self.carrier.dim
        _require(tensor3_shape(self.coact) == (nm, nm, nc), "coaction tensor shape")

    @cached_property
    def _coproduct(self) -> HomCoalgebra | None:
        """The coactor's coalgebra if ``coact`` is its coproduct tensor: its tables are shared."""
        own = self.coact is getattr(self.coactor, "comul", None)
        return coalgebra_of(self.coactor) if own else None

    @cached_property
    def coact_rows(self) -> SparseMatrix:
        """The coaction as a row-image map ``M -> M (x) C``."""
        return self._coproduct.comul_rows if self._coproduct else rows(comul_matrix(self.coact))

    @cached_property
    def coact_terms(self):
        """The terms ``(m_(0), c_(1), coefficient)`` of each ``rho(e_m)``."""
        return self._coproduct.comul_terms if self._coproduct else terms(self.coact)


class _GramForm:
    """The ``form`` view of a Gram matrix field ``gram``."""

    @cached_property
    def form(self) -> SparseTensor3:
        """The bilinear form as a bilinear map to the one-dimensional space."""
        return cells(tuple(tuple((g,) for g in row) for row in self.gram))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RMatrix:
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


@dataclass(frozen=True)
class MatchedPairData:
    """Two Hom-bialgebras acting on each other.

    ``left_action[h][a][a']`` is the A-valued action of H on A and
    ``right_action[h][a][h']`` the H-valued action of A on H.
    """

    A: object
    H: object
    left_action: Tensor3
    right_action: Tensor3

    def __post_init__(self):
        na, nh = self.A.dim, self.H.dim
        _require(tensor3_shape(self.left_action) == (nh, na, na), "left action shape")
        _require(tensor3_shape(self.right_action) == (nh, na, nh), "right action shape")

    @cached_property
    def left_module(self) -> ModuleAction:
        """The left action as a ``ModuleAction`` of H on A; it holds ``left_cells``."""
        return ModuleAction(self.H, self.A, self.left_action)

    @cached_property
    def left_cells(self) -> SparseTensor3:
        return self.left_module.act_cells

    @cached_property
    def right_module(self) -> ModuleAction:
        """The right action as a left action ``a . h = h <- a`` of ``A_op`` on H."""
        A = bialgebra_of(self.A)
        a_op = HomBialgebra(A.algebra.op, A.coalgebra)
        return ModuleAction(a_op, self.H, transpose(self.right_action))

    @cached_property
    def right_cells(self) -> SparseTensor3:
        """``right_cells[h][a]`` is the cell ``right_module.act_cells[a][h]``."""
        return transpose(self.right_module.act_cells)


@dataclass(frozen=True)
class Witness:
    index: tuple[int, ...]
    lhs: Vector
    rhs: Vector


@dataclass(frozen=True)
class CheckEntry:
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


@dataclass(frozen=True)
class CheckReport:
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


def _sweep(axiom_id: str, indices, lhs_fn, rhs_fn) -> CheckEntry:
    """Compare two basis-indexed sparse expressions, recording the first
    failure with both sides made dense."""
    for idx in indices:
        lhs = lhs_fn(*idx)
        rhs = rhs_fn(*idx)
        if lhs.dim != rhs.dim:
            raise DimensionMismatch(
                f"{axiom_id} at {idx}: sides of lengths {lhs.dim} and {rhs.dim}"
            )
        if lhs != rhs:
            return CheckEntry(axiom_id, False, Witness(idx, dense(lhs), dense(rhs)))
    return CheckEntry(axiom_id, True)


def _associative_cases(first: SparseTensor3, second: SparseTensor3):
    """The basis triples ``(a, b, c)`` of a Hom-associativity sweep whose
    right side reads the cell ``first[a][b]`` and whose left side reads
    ``second[b][c]``, in lexicographic order, without those where both cells
    are empty: there both sides are zero, so the law holds."""
    filled = [[c for c, cell in enumerate(plane) if cell] for plane in second]
    every = range(len(second[0]))
    for a, plane in enumerate(first):
        for b, cell in enumerate(plane):
            for c in every if cell else filled[b]:
                yield a, b, c


def _entries(v: Sparse) -> dict[int, Sparse]:
    """The nonzero entries of ``v``, each as a one-entry vector."""
    return {i: sparse((c,)) for i, c in v.items()}


def _partial_forms(gram: Matrix, alpha_left: Matrix, alpha_right: Matrix):
    """For a bilinear form ``<,>`` with Gram matrix ``gram``, the maps
    ``x -> <alpha_left(e_i), x>`` (one per ``i``) and ``x -> <x, alpha_right(e_j)>``
    (one per ``j``) to the one-dimensional space."""
    first = tuple(_as_map(row) for row in mat_compose(alpha_left, gram))
    second = tuple(_as_map(row) for row in mat_compose(alpha_right, transpose(gram)))
    return first, second


def cocycle_products(sigma: TwoCocycle) -> SparseTensor3:
    """``sigma(h_1, k_1) h_2 k_2`` for a left cocycle and ``sigma(h_2, k_2) h_1 k_1``
    for a right one, at every basis pair ``(h, k)``.

    Both sides of the cocycle condition pair these with ``alpha^2`` of the
    third argument, and the cocycle twist applies ``alpha^-1`` to them.
    """
    B, gram = sigma.algebra, sigma.gram
    # a right cocycle pairs the second Sweedler legs: the first legs of the co-opposite
    coalgebra = B.coalgebra.op if sigma.side == "right" else B.coalgebra
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


# ---------------------------------------------------------------------------
# checkers


def check_hom_algebra(obj) -> CheckReport:
    """Unital Hom-associativity: alpha multiplicativity, twisted units and
    the Hom-associative law alpha(a)(bc) = (ab)alpha(c)."""
    A = algebra_of(obj)
    n = A.dim
    rng = range(n)
    mc, ar, e, unit = A.mul_cells, A.alpha_rows, basis(n), A.unit_vector

    checks = [
        _sweep(
            "algebra.alpha-multiplicative",
            product(rng, rng),
            lambda i, j: apply_map(ar, mc[i][j]),
            lambda i, j: bilinear_apply(mc, ar[i], ar[j]),
        ),
        _sweep(
            "algebra.alpha-fixes-unit",
            [()],
            lambda: apply_map(ar, unit),
            lambda: unit,
        ),
        _sweep(
            "algebra.left-unit",
            product(rng),
            lambda i: bilinear_apply(mc, unit, e[i]),
            lambda i: ar[i],
        ),
        _sweep(
            "algebra.right-unit",
            product(rng),
            lambda i: bilinear_apply(mc, e[i], unit),
            lambda i: ar[i],
        ),
        _sweep(
            "algebra.hom-associative",
            _associative_cases(mc, mc),
            lambda i, j, k: bilinear_apply(mc, ar[i], mc[j][k]),
            lambda i, j, k: bilinear_apply(mc, mc[i][j], ar[k]),
        ),
    ]
    return CheckReport(tuple(checks))


def check_hom_coalgebra(obj) -> CheckReport:
    """Counital Hom-coassociativity of a coalgebra."""
    C = coalgebra_of(obj)
    n = C.dim
    rng = range(n)
    ar, e, eps, delta = C.alpha_rows, basis(n), C.counit_map, C.comul_rows

    checks = [
        _sweep(
            "coalgebra.counit-alpha",
            product(rng),
            lambda i: apply_map(eps, ar[i]),
            lambda i: eps[i],
        ),
        _sweep(
            "coalgebra.alpha-comultiplicative",
            product(rng),
            lambda i: apply_map(delta, ar[i]),
            lambda i: apply_kron(ar, ar, delta[i]),
        ),
        _sweep(
            "coalgebra.left-counit",
            product(rng),
            lambda i: apply_kron(eps, e, delta[i]),
            lambda i: ar[i],
        ),
        _sweep(
            "coalgebra.right-counit",
            product(rng),
            lambda i: apply_kron(e, eps, delta[i]),
            lambda i: ar[i],
        ),
        _sweep(
            "coalgebra.hom-coassociative",
            product(rng),
            lambda i: apply_kron(delta, ar, delta[i]),
            lambda i: apply_kron(ar, delta, delta[i]),
        ),
    ]
    return CheckReport(tuple(checks))


def check_hom_bialgebra(obj) -> CheckReport:
    """Comultiplication and counit are morphisms of Hom-algebras."""
    B = bialgebra_of(obj)
    n, counit = B.dim, B.counit
    rng = range(n)
    mc, unit = B.algebra.mul_cells, B.algebra.unit_vector
    delta, eps = B.coalgebra.comul_rows, B.coalgebra.counit_map

    checks = [
        _sweep(
            "bialgebra.comul-multiplicative",
            product(rng, rng),
            lambda i, j: apply_map(delta, mc[i][j]),
            lambda i, j: tensor_power_product(mc, 2, delta[i], delta[j]),
        ),
        _sweep(
            "bialgebra.comul-unit",
            [()],
            lambda: apply_map(delta, unit),
            lambda: kron((unit,), (unit,))[0],
        ),
        _sweep(
            "bialgebra.counit-multiplicative",
            product(rng, rng),
            lambda i, j: apply_map(eps, mc[i][j]),
            lambda i, j: sparse((counit[i] * counit[j],)),
        ),
        _sweep(
            "bialgebra.counit-unit",
            [()],
            lambda: apply_map(eps, unit),
            lambda: sparse((ONE,)),
        ),
    ]
    return CheckReport(tuple(checks))


def check_antipode(H: HomHopfAlgebra) -> CheckReport:
    """Antipode identities plus the derived anti-(co)morphism properties."""
    n = H.dim
    rng = range(n)
    A, C = H.algebra, H.coalgebra
    mc, m, ar, S, e = A.mul_cells, A.mul_map, A.alpha_rows, H.antipode_rows, basis(n)
    delta, delta_op, eps, eta = C.comul_rows, C.comul_op_rows, C.counit_map, (A.unit_vector,)

    checks = [
        _sweep(
            "antipode.commutes-with-alpha",
            product(rng),
            lambda i: apply_map(S, ar[i]),
            lambda i: apply_map(ar, S[i]),
        ),
        _sweep(
            "antipode.left",
            product(rng),
            lambda i: apply_map(m, apply_kron(S, e, delta[i])),  # S(h_1) h_2
            lambda i: apply_map(eta, eps[i]),
        ),
        _sweep(
            "antipode.right",
            product(rng),
            lambda i: apply_map(m, apply_kron(e, S, delta[i])),  # h_1 S(h_2)
            lambda i: apply_map(eta, eps[i]),
        ),
        _sweep(
            "antipode.anti-comultiplicative",
            product(rng),
            lambda i: apply_map(delta, S[i]),
            lambda i: apply_kron(S, S, delta_op[i]),  # S(h_2) (x) S(h_1)
        ),
        _sweep(
            "antipode.anti-multiplicative",
            product(rng, rng),
            lambda i, j: apply_map(S, mc[i][j]),
            lambda i, j: bilinear_apply(mc, S[j], S[i]),
        ),
        _sweep(
            "antipode.preserves-counit",
            product(rng),
            lambda i: apply_map(eps, S[i]),
            lambda i: eps[i],
        ),
    ]
    return CheckReport(tuple(checks))


def run_hopf_suite(H: HomHopfAlgebra) -> CheckReport:
    """Full chain: algebra, coalgebra, bialgebra compatibility, antipode."""
    return merge_reports(
        check_hom_algebra(H),
        check_hom_coalgebra(H),
        check_hom_bialgebra(H),
        check_antipode(H),
    )


def check_module(m: ModuleAction) -> CheckReport:
    """Left module axioms for an action of a Hom-algebra."""
    actor = algebra_of(m.actor)
    na, nm = actor.dim, m.carrier.dim
    ra, rm = range(na), range(nm)
    act, am, e = m.act_cells, m.carrier.alpha_rows, basis(nm)
    aa, amul, unit = actor.alpha_rows, actor.mul_cells, actor.unit_vector

    checks = [
        _sweep(
            "module.unit-acts-as-alpha",
            product(rm),
            lambda i: bilinear_apply(act, unit, e[i]),
            lambda i: am[i],
        ),
        _sweep(
            "module.alpha-equivariant",
            product(ra, rm),
            lambda a, i: apply_map(am, act[a][i]),
            lambda a, i: bilinear_apply(act, aa[a], am[i]),
        ),
        _sweep(
            "module.hom-associative",
            _associative_cases(amul, act),
            lambda a, b, i: bilinear_apply(act, aa[a], act[b][i]),
            lambda a, b, i: bilinear_apply(act, amul[a][b], am[i]),
        ),
    ]
    return CheckReport(tuple(checks))


def check_module_algebra(m: ModuleAction) -> CheckReport:
    """Module axioms plus the module Hom-algebra compatibilities."""
    actor = bialgebra_of(m.actor)
    carrier = algebra_of(m.carrier)
    na, nc = actor.dim, carrier.dim
    act, cmc, cmul = m.act_cells, carrier.mul_cells, carrier.mul_map
    alpha2 = rows(alpha_power(actor.alpha, 2))
    e, unit, eta = basis(na), carrier.unit_vector, (carrier.unit_vector,)
    eps, delta = actor.coalgebra.counit_map, actor.coalgebra.comul_rows
    # acting_on[a] is the map h -> h . e_a
    acting_on = tuple(tuple(plane[a] for plane in act) for a in range(nc))

    checks = list(check_module(m).checks)
    checks.append(
        _sweep(
            "module-algebra.multiplicative",
            product(range(na), range(nc), range(nc)),
            lambda h, a, b: bilinear_apply(act, alpha2[h], cmc[a][b]),
            # (h_1 . a)(h_2 . b)
            lambda h, a, b: apply_map(cmul, apply_kron(acting_on[a], acting_on[b], delta[h])),
        )
    )
    checks.append(
        _sweep(
            "module-algebra.unit",
            product(range(na)),
            lambda h: bilinear_apply(act, e[h], unit),
            lambda h: apply_map(eta, eps[h]),
        )
    )
    return CheckReport(tuple(checks))


def check_comodule(c: ComoduleCoaction) -> CheckReport:
    """Right comodule axioms for a coaction ``rho: M -> M (x) C``."""
    coactor = coalgebra_of(c.coactor)
    rm = range(c.carrier.dim)
    am, ac, e = c.carrier.alpha_rows, coactor.alpha_rows, basis(c.carrier.dim)
    eps, rho, delta = coactor.counit_map, c.coact_rows, coactor.comul_rows

    checks = [
        _sweep(
            "comodule.counit-reduces-to-alpha",
            product(rm),
            lambda i: apply_kron(e, eps, rho[i]),
            lambda i: am[i],
        ),
        _sweep(
            "comodule.alpha-equivariant",
            product(rm),
            lambda i: apply_kron(am, ac, rho[i]),
            lambda i: apply_map(rho, am[i]),
        ),
        _sweep(
            "comodule.hom-coassociative",
            product(rm),
            lambda i: apply_kron(rho, ac, rho[i]),
            lambda i: apply_kron(am, delta, rho[i]),
        ),
    ]
    return CheckReport(tuple(checks))


def check_comodule_coalgebra(c: ComoduleCoaction) -> CheckReport:
    """Comodule axioms plus the comodule Hom-coalgebra compatibilities."""
    coactor = bialgebra_of(c.coactor)
    carrier = coalgebra_of(c.carrier)
    nm, nh = carrier.dim, coactor.dim
    alpha2 = rows(alpha_power(coactor.alpha, 2))
    rho, rho_terms, hmul = c.coact_rows, c.coact_terms, coactor.algebra.mul_cells
    comul_terms, delta, eps = carrier.comul_terms, carrier.comul_rows, carrier.counit_map
    eta = (coactor.algebra.unit_vector,)
    e, em = basis(nh), basis(nm)
    embed = tuple(kron((row,), em) for row in em)  # embed[d] is m -> e_d (x) m

    checks = list(check_comodule(c).checks)
    checks.append(
        _sweep(
            "comodule-coalgebra.counit",
            product(range(nm)),
            lambda i: apply_kron(eps, e, rho[i]),
            lambda i: apply_map(eta, eps[i]),
        )
    )
    checks.append(
        _sweep(
            "comodule-coalgebra.comultiplicative",
            product(range(nm)),
            # c_(0)1 (x) c_(0)2 (x) alpha_H^2(c_(1))
            lambda i: apply_kron(delta, alpha2, rho[i]),
            # c_1(0) (x) c_2(0) (x) c_1(1) c_2(1)
            lambda i: linear_combination(
                nm * nm * nh,
                (
                    (vc * v1, apply_kron(embed[d1], hmul[h1], rho[c2]))
                    for c1, c2, vc in comul_terms[i]
                    for d1, h1, v1 in rho_terms[c1]
                ),
            ),
        )
    )
    return CheckReport(tuple(checks))


def check_module_coalgebra(m: ModuleAction) -> CheckReport:
    """Module axioms plus comultiplicativity of a coalgebra-valued action."""
    actor = bialgebra_of(m.actor)
    carrier = coalgebra_of(m.carrier)
    nh, nc = actor.dim, carrier.dim
    act, actor_terms = m.act_cells, actor.coalgebra.comul_terms
    delta, eps = carrier.comul_rows, carrier.counit_map

    checks = list(check_module(m).checks)
    checks.append(
        _sweep(
            "module-coalgebra.comultiplicative",
            product(range(nh), range(nc)),
            lambda h, c: apply_map(delta, act[h][c]),
            # h_1 . c_1 (x) h_2 . c_2
            lambda h, c: linear_combination(
                nc * nc,
                ((v, apply_kron(act[h1], act[h2], delta[c])) for h1, h2, v in actor_terms[h]),
            ),
        )
    )
    checks.append(
        _sweep(
            "module-coalgebra.counit",
            product(range(nh), range(nc)),
            lambda h, c: apply_map(eps, act[h][c]),
            lambda h, c: sparse((actor.counit[h] * carrier.counit[c],)),
        )
    )
    return CheckReport(tuple(checks))


def check_cotwisting(C, D, phi: Matrix) -> CheckReport:
    """The four coherence conditions of a cotwisting map ``C (x) D -> D (x) C``.

    At each basis pair ``(c, d)`` the left side is a row-image map applied to
    ``phi(c (x) d)`` and the right side a chain of them applied to
    ``c (x) d``, leg by leg.
    """
    C = coalgebra_of(C)
    D = coalgebra_of(D)
    nc, nd = C.dim, D.dim
    _require(mat_shape(phi) == (nc * nd, nd * nc), "cotwisting map shape")

    cm, dm, ac, ad = C.comul_rows, D.comul_rows, C.alpha_rows, D.alpha_rows
    ic, id_, e = basis(nc), basis(nd), basis(nc * nd)
    eps_c, eps_d = C.counit_map, D.counit_map
    ph = rows(phi)

    def sweep(axiom_id, after_phi, rhs):
        return _sweep(
            axiom_id,
            product(range(nc), range(nd)),
            lambda c, d: after_phi(ph[c * nd + d]),
            lambda c, d: rhs(e[c * nd + d]),
        )

    checks = [
        sweep(
            "cotwisting.comul-second-factor",
            lambda v: apply_kron(dm, ac, v),
            # alpha_C (x) delta_D, then phi (x) id_D, then id_D (x) phi
            lambda v: apply_kron(id_, ph, apply_kron(ph, id_, apply_kron(ac, dm, v))),
        ),
        sweep(
            "cotwisting.comul-first-factor",
            lambda v: apply_kron(ad, cm, v),
            # delta_C (x) alpha_D, then id_C (x) phi, then phi (x) id_C
            lambda v: apply_kron(ph, ic, apply_kron(ic, ph, apply_kron(cm, ad, v))),
        ),
        sweep(
            "cotwisting.alpha-compatible",
            lambda v: apply_kron(ad, ac, v),
            lambda v: apply_map(ph, apply_kron(ac, ad, v)),
        ),
        # kill the C-leg of the output: eps_C(c^phi) d^phi = eps_C(c) d
        sweep(
            "cotwisting.counit-first-factor",
            lambda v: apply_kron(id_, eps_c, v),
            lambda v: apply_kron(eps_c, id_, v),
        ),
        sweep(
            "cotwisting.counit-second-factor",
            lambda v: apply_kron(eps_d, ic, v),
            lambda v: apply_kron(ic, eps_d, v),
        ),
    ]
    return CheckReport(tuple(checks))


def check_twisting(A, B, t: Matrix) -> CheckReport:
    """The three conditions of a twisting map ``B (x) A -> A (x) B``.

    Each side is a chain of row-image maps applied to one basis vector of
    its domain, leg by leg, so no map on a triple tensor product is built.
    """
    A = algebra_of(A)
    B = algebra_of(B)
    na, nb = A.dim, B.dim
    _require(mat_shape(t) == (nb * na, na * nb), "twisting map shape")

    am, bm, aa, ba = A.mul_map, B.mul_map, A.alpha_rows, B.alpha_rows
    ia, ib = basis(na), basis(nb)
    tr = rows(t)

    def sweep(axiom_id, dim, lhs, rhs):
        e = basis(dim)
        return _sweep(axiom_id, product(range(dim)), lambda i: lhs(e[i]), lambda i: rhs(e[i]))

    checks = [
        sweep(
            "twisting.alpha-compatible",
            nb * na,
            lambda v: apply_kron(aa, ba, apply_map(tr, v)),
            lambda v: apply_map(tr, apply_kron(ba, aa, v)),
        ),
        # on B (x) B (x) A: mu_B (x) alpha_A, then t, against
        # id_B (x) t, then t (x) id_B, then alpha_A (x) mu_B
        sweep(
            "twisting.second-factor-product",
            nb * nb * na,
            lambda v: apply_map(tr, apply_kron(bm, aa, v)),
            lambda v: apply_kron(aa, bm, apply_kron(tr, ib, apply_kron(ib, tr, v))),
        ),
        # on B (x) A (x) A: alpha_B (x) mu_A, then t, against
        # t (x) id_A, then id_A (x) t, then mu_A (x) alpha_B
        sweep(
            "twisting.first-factor-product",
            nb * na * na,
            lambda v: apply_map(tr, apply_kron(ba, am, v)),
            lambda v: apply_kron(am, ba, apply_kron(ia, tr, apply_kron(tr, ia, v))),
        ),
    ]
    return CheckReport(tuple(checks))


def check_matched_pair(mp: MatchedPairData) -> CheckReport:
    """Module Hom-coalgebra conditions on both actions plus the three
    compatibility laws of a matched pair.  The right action is checked as the
    left action of ``A_op`` that it is (``MatchedPairData.right_module``)."""
    A = bialgebra_of(mp.A)
    H = bialgebra_of(mp.H)
    na, nh = A.dim, H.dim
    left, right = mp.left_cells, mp.right_cells
    ah_i1, ah_i2, ah_i3 = (rows(alpha_power(H.alpha_inverse, k)) for k in (1, 2, 3))
    aa_i1, aa_i2, aa_i3 = (rows(alpha_power(A.alpha_inverse, k)) for k in (1, 2, 3))
    amul, hmul = A.algebra.mul_cells, H.algebra.mul_cells
    h_terms, a_terms = H.coalgebra.comul_terms, A.coalgebra.comul_terms
    delta_a, delta_a_op = A.coalgebra.comul_rows, A.coalgebra.comul_op_rows
    e_a, rh, ra = basis(na), range(nh), range(na)

    checks = [
        *_prefixed("matched-pair.left-action.", check_module_coalgebra(mp.left_module).checks),
        *_prefixed("matched-pair.right-action.", check_module_coalgebra(mp.right_module).checks),
    ]

    # lefts[g][a] is alpha^-2(g) -> alpha^-3(a)
    lefts = [[bilinear_apply(left, x, y) for y in aa_i3] for x in ah_i2]

    def product_acts_right_rhs(h, g, a):
        return linear_combination(
            nh,
            (
                (
                    vg * va,
                    bilinear_apply(
                        hmul,
                        apply_map(right[h], lefts[g1][a1]),
                        bilinear_apply(right, ah_i1[g2], aa_i2[a2]),
                    ),
                )
                for g1, g2, vg in h_terms[g]
                for a1, a2, va in a_terms[a]
            ),
        )

    def acts_on_product_rhs(h, a, b):
        return linear_combination(
            na,
            (
                (
                    vh * va,
                    bilinear_apply(
                        amul,
                        bilinear_apply(left, ah_i2[h1], aa_i1[a1]),
                        bilinear_apply(left, bilinear_apply(right, ah_i3[h2], aa_i2[a2]), e_a[b]),
                    ),
                )
                for h1, h2, vh in h_terms[h]
                for a1, a2, va in a_terms[a]
            ),
        )

    checks.append(
        _sweep(
            "matched-pair.product-acts-right",
            product(rh, rh, ra),
            lambda h, g, a: bilinear_apply(right, hmul[h][g], e_a[a]),
            product_acts_right_rhs,
        )
    )
    checks.append(
        _sweep(
            "matched-pair.acts-on-product",
            product(rh, ra, ra),
            lambda h, a, b: apply_map(left[h], amul[a][b]),
            acts_on_product_rhs,
        )
    )
    checks.append(
        _sweep(
            "matched-pair.exchange-symmetry",
            product(rh, ra),
            # h_1 <- a_1 (x) h_2 -> a_2  against  h_2 <- a_2 (x) h_1 -> a_1
            lambda h, a: linear_combination(
                nh * na,
                ((v, apply_kron(right[h1], left[h2], delta_a[a])) for h1, h2, v in h_terms[h]),
            ),
            lambda h, a: linear_combination(
                nh * na,
                ((v, apply_kron(right[h2], left[h1], delta_a_op[a])) for h1, h2, v in h_terms[h]),
            ),
        )
    )
    return CheckReport(tuple(checks))


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
    ra, rb = range(na), range(nb)
    e_a, e_b, a_alpha, b_alpha = basis(na), basis(nb), A.alpha_rows, B.alpha_rows
    eps_a, eps_b = A.coalgebra.counit_map, B.coalgebra.counit_map
    a_mul, b_mul = A.algebra.mul_cells, B.algebra.mul_cells
    a_unit, b_unit, s_a = A.algebra.unit_vector, B.algebra.unit_vector, A.antipode_rows
    sb_inv, form = rows(mat_inverse(B.antipode)), P.form
    # x -> <alpha^2(a_i), x> on B and x -> <x, alpha^2(b_j)> on A
    with_a, with_b = _partial_forms(gram, alpha_power(A.alpha, 2), alpha_power(B.alpha, 2))
    delta_a, delta_b = A.coalgebra.comul_rows, B.coalgebra.comul_rows

    checks = [
        # a PairingForm with a singular gram is refused when it is built
        make_entry("pairing.non-degenerate", True),
        _sweep(
            "pairing.unit-right",
            product(ra),
            lambda i: bilinear_apply(form, e_a[i], b_unit),
            lambda i: eps_a[i],
        ),
        _sweep(
            "pairing.unit-left",
            product(rb),
            lambda j: bilinear_apply(form, a_unit, e_b[j]),
            lambda j: eps_b[j],
        ),
        _sweep(
            "pairing.alpha-invariant",
            product(ra, rb),
            lambda i, j: bilinear_apply(form, a_alpha[i], b_alpha[j]),
            lambda i, j: form[i][j],
        ),
        _sweep(
            "pairing.mul-comul-left",
            product(ra, ra, rb),
            lambda i, ip, j: bilinear_apply(form, a_mul[i][ip], e_b[j]),
            lambda i, ip, j: apply_kron(with_a[i], with_a[ip], delta_b[j]),
        ),
        _sweep(
            "pairing.mul-comul-right",
            product(ra, rb, rb),
            lambda i, j, jp: bilinear_apply(form, e_a[i], b_mul[j][jp]),
            lambda i, j, jp: apply_kron(with_b[j], with_b[jp], delta_a[i]),
        ),
        _sweep(
            "pairing.mul-comul-right-swapped",
            product(ra, rb, rb),
            lambda i, j, jp: bilinear_apply(form, e_a[i], b_mul[j][jp]),
            lambda i, j, jp: apply_kron(with_b[jp], with_b[j], delta_a[i]),
        ),
        _sweep(
            "pairing.antipode",
            product(ra, rb),
            lambda i, j: bilinear_apply(form, s_a[i], e_b[j]),
            lambda i, j: bilinear_apply(form, e_a[i], sb_inv[j]),
        ),
    ]
    return CheckReport(tuple(checks))


def check_cocycle(sigma: TwoCocycle) -> CheckReport:
    """Structure-map invariance, the (left or right) cocycle law, and
    normality, each as a separate verdict."""
    B = sigma.algebra
    gram = sigma.gram
    rng = range(B.dim)
    alpha2 = alpha_power(B.alpha, 2)
    form, alpha = sigma.form, B.alpha_rows
    # left: sigma(l_1, k_1) l_2 k_2; right: sigma(l_2, k_2) l_1 k_1
    w = cocycle_products(sigma)
    # x -> (sigma(alpha^2(e_h), x))_h and x -> (sigma(x, alpha^2(e_k)))_k
    with_h = rows(transpose(mat_compose(alpha2, gram)))
    with_k = rows(mat_compose(gram, transpose(alpha2)))
    # paired_h[l][k][h] and paired_k[h][l][k], the two sides of the cocycle law,
    # as one-entry vectors; a missing entry is the shared zero vector
    zero = sparse((ZERO,))
    paired_h = [[_entries(apply_map(with_h, x)) for x in row] for row in w]
    paired_k = [[_entries(apply_map(with_k, x)) for x in row] for row in w]
    unit = B.algebra.unit_vector
    unit_left = apply_map(rows(gram), unit)
    unit_right = apply_map(rows(transpose(gram)), unit)

    checks = [
        _sweep(
            "cocycle.alpha-invariant",
            product(rng, rng),
            lambda i, j: bilinear_apply(form, alpha[i], alpha[j]),
            lambda i, j: form[i][j],
        ),
        # left:  sigma(alpha^2(h), l_2 k_2) sigma(l_1, k_1)
        #          = sigma(h_2 l_2, alpha^2(k)) sigma(h_1, l_1)
        # right: sigma(alpha^2(h), l_1 k_1) sigma(l_2, k_2)
        #          = sigma(h_1 l_1, alpha^2(k)) sigma(h_2, l_2)
        _sweep(
            f"cocycle.{sigma.side}-condition",
            # the sides read w[l][k] and w[h][l]
            _associative_cases(w, w),
            lambda h, l, k: paired_h[l][k].get(h, zero),
            lambda h, l, k: paired_k[h][l].get(k, zero),
        ),
        _sweep(
            "cocycle.normal",
            product(rng),
            lambda h: sparse((unit_left.get(h, ZERO), unit_right.get(h, ZERO))),
            lambda h: sparse((B.counit[h], B.counit[h])),
        ),
    ]
    return CheckReport(tuple(checks))


def check_quasitriangular(H, R: RMatrix) -> CheckReport:
    """The three quasitriangularity axioms; products are taken componentwise
    in the tensor-square and tensor-cube Hom-algebras."""
    B = bialgebra_of(H)
    n = B.dim
    mc, alpha, rvec = B.algebra.mul_cells, B.alpha_rows, R.vector
    e, unit = basis(n), (B.algebra.unit_vector,)
    delta, delta_op = B.coalgebra.comul_rows, B.coalgebra.comul_op_rows
    with_unit = kron(e, unit)  # x -> x (x) 1
    unit_with = kron(unit, e)  # x -> 1 (x) x

    r13 = apply_kron(with_unit, e, rvec)
    r23 = apply_kron(unit_with, e, rvec)
    r12 = apply_kron(e, with_unit, rvec)

    checks = [
        _sweep(
            "quasitriangular.intertwines-comul",
            product(range(n)),
            lambda i: tensor_power_product(mc, 2, delta_op[i], rvec),
            lambda i: tensor_power_product(mc, 2, rvec, delta[i]),
        ),
        _sweep(
            "quasitriangular.left-hexagon",
            [()],
            lambda: apply_kron(delta, alpha, rvec),
            lambda: tensor_power_product(mc, 3, r13, r23),
        ),
        _sweep(
            "quasitriangular.right-hexagon",
            [()],
            lambda: apply_kron(alpha, delta, rvec),
            lambda: tensor_power_product(mc, 3, r13, r12),
        ),
    ]
    return CheckReport(tuple(checks))


def check_comodule_algebra(A, c: ComoduleCoaction) -> CheckReport:
    """Right comodule axioms plus multiplicativity and unitality of the
    coaction on a Hom-algebra carrier."""
    alg = algebra_of(A)
    coactor = bialgebra_of(c.coactor)
    nm, nh = alg.dim, coactor.dim
    rho, rho_terms = c.coact_rows, c.coact_terms
    amul, hmul = alg.mul_cells, coactor.algebra.mul_cells

    checks = list(check_comodule(c).checks)
    checks.append(
        _sweep(
            "comodule-algebra.multiplicative",
            product(range(nm), range(nm)),
            lambda i, j: apply_map(rho, amul[i][j]),
            # a_(0) b_(0) (x) a_(1) b_(1)
            lambda i, j: linear_combination(
                nm * nh,
                ((v, apply_kron(amul[a], hmul[h], rho[j])) for a, h, v in rho_terms[i]),
            ),
        )
    )
    checks.append(
        _sweep(
            "comodule-algebra.unit",
            [()],
            lambda: apply_map(rho, alg.unit_vector),
            lambda: kron((alg.unit_vector,), (coactor.algebra.unit_vector,))[0],
        )
    )
    return CheckReport(tuple(checks))


def check_left_comodule_algebra(A, coactor) -> CheckReport:
    """Mirrored, left-sided comodule Hom-algebra conditions on the algebra
    ``A`` for the coaction ``rho: A -> C (x) A`` that is the coproduct of
    ``coactor`` (so both have one dimension): the right-sided conditions for
    the coaction ``A -> A (x) C^cop`` with the legs exchanged, each id
    prefixed ``left-``."""
    co = bialgebra_of(coactor)
    cop = HomBialgebra(co.algebra, co.coalgebra.op)
    report = check_comodule_algebra(A, ComoduleCoaction(cop, A, cop.comul))
    return CheckReport(tuple(_prefixed("left-", report.checks)))
