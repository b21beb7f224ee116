"""Hom-algebraic domain types and the axiom checkers.

Every checker quantifies over basis multi-indices (multilinearity reduces the
universally quantified identities to basis cases), compares exact vectors,
and returns a CheckReport.  A failing identity is data, not an error: the
report entry records the lexicographically first failing index together with
both sides' full coefficient vectors.

Structural invariants (shapes, invertibility of structure maps) are enforced
at construction; algebraic axioms are only ever checker verdicts, so broken
objects can be built deliberately to exercise the checkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import DimensionMismatch, SingularMatrixError
from .exactlin import (
    ONE,
    Matrix,
    SparseMatrix,
    SparseTensor3,
    Tensor3,
    Vector,
    alpha_power,
    apply_kron,
    apply_map,
    bilinear_apply,
    cells,
    comul_matrix,
    identity,
    is_invertible,
    kron,
    linear_combination,
    mat_compose,
    mat_inverse,
    mat_shape,
    mul_matrix,
    rows,
    sparse,
    tensor3_shape,
    tensor_power_product,
    terms,
    transpose,
    vec_scale,
)

# ---------------------------------------------------------------------------
# domain types


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DimensionMismatch(message)


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
        if not is_invertible(self.alpha):
            raise SingularMatrixError("structure map must be invertible")


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
        if not is_invertible(self.alpha):
            raise SingularMatrixError("structure map must be invertible")


@dataclass(frozen=True)
class HomBialgebra:
    algebra: HomAlgebra
    coalgebra: HomCoalgebra

    def __post_init__(self):
        _require(self.algebra.dim == self.coalgebra.dim, "bialgebra factor dimensions")
        _require(self.algebra.alpha == self.coalgebra.alpha, "bialgebra structure maps")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def mul(self) -> Tensor3:
        return self.algebra.mul

    @property
    def unit(self) -> Vector:
        return self.algebra.unit

    @property
    def comul(self) -> Tensor3:
        return self.coalgebra.comul

    @property
    def counit(self) -> Vector:
        return self.coalgebra.counit

    @property
    def alpha(self) -> Matrix:
        return self.algebra.alpha


@dataclass(frozen=True)
class HomHopfAlgebra:
    bialgebra: HomBialgebra
    antipode: Matrix

    def __post_init__(self):
        n = self.bialgebra.dim
        _require(mat_shape(self.antipode) == (n, n), "antipode shape")

    @property
    def dim(self) -> int:
        return self.bialgebra.dim

    @property
    def mul(self) -> Tensor3:
        return self.bialgebra.mul

    @property
    def unit(self) -> Vector:
        return self.bialgebra.unit

    @property
    def comul(self) -> Tensor3:
        return self.bialgebra.comul

    @property
    def counit(self) -> Vector:
        return self.bialgebra.counit

    @property
    def alpha(self) -> Matrix:
        return self.bialgebra.alpha

    @property
    def algebra(self) -> HomAlgebra:
        return self.bialgebra.algebra

    @property
    def coalgebra(self) -> HomCoalgebra:
        return self.bialgebra.coalgebra


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
    raise TypeError(f"no algebra structure on {type(obj).__name__}")


def coalgebra_of(obj) -> HomCoalgebra:
    """Coerce any of the structure types to its underlying Hom-coalgebra."""
    if isinstance(obj, HomCoalgebra):
        return obj
    if isinstance(obj, HomBialgebra):
        return obj.coalgebra
    if isinstance(obj, HomHopfAlgebra):
        return obj.bialgebra.coalgebra
    raise TypeError(f"no coalgebra structure on {type(obj).__name__}")


def bialgebra_of(obj) -> HomBialgebra:
    if isinstance(obj, HomBialgebra):
        return obj
    if isinstance(obj, HomHopfAlgebra):
        return obj.bialgebra
    raise TypeError(f"no bialgebra structure on {type(obj).__name__}")


@dataclass(frozen=True)
class ModuleAction:
    """A left action of ``actor`` on ``carrier``: ``act[h][m][m']``."""

    actor: object
    carrier: object
    act: Tensor3

    def __post_init__(self):
        na, nc = self.actor.dim, self.carrier.dim
        _require(tensor3_shape(self.act) == (na, nc, nc), "action tensor shape")
        if not is_invertible(self.carrier.alpha):
            raise SingularMatrixError("carrier structure map must be invertible")


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


@dataclass(frozen=True)
class PairingForm:
    """A non-degenerate bilinear form linking two Hom-Hopf algebras.

    ``gram[i][j]`` is the pairing of the i-th basis vector of ``left`` with
    the j-th basis vector of ``right``.
    """

    left: HomHopfAlgebra
    right: HomHopfAlgebra
    gram: Matrix

    def __post_init__(self):
        _require(mat_shape(self.gram) == (self.left.dim, self.right.dim), "gram shape")
        if not is_invertible(self.gram):
            raise SingularMatrixError("pairing must be non-degenerate")


@dataclass(frozen=True)
class TwoCocycle:
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

    def as_vector(self) -> Vector:
        return tuple(c for row in self.entries for c in row)


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
    """Compare two basis-indexed expressions, recording the first failure."""
    for idx in indices:
        lhs = lhs_fn(*idx)
        rhs = rhs_fn(*idx)
        if lhs != rhs:
            return CheckEntry(axiom_id, False, Witness(idx, tuple(lhs), tuple(rhs)))
    return CheckEntry(axiom_id, True)


def _as_map(covector: Vector) -> SparseMatrix:
    """A covector as a row-image map to the one-dimensional space."""
    return rows(transpose((covector,)))


def _op_comul(comul: Tensor3) -> Tensor3:
    """The co-opposite comultiplication ``delta(e_i) = sum e_i2 (x) e_i1``."""
    return tuple(transpose(plane) for plane in comul)


def _form(gram: Matrix) -> SparseTensor3:
    """A bilinear form as a bilinear map to the one-dimensional space."""
    return cells(tuple(tuple((g,) for g in row) for row in gram))


def _partial_forms(gram: Matrix, alpha_left: Matrix, alpha_right: Matrix):
    """For a bilinear form ``<,>`` with Gram matrix ``gram``, the maps
    ``x -> <alpha_left(e_i), x>`` (one per ``i``) and ``x -> <x, alpha_right(e_j)>``
    (one per ``j``) to the one-dimensional space."""
    first = tuple(_as_map(row) for row in mat_compose(alpha_left, gram))
    second = tuple(_as_map(row) for row in mat_compose(alpha_right, transpose(gram)))
    return first, second


def cocycle_products(sigma: TwoCocycle) -> Tensor3:
    """``sigma(h_1, k_1) h_2 k_2`` for a left cocycle and ``sigma(h_2, k_2) h_1 k_1``
    for a right one, at every basis pair ``(h, k)``.

    Both sides of the cocycle condition pair these with ``alpha^2`` of the
    third argument, and the cocycle twist applies ``alpha^-1`` to them.
    """
    B, gram = sigma.algebra, sigma.gram
    n = B.dim
    # a right cocycle pairs the second Sweedler legs: swap the legs
    sw = terms(B.comul if sigma.side == "left" else _op_comul(B.comul))
    return tuple(
        tuple(
            linear_combination(
                n,
                (
                    (vh * vk * gram[h1][k1], B.mul[h2][k2])
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
    n, alpha = A.dim, A.alpha
    rng = range(n)
    mc, ar, e, unit = cells(A.mul), rows(alpha), rows(identity(n)), sparse(A.unit)

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
            lambda: A.unit,
        ),
        _sweep(
            "algebra.left-unit",
            product(rng),
            lambda i: bilinear_apply(mc, unit, e[i]),
            lambda i: alpha[i],
        ),
        _sweep(
            "algebra.right-unit",
            product(rng),
            lambda i: bilinear_apply(mc, e[i], unit),
            lambda i: alpha[i],
        ),
        _sweep(
            "algebra.hom-associative",
            product(rng, rng, rng),
            lambda i, j, k: bilinear_apply(mc, ar[i], mc[j][k]),
            lambda i, j, k: bilinear_apply(mc, mc[i][j], ar[k]),
        ),
    ]
    return CheckReport(tuple(checks))


def check_hom_coalgebra(obj) -> CheckReport:
    """Counital Hom-coassociativity of a coalgebra."""
    C = coalgebra_of(obj)
    n, counit, alpha = C.dim, C.counit, C.alpha
    rng = range(n)
    ar, e, eps = rows(alpha), rows(identity(n)), _as_map(counit)
    delta = rows(comul_matrix(C.comul))

    checks = [
        _sweep(
            "coalgebra.counit-alpha",
            product(rng),
            lambda i: apply_map(eps, ar[i]),
            lambda i: (counit[i],),
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
            lambda i: alpha[i],
        ),
        _sweep(
            "coalgebra.right-counit",
            product(rng),
            lambda i: apply_kron(e, eps, delta[i]),
            lambda i: alpha[i],
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
    n, unit, counit = B.dim, B.unit, B.counit
    rng = range(n)
    mc, su = cells(B.mul), sparse(unit)
    delta = rows(comul_matrix(B.comul))
    eps = _as_map(counit)

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
            lambda: apply_map(delta, su),
            lambda: kron((unit,), (unit,))[0],
        ),
        _sweep(
            "bialgebra.counit-multiplicative",
            product(rng, rng),
            lambda i, j: apply_map(eps, mc[i][j]),
            lambda i, j: (counit[i] * counit[j],),
        ),
        _sweep(
            "bialgebra.counit-unit",
            [()],
            lambda: apply_map(eps, su),
            lambda: (ONE,),
        ),
    ]
    return CheckReport(tuple(checks))


def check_antipode(H: HomHopfAlgebra) -> CheckReport:
    """Antipode identities plus the derived anti-(co)morphism properties."""
    n, unit, counit = H.dim, H.unit, H.counit
    rng = range(n)
    mc, ar, S, e = cells(H.mul), rows(H.alpha), rows(H.antipode), rows(identity(n))
    m = rows(mul_matrix(H.mul))
    delta = rows(comul_matrix(H.comul))
    delta_op = rows(comul_matrix(_op_comul(H.comul)))
    eps = _as_map(counit)

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
            lambda i: apply_map(m, sparse(apply_kron(S, e, delta[i]))),  # S(h_1) h_2
            lambda i: vec_scale(counit[i], unit),
        ),
        _sweep(
            "antipode.right",
            product(rng),
            lambda i: apply_map(m, sparse(apply_kron(e, S, delta[i]))),  # h_1 S(h_2)
            lambda i: vec_scale(counit[i], unit),
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
            lambda i: (counit[i],),
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
    alpha_m = m.carrier.alpha
    na, nm = actor.dim, m.carrier.dim
    ra, rm = range(na), range(nm)
    act, am, e = cells(m.act), rows(alpha_m), rows(identity(nm))
    aa, amul, unit = rows(actor.alpha), cells(actor.mul), sparse(actor.unit)

    checks = [
        _sweep(
            "module.unit-acts-as-alpha",
            product(rm),
            lambda i: bilinear_apply(act, unit, e[i]),
            lambda i: alpha_m[i],
        ),
        _sweep(
            "module.alpha-equivariant",
            product(ra, rm),
            lambda a, i: apply_map(am, act[a][i]),
            lambda a, i: bilinear_apply(act, aa[a], am[i]),
        ),
        _sweep(
            "module.hom-associative",
            product(ra, ra, rm),
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
    act, cmc = cells(m.act), cells(carrier.mul)
    alpha2 = rows(alpha_power(actor.alpha, 2))
    e, unit = rows(identity(na)), sparse(carrier.unit)
    cmul = rows(mul_matrix(carrier.mul))
    delta = rows(comul_matrix(actor.comul))
    # acting_on[a] is the map h -> h . e_a
    acting_on = tuple(rows(tuple(m.act[h][a] for h in range(na))) for a in range(nc))

    checks = list(check_module(m).checks)
    checks.append(
        _sweep(
            "module-algebra.multiplicative",
            product(range(na), range(nc), range(nc)),
            lambda h, a, b: bilinear_apply(act, alpha2[h], cmc[a][b]),
            # (h_1 . a)(h_2 . b)
            lambda h, a, b: apply_map(
                cmul, sparse(apply_kron(acting_on[a], acting_on[b], delta[h]))
            ),
        )
    )
    checks.append(
        _sweep(
            "module-algebra.unit",
            product(range(na)),
            lambda h: bilinear_apply(act, e[h], unit),
            lambda h: vec_scale(actor.counit[h], carrier.unit),
        )
    )
    return CheckReport(tuple(checks))


def check_comodule(c: ComoduleCoaction) -> CheckReport:
    """Right comodule axioms for a coaction ``rho: M -> M (x) C``."""
    coactor = coalgebra_of(c.coactor)
    alpha_m = c.carrier.alpha
    rm = range(c.carrier.dim)
    am, ac, e = rows(alpha_m), rows(coactor.alpha), rows(identity(c.carrier.dim))
    eps = _as_map(coactor.counit)
    rho = rows(comul_matrix(c.coact))
    delta = rows(comul_matrix(coactor.comul))

    checks = [
        _sweep(
            "comodule.counit-reduces-to-alpha",
            product(rm),
            lambda i: apply_kron(e, eps, rho[i]),
            lambda i: alpha_m[i],
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
    rho = rows(comul_matrix(c.coact))
    rho_terms = terms(c.coact)
    comul_terms = terms(carrier.comul)
    delta = rows(comul_matrix(carrier.comul))
    eps = _as_map(carrier.counit)
    e = rows(identity(nh))
    em = identity(nm)
    embed = tuple(rows(kron((row,), em)) for row in em)  # embed[d] is m -> e_d (x) m
    hmul = cells(coactor.mul)

    checks = list(check_comodule(c).checks)
    checks.append(
        _sweep(
            "comodule-coalgebra.counit",
            product(range(nm)),
            lambda i: apply_kron(eps, e, rho[i]),
            lambda i: vec_scale(carrier.counit[i], coactor.unit),
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
    act = cells(m.act)
    actor_terms = terms(actor.comul)
    delta = rows(comul_matrix(carrier.comul))
    eps = _as_map(carrier.counit)

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
            lambda h, c: (actor.counit[h] * carrier.counit[c],),
        )
    )
    return CheckReport(tuple(checks))


def check_cotwisting(C, D, phi: Matrix) -> CheckReport:
    """The four coherence conditions of a cotwisting map ``C (x) D -> D (x) C``."""
    C = coalgebra_of(C)
    D = coalgebra_of(D)
    nc, nd = C.dim, D.dim
    _require(mat_shape(phi) == (nc * nd, nd * nc), "cotwisting map shape")

    cmat = comul_matrix(C.comul)
    dmat = comul_matrix(D.comul)
    i_c, i_d = identity(nc), identity(nd)
    ic, id_ = rows(i_c), rows(i_d)
    eps_c, eps_d = _as_map(C.counit), _as_map(D.counit)
    phi_rows = rows(phi)

    lhs1 = mat_compose(phi, kron(dmat, C.alpha))
    rhs1 = mat_compose(mat_compose(kron(C.alpha, dmat), kron(phi, i_d)), kron(i_d, phi))
    lhs2 = mat_compose(phi, kron(D.alpha, cmat))
    rhs2 = mat_compose(mat_compose(kron(cmat, D.alpha), kron(i_c, phi)), kron(phi, i_c))
    lhs3 = mat_compose(phi, kron(D.alpha, C.alpha))
    rhs3 = mat_compose(kron(C.alpha, D.alpha), phi)

    pairs = list(product(range(nc), range(nd)))

    def row(m, c, d):
        return m[c * nd + d]

    checks = [
        _sweep(
            "cotwisting.comul-second-factor",
            pairs,
            lambda c, d: row(lhs1, c, d),
            lambda c, d: row(rhs1, c, d),
        ),
        _sweep(
            "cotwisting.comul-first-factor",
            pairs,
            lambda c, d: row(lhs2, c, d),
            lambda c, d: row(rhs2, c, d),
        ),
        _sweep(
            "cotwisting.alpha-compatible",
            pairs,
            lambda c, d: row(lhs3, c, d),
            lambda c, d: row(rhs3, c, d),
        ),
        _sweep(
            "cotwisting.counit-first-factor",
            pairs,
            # kill the C-leg of the output: eps_C(c^phi) d^phi
            lambda c, d: apply_kron(id_, eps_c, row(phi_rows, c, d)),
            lambda c, d: vec_scale(C.counit[c], i_d[d]),
        ),
        _sweep(
            "cotwisting.counit-second-factor",
            pairs,
            lambda c, d: apply_kron(eps_d, ic, row(phi_rows, c, d)),
            lambda c, d: vec_scale(D.counit[d], i_c[c]),
        ),
    ]
    return CheckReport(tuple(checks))


def check_twisting(A, B, t: Matrix) -> CheckReport:
    """The three conditions of a twisting map ``B (x) A -> A (x) B``."""
    A = algebra_of(A)
    B = algebra_of(B)
    na, nb = A.dim, B.dim
    _require(mat_shape(t) == (nb * na, na * nb), "twisting map shape")

    amat = mul_matrix(A.mul)
    bmat = mul_matrix(B.mul)
    i_a, i_b = identity(na), identity(nb)

    lhs1 = mat_compose(t, kron(A.alpha, B.alpha))
    rhs1 = mat_compose(kron(B.alpha, A.alpha), t)
    lhs2 = mat_compose(kron(bmat, A.alpha), t)
    rhs2 = mat_compose(mat_compose(kron(i_b, t), kron(t, i_b)), kron(A.alpha, bmat))
    lhs3 = mat_compose(kron(B.alpha, amat), t)
    rhs3 = mat_compose(mat_compose(kron(t, i_a), kron(i_a, t)), kron(amat, B.alpha))

    def sweep_matrix(axiom_id, lhs, rhs):
        return _sweep(
            axiom_id,
            [(i,) for i in range(len(lhs))],
            lambda i: lhs[i],
            lambda i: rhs[i],
        )

    checks = [
        sweep_matrix("twisting.alpha-compatible", lhs1, rhs1),
        sweep_matrix("twisting.second-factor-product", lhs2, rhs2),
        sweep_matrix("twisting.first-factor-product", lhs3, rhs3),
    ]
    return CheckReport(tuple(checks))


def check_matched_pair(mp: MatchedPairData) -> CheckReport:
    """Module Hom-coalgebra conditions on both actions plus the three
    compatibility laws of a matched pair."""
    A = bialgebra_of(mp.A)
    H = bialgebra_of(mp.H)
    na, nh = A.dim, H.dim
    left, right = cells(mp.left_action), cells(mp.right_action)
    ah_i1, ah_i2, ah_i3 = (rows(alpha_power(H.alpha, -k)) for k in (1, 2, 3))
    aa_i1, aa_i2, aa_i3 = (rows(alpha_power(A.alpha, -k)) for k in (1, 2, 3))
    ah, aa, amul, hmul = rows(H.alpha), rows(A.alpha), cells(A.mul), cells(H.mul)
    h_terms, a_terms = terms(H.comul), terms(A.comul)
    delta_h, delta_a = rows(comul_matrix(H.comul)), rows(comul_matrix(A.comul))
    delta_a_op = rows(comul_matrix(_op_comul(A.comul)))
    eps_h = _as_map(H.counit)
    e_a, a_unit = rows(identity(na)), sparse(A.unit)

    checks = list(
        _prefixed(
            "matched-pair.left-action.",
            check_module_coalgebra(ModuleAction(H, A, mp.left_action)).checks,
        )
    )

    # right module Hom-coalgebra axioms for the action of A on H
    rh, ra = range(nh), range(na)

    checks.append(
        _sweep(
            "matched-pair.right-action.unit",
            product(rh),
            lambda h: apply_map(right[h], a_unit),
            lambda h: H.alpha[h],
        )
    )
    checks.append(
        _sweep(
            "matched-pair.right-action.alpha-equivariant",
            product(rh, ra),
            lambda h, a: apply_map(ah, right[h][a]),
            lambda h, a: bilinear_apply(right, ah[h], aa[a]),
        )
    )
    checks.append(
        _sweep(
            "matched-pair.right-action.hom-associative",
            product(rh, ra, ra),
            lambda h, a, b: bilinear_apply(right, right[h][a], aa[b]),
            lambda h, a, b: bilinear_apply(right, ah[h], amul[a][b]),
        )
    )
    checks.append(
        _sweep(
            "matched-pair.right-action.comultiplicative",
            product(rh, ra),
            lambda h, a: apply_map(delta_h, right[h][a]),
            # h_1 <- a_1 (x) h_2 <- a_2
            lambda h, a: linear_combination(
                nh * nh,
                ((v, apply_kron(right[h1], right[h2], delta_a[a])) for h1, h2, v in h_terms[h]),
            ),
        )
    )
    checks.append(
        _sweep(
            "matched-pair.right-action.counit",
            product(rh, ra),
            lambda h, a: apply_map(eps_h, right[h][a]),
            lambda h, a: (H.counit[h] * A.counit[a],),
        )
    )

    # lefts[g][a] is alpha^-2(g) -> alpha^-3(a)
    lefts = [[sparse(bilinear_apply(left, x, y)) for y in aa_i3] for x in ah_i2]

    def product_acts_right_rhs(h, g, a):
        return linear_combination(
            nh,
            (
                (
                    vg * va,
                    bilinear_apply(
                        hmul,
                        sparse(apply_map(right[h], lefts[g1][a1])),
                        sparse(bilinear_apply(right, ah_i1[g2], aa_i2[a2])),
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
                        sparse(bilinear_apply(left, ah_i2[h1], aa_i1[a1])),
                        sparse(
                            bilinear_apply(
                                left, sparse(bilinear_apply(right, ah_i3[h2], aa_i2[a2])), e_a[b]
                            )
                        ),
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
    e_a, e_b = rows(identity(na)), rows(identity(nb))
    a_mul, b_mul, a_alpha, b_alpha = cells(A.mul), cells(B.mul), rows(A.alpha), rows(B.alpha)
    a_unit, b_unit, s_a = sparse(A.unit), sparse(B.unit), rows(A.antipode)
    sb_inv = rows(mat_inverse(B.antipode))
    form = _form(gram)
    # x -> <alpha^2(a_i), x> on B and x -> <x, alpha^2(b_j)> on A
    with_a, with_b = _partial_forms(gram, alpha_power(A.alpha, 2), alpha_power(B.alpha, 2))
    delta_a, delta_b = rows(comul_matrix(A.comul)), rows(comul_matrix(B.comul))

    checks = [
        make_entry("pairing.non-degenerate", is_invertible(gram)),
        _sweep(
            "pairing.unit-right",
            product(ra),
            lambda i: bilinear_apply(form, e_a[i], b_unit),
            lambda i: (A.counit[i],),
        ),
        _sweep(
            "pairing.unit-left",
            product(rb),
            lambda j: bilinear_apply(form, a_unit, e_b[j]),
            lambda j: (B.counit[j],),
        ),
        _sweep(
            "pairing.alpha-invariant",
            product(ra, rb),
            lambda i, j: bilinear_apply(form, a_alpha[i], b_alpha[j]),
            lambda i, j: (gram[i][j],),
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
    form, alpha = _form(gram), rows(B.alpha)
    # left: sigma(l_1, k_1) l_2 k_2; right: sigma(l_2, k_2) l_1 k_1
    w = cells(cocycle_products(sigma))
    # x -> (sigma(alpha^2(e_h), x))_h and x -> (sigma(x, alpha^2(e_k)))_k
    with_h = rows(transpose(mat_compose(alpha2, gram)))
    with_k = rows(mat_compose(gram, transpose(alpha2)))
    # paired_h[l][k][h] and paired_k[h][l][k], the two sides of the cocycle law
    paired_h = [[apply_map(with_h, x) for x in row] for row in w]
    paired_k = [[apply_map(with_k, x) for x in row] for row in w]
    unit = sparse(B.unit)
    unit_left = apply_map(rows(gram), unit)
    unit_right = apply_map(rows(transpose(gram)), unit)

    checks = [
        _sweep(
            "cocycle.alpha-invariant",
            product(rng, rng),
            lambda i, j: bilinear_apply(form, alpha[i], alpha[j]),
            lambda i, j: (gram[i][j],),
        ),
        # left:  sigma(alpha^2(h), l_2 k_2) sigma(l_1, k_1)
        #          = sigma(h_2 l_2, alpha^2(k)) sigma(h_1, l_1)
        # right: sigma(alpha^2(h), l_1 k_1) sigma(l_2, k_2)
        #          = sigma(h_1 l_1, alpha^2(k)) sigma(h_2, l_2)
        _sweep(
            f"cocycle.{sigma.side}-condition",
            product(rng, rng, rng),
            lambda h, l, k: (paired_h[l][k][h],),
            lambda h, l, k: (paired_k[h][l][k],),
        ),
        _sweep(
            "cocycle.normal",
            product(rng),
            lambda h: (unit_left[h], unit_right[h]),
            lambda h: (B.counit[h], B.counit[h]),
        ),
    ]
    return CheckReport(tuple(checks))


def check_quasitriangular(H, R: RMatrix) -> CheckReport:
    """The three quasitriangularity axioms; products are taken componentwise
    in the tensor-square and tensor-cube Hom-algebras."""
    B = bialgebra_of(H)
    n = B.dim
    mc, alpha = cells(B.mul), rows(B.alpha)
    rvec = sparse(R.as_vector())
    e = rows(identity(n))
    delta = rows(comul_matrix(B.comul))
    delta_op = rows(comul_matrix(_op_comul(B.comul)))
    with_unit = rows(kron(identity(n), (B.unit,)))  # x -> x (x) 1
    unit_with = rows(kron((B.unit,), identity(n)))  # x -> 1 (x) x

    r13 = sparse(apply_kron(with_unit, e, rvec))
    r23 = sparse(apply_kron(unit_with, e, rvec))
    r12 = sparse(apply_kron(e, with_unit, rvec))

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
    rho = rows(comul_matrix(c.coact))
    rho_terms = terms(c.coact)
    amul, hmul = cells(alg.mul), cells(coactor.mul)

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
            lambda: apply_map(rho, sparse(alg.unit)),
            lambda: kron((alg.unit,), (coactor.unit,))[0],
        )
    )
    return CheckReport(tuple(checks))


def check_left_comodule_algebra(A, coactor, coact: Tensor3) -> CheckReport:
    """Mirrored, left-sided comodule Hom-algebra conditions.

    ``coact[m][c][m']`` holds the ``e_c (x) e_m'`` coefficient of
    ``rho(e_m)`` for a coaction ``rho: M -> C (x) M``.
    """
    alg = algebra_of(A)
    co = bialgebra_of(coactor)
    nm, nh = alg.dim, co.dim
    alpha_m = alg.alpha
    rm = range(nm)
    am, ac, e = rows(alpha_m), rows(co.alpha), rows(identity(nm))
    amul, hmul = cells(alg.mul), cells(co.mul)
    eps = _as_map(co.counit)
    rho = rows(comul_matrix(coact))
    rho_terms = terms(coact)
    delta = rows(comul_matrix(co.comul))

    checks = [
        _sweep(
            "left-comodule.counit-reduces-to-alpha",
            product(rm),
            lambda i: apply_kron(eps, e, rho[i]),
            lambda i: alpha_m[i],
        ),
        _sweep(
            "left-comodule.alpha-equivariant",
            product(rm),
            lambda i: apply_kron(ac, am, rho[i]),
            lambda i: apply_map(rho, am[i]),
        ),
        _sweep(
            "left-comodule.hom-coassociative",
            product(rm),
            lambda i: apply_kron(delta, am, rho[i]),
            lambda i: apply_kron(ac, rho, rho[i]),
        ),
        _sweep(
            "left-comodule-algebra.multiplicative",
            product(rm, rm),
            lambda i, j: apply_map(rho, amul[i][j]),
            lambda i, j: linear_combination(
                nh * nm,
                ((v, apply_kron(hmul[b], amul[a], rho[j])) for b, a, v in rho_terms[i]),
            ),
        ),
        _sweep(
            "left-comodule-algebra.unit",
            [()],
            lambda: apply_map(rho, sparse(alg.unit)),
            lambda: kron((co.unit,), (alg.unit,))[0],
        ),
    ]
    return CheckReport(tuple(checks))
