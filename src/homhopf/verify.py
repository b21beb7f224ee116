"""Theorem-level verification suites.

Each suite composes constructions with the generic checkers and returns a
SuiteResult: a named list of CheckReports, one per step, plus the overall
verdict and wall time.  Suites never trust construction code: every composite
object they build is pushed through the generic axiom checkers, and tensor
comparisons are entrywise over all structure constants.  Identification maps
between differently ordered tensor factors are recorded in step notes so a
failed comparison distinguishes a wrong identity from a wrong identification.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING

from .constructions import (
    PairedDouble,
    _product_dim,
    bicross_hypotheses,
    bicrossproduct,
    canonical_cocycles,
    canonical_r_matrix,
    cocycle_twist,
    dual,
    dual_pair_double,
    drinfeld_double,
    drinfeld_double_tilde,
    evaluation_pairing,
    heisenberg_double,
    opposite,
    self_bicross,
    self_bicross_data,
)
from .errors import CrossCheckFailed
from .exactlin import (
    ONE,
    ZERO,
    Matrix,
    Tensor3,
    basis,
    basis_vector,
    comul_matrix,
    compose,
    kron,
    rows,
    sparse,
    tensor3_shape,
)
from .structures import (
    CheckEntry,
    CheckReport,
    make_entry,
    ComoduleCoaction,
    HomHopfAlgebra,
    ModuleAction,
    Record,
    check_cocycle,
    check_comodule_algebra,
    check_comodule_coalgebra,
    check_dual_pair,
    check_left_comodule_algebra,
    check_module_algebra,
    check_quasitriangular,
    check_twisting,
    merge_reports,
    run_hopf_suite,
    _sweep,
)

if TYPE_CHECKING:
    from .catalog import BicrossGolden, GroupData


class SuiteStep(Record):
    name: str
    report: CheckReport
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.report.ok


class SuiteResult(Record):
    suite: str
    steps: tuple[SuiteStep, ...]
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps)


def _timed(suite: str, steps: list[SuiteStep], started: float) -> SuiteResult:
    return SuiteResult(suite, tuple(steps), time.perf_counter() - started)


def _dense_sweep(axiom_id: str, indices, lhs_fn, rhs_fn) -> CheckEntry:
    """``_sweep`` over two basis-indexed dense expressions: only the cases
    whose dense sides differ are made sparse and compared."""
    cases = ((idx, lhs_fn(*idx), rhs_fn(*idx)) for idx in indices)
    return _sweep(axiom_id, ((idx, sparse(a), sparse(b)) for idx, a, b in cases if a != b))


def _tensor_equal(axiom_id: str, lhs: Tensor3, rhs: Tensor3) -> CheckEntry:
    n1, n2, _ = tensor3_shape(lhs)
    return _dense_sweep(
        axiom_id, product(range(n1), range(n2)), lambda i, j: lhs[i][j], lambda i, j: rhs[i][j]
    )


def _matrix_equal(axiom_id: str, lhs: Matrix, rhs: Matrix) -> CheckEntry:
    return _dense_sweep(axiom_id, product(range(len(lhs))), lambda i: lhs[i], lambda i: rhs[i])


def _algebra_agrees(prefix: str, lhs, rhs) -> CheckReport:
    """Entrywise agreement of two Hom-algebras on the same space."""
    return CheckReport(
        (
            _tensor_equal(prefix + ".mul", lhs.mul, rhs.mul),
            _dense_sweep(prefix + ".unit", [()], lambda: lhs.unit, lambda: rhs.unit),
            _matrix_equal(prefix + ".alpha", lhs.alpha, rhs.alpha),
        )
    )


def verify_thm_2_6(
    A: HomHopfAlgebra,
    H: HomHopfAlgebra,
    act: ModuleAction,
    co: ComoduleCoaction,
    golden: BicrossGolden | None = None,
) -> SuiteResult:
    """Verify the bicrossproduct theorem on concrete data: hypotheses, the
    construction, its full Hopf suite, and optionally a diff against golden
    tables."""
    started = time.perf_counter()
    _product_dim(A.dim, H.dim)  # refused before the O(n^3) precondition sweeps
    steps = [
        SuiteStep("module-algebra action", check_module_algebra(act)),
        SuiteStep("comodule-coalgebra coaction", check_comodule_coalgebra(co)),
        SuiteStep("compatibility hypotheses", bicross_hypotheses(A, H, act, co)),
    ]
    built = bicrossproduct(A, H, act, co, check=False)
    steps.append(SuiteStep("hopf suite on the bicrossproduct", run_hopf_suite(built)))
    if golden is not None:
        golden_checks = (
            _tensor_equal("golden.products", built.mul, golden.products),
            _matrix_equal("golden.coproducts", comul_matrix(built.comul), golden.coproducts),
            _matrix_equal("golden.antipodes", built.antipode, golden.antipodes),
        )
        steps.append(
            SuiteStep(
                "golden tables",
                CheckReport(golden_checks),
                note="expected tables on the basis (a, h) -> a * dim_H + h",
            )
        )
    return _timed("bicrossproduct-theorem", steps, started)


def verify_cor_2_9(H: HomHopfAlgebra, group: GroupData | None = None) -> SuiteResult:
    """Verify the canonical bicrossproduct on H (x) H_op: preconditions, the
    closed-form cross-check, the full Hopf suite, and on twisted group
    algebras the group-like product formula
    ``(a x h)(b x k) = phi(a h^-1 b h) x phi(k h)``."""
    started = time.perf_counter()
    steps: list[SuiteStep] = []
    hop, act, co = self_bicross_data(H)
    steps.append(SuiteStep("module-algebra action", check_module_algebra(act)))
    steps.append(SuiteStep("comodule-coalgebra coaction", check_comodule_coalgebra(co)))
    steps.append(SuiteStep("compatibility hypotheses", bicross_hypotheses(H, hop, act, co)))
    try:
        built = self_bicross(H, check=False)
        cross = CheckReport((make_entry("self-bicross.closed-forms-agree", True),))
    except CrossCheckFailed:
        built = bicrossproduct(H, hop, act, co, check=False)
        cross = CheckReport((make_entry("self-bicross.closed-forms-agree", False),))
    steps.append(SuiteStep("closed-form cross-check", cross))
    steps.append(SuiteStep("hopf suite on the bicrossproduct", run_hopf_suite(built)))
    if group is not None:
        n, mul, inv, phi = group.order, group.table, group.inverse, group.automorphism

        def closed_form(a, h, b, k):
            p = phi[mul[mul[mul[a][inv[h]]][b]][h]]
            q = phi[mul[k][h]]
            return basis_vector(n * n, p * n + q)

        entry = _dense_sweep(
            "self-bicross.group-like-product",
            product(range(n), repeat=4),
            lambda a, h, b, k: built.mul[a * n + h][b * n + k],
            closed_form,
        )
        steps.append(
            SuiteStep(
                "group-like closed form",
                CheckReport((entry,)),
                note="evaluated on every basis quadruple of group-likes",
            )
        )
    return _timed("self-bicrossproduct", steps, started)


def verify_prop_2_19(H: HomHopfAlgebra, group: GroupData | None = None) -> SuiteResult:
    """Build the double and its canonical R-matrix and check the three
    quasitriangularity axioms; on twisted group algebras also diff R against
    the closed form ``sum_g (1 x e_phi(g)) (x) (g^-1 x counit)``."""
    started = time.perf_counter()
    double = drinfeld_double(H)
    r = canonical_r_matrix(H, double)
    steps = [SuiteStep("quasitriangular axioms on the double", check_quasitriangular(double, r))]
    if group is not None:
        n = group.order
        expected: dict[tuple[int, int], Fraction] = {}
        for g in range(n):
            p = group.identity * n + group.automorphism[g]
            for s in range(n):
                q = group.inverse[g] * n + s
                expected[p, q] = expected.get((p, q), ZERO) + ONE
        entry = _dense_sweep(
            "canonical-r.group-closed-form",
            product(range(n * n), repeat=2),
            lambda p, q: (r.entries[p][q],),
            lambda p, q: (expected.get((p, q), ZERO),),
        )
        steps.append(SuiteStep("closed-form R", CheckReport((entry,))))
    return _timed("canonical-r-matrix", steps, started)


def verify_thm_4_5(A: HomHopfAlgebra) -> SuiteResult:
    """The twist theorem: the left twist of the double by the canonical left
    cocycle equals the Heisenberg double of the opposite, and the right twist
    of the mirrored double by the canonical right cocycle equals the
    Heisenberg double of the dual, entrywise."""
    started = time.perf_counter()
    double = drinfeld_double(A)
    tilde = drinfeld_double_tilde(A)
    sigma, eta = canonical_cocycles(A, double, tilde)
    steps = [
        SuiteStep("left cocycle on the double", check_cocycle(sigma)),
        SuiteStep("right cocycle on the mirrored double", check_cocycle(eta)),
    ]
    left_twist = cocycle_twist(double.bialgebra, sigma, check=False)
    right_twist = cocycle_twist(tilde, eta, check=False)
    h_op = heisenberg_double(opposite(A))
    h_dual = heisenberg_double(dual(A))
    steps.append(
        SuiteStep(
            "left twist equals opposite Heisenberg double",
            _algebra_agrees("twist-vs-heisenberg", left_twist, h_op),
            note="identity identification: both live on A (x) A_dual",
        )
    )
    steps.append(
        SuiteStep(
            "right twist equals dual Heisenberg double",
            _algebra_agrees("twist-vs-heisenberg", right_twist, h_dual),
            note="identity identification: both live on A_dual (x) A",
        )
    )
    return _timed("double-vs-heisenberg", steps, started)


def verify_dual_pair_route(H: HomHopfAlgebra) -> SuiteResult:
    """The pairing route to the double: dual-pair conditions for the
    evaluation pairing, the Hopf suite on the resulting double, the twisting
    map conditions, the embedding identities, and an entrywise comparison
    with the closed-form double."""
    started = time.perf_counter()
    pairing = evaluation_pairing(H)
    paired: PairedDouble = dual_pair_double(pairing, check=False)
    report = check_dual_pair(pairing)
    required = tuple(c for c in report.checks if c.axiom_id != "pairing.mul-comul-right-swapped")
    swapped = report.entry("pairing.mul-comul-right-swapped")
    steps = [
        SuiteStep(
            "dual-pair conditions",
            CheckReport(required),
            note=f"alternative swapped coproduct-side reading holds: {swapped.passed}",
        )
    ]
    steps.append(SuiteStep("hopf suite on the pair double", run_hopf_suite(paired.hopf)))
    steps.append(
        SuiteStep(
            "closed-form half-braiding inverses",
            CheckReport(
                (
                    make_entry("pair-double.first-inverse-closed-form", paired.closed_form_inverses_match[0]),
                    make_entry("pair-double.second-inverse-closed-form", paired.closed_form_inverses_match[1]),
                )
            ),
        )
    )
    steps.append(
        SuiteStep(
            "twisting map conditions",
            check_twisting(pairing.left, pairing.right, paired.twisting),
        )
    )

    A, B = pairing.left, pairing.right
    na, nb = A.dim, B.dim
    embed_a = kron(basis(na), (B.algebra.unit_vector,))  # a -> a (x) 1
    embed_b = kron((A.algebra.unit_vector,), basis(nb))  # b -> 1 (x) b

    mul = paired.hopf.algebra.mul_map
    alpha_inv = (rows(A.alpha_inverse), rows(B.alpha_inverse))
    embeddings = (
        _sweep(
            "pair-double.first-factor-embedding",
            (na, na),
            compose(kron(embed_a, embed_a), mul),
            compose(A.algebra.mul_map, embed_a),
        ),
        _sweep(
            "pair-double.second-factor-embedding",
            (nb, nb),
            compose(kron(embed_b, embed_b), mul),
            compose(B.algebra.mul_map, embed_b),
        ),
        _sweep(
            "pair-double.mixed-embedding",
            (na, nb),
            compose(kron(embed_a, embed_b), mul, alpha_inv),
            basis(na * nb),
        ),
    )
    steps.append(SuiteStep("embedding identities", CheckReport(embeddings)))

    closed = drinfeld_double(H)
    steps.append(
        SuiteStep(
            "comparison with the closed-form double",
            merge_reports(
                _algebra_agrees("pair-vs-closed", paired.hopf, closed),
                CheckReport(
                    (
                        _tensor_equal("pair-vs-closed.comul", paired.hopf.comul, closed.comul),
                        _matrix_equal("pair-vs-closed.antipode", paired.hopf.antipode, closed.antipode),
                    )
                ),
            ),
            note="identity identification: both doubles live on H_op (x) H_dual in the same order",
        )
    )
    return _timed("dual-pair-double", steps, started)


def verify_prop_4_7(A: HomHopfAlgebra) -> SuiteResult:
    """The twisted double is a comodule algebra over the untwisted one under
    the coproduct as coaction; the mirrored left-sided statement is checked
    for the mirrored double and stated explicitly in the step note."""
    started = time.perf_counter()
    double = drinfeld_double(A)
    tilde = drinfeld_double_tilde(A)
    sigma, eta = canonical_cocycles(A, double, tilde)
    left_twist = cocycle_twist(double.bialgebra, sigma, check=False)
    coaction = ComoduleCoaction(double.bialgebra, left_twist, double.comul)
    steps = [
        SuiteStep(
            "right comodule-algebra over the double",
            check_comodule_algebra(left_twist, coaction),
            note="coaction is the double's coproduct viewed on the twisted algebra",
        )
    ]
    right_twist = cocycle_twist(tilde, eta, check=False)
    steps.append(
        SuiteStep(
            "left comodule-algebra over the mirrored double",
            check_left_comodule_algebra(right_twist, tilde),
            note=(
                "left-sided comodule-algebra axioms are the mirror images of the "
                "right-sided ones; stated and checked explicitly here"
            ),
        )
    )
    return _timed("twist-comodule-algebra", steps, started)
