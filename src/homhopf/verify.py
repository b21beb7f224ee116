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
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .catalog import BicrossGolden, GroupData
from .constructions import (
    PairedDouble,
    bicross_hypotheses,
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
    Vector,
    apply_map,
    basis_vector,
    bilinear_apply,
    flatten_pair,
    identity,
    kron,
    mat_inverse,
)
from .structures import (
    CheckEntry,
    CheckReport,
    make_entry,
    ComoduleCoaction,
    HomHopfAlgebra,
    ModuleAction,
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
)


@dataclass(frozen=True)
class SuiteStep:
    name: str
    report: CheckReport
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.report.ok


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    steps: tuple[SuiteStep, ...]
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps)


def _timed(suite: str, steps: list[SuiteStep], started: float) -> SuiteResult:
    return SuiteResult(suite, tuple(steps), time.perf_counter() - started)




def _tensor_equal(axiom_id: str, lhs: Tensor3, rhs: Tensor3) -> CheckEntry:
    for i, plane in enumerate(lhs):
        for j, row in enumerate(plane):
            if row != rhs[i][j]:
                return make_entry(axiom_id, False, (i, j), row, rhs[i][j])
    return CheckEntry(axiom_id, True)


def _matrix_equal(axiom_id: str, lhs: Matrix, rhs: Matrix) -> CheckEntry:
    for i, row in enumerate(lhs):
        if row != rhs[i]:
            return make_entry(axiom_id, False, (i,), row, rhs[i])
    return CheckEntry(axiom_id, True)


def _vector_equal(axiom_id: str, lhs: Vector, rhs: Vector) -> CheckEntry:
    if lhs != rhs:
        return make_entry(axiom_id, False, (), lhs, rhs)
    return CheckEntry(axiom_id, True)


def _algebra_agrees(prefix: str, lhs, rhs) -> CheckReport:
    """Entrywise agreement of two Hom-algebras on the same space."""
    return CheckReport(
        (
            _tensor_equal(prefix + ".mul", lhs.mul, rhs.mul),
            _vector_equal(prefix + ".unit", lhs.unit, rhs.unit),
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
    steps = [
        SuiteStep("module-algebra action", check_module_algebra(act)),
        SuiteStep("comodule-coalgebra coaction", check_comodule_coalgebra(co)),
        SuiteStep("compatibility hypotheses", bicross_hypotheses(A, H, act, co)),
    ]
    from .constructions import bicrossproduct

    built = bicrossproduct(A, H, act, co, check=False)
    steps.append(SuiteStep("hopf suite on the bicrossproduct", run_hopf_suite(built)))
    if golden is not None:
        na, nh = A.dim, H.dim
        prod_checks = []
        for i in range(na * nh):
            for j in range(na * nh):
                want = golden.products[i][j]
                if built.mul[i][j] != want:
                    prod_checks.append(
                        make_entry("golden.products", False, (i, j), built.mul[i][j], want)
                    )
                    break
            else:
                continue
            break
        else:
            prod_checks.append(make_entry("golden.products", True))
        cop = next(
            (
                make_entry("golden.coproducts", False, (i,), flatten_pair(built.comul[i]), golden.coproducts[i])
                for i in range(na * nh)
                if flatten_pair(built.comul[i]) != golden.coproducts[i]
            ),
            make_entry("golden.coproducts", True),
        )
        ant = next(
            (
                make_entry("golden.antipodes", False, (i,), built.antipode[i], golden.antipodes[i])
                for i in range(na * nh)
                if built.antipode[i] != golden.antipodes[i]
            ),
            make_entry("golden.antipodes", True),
        )
        steps.append(
            SuiteStep(
                "golden tables",
                CheckReport(tuple(prod_checks) + (cop, ant)),
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
        from .constructions import bicrossproduct

        built = bicrossproduct(H, hop, act, co, check=False)
        cross = CheckReport((make_entry("self-bicross.closed-forms-agree", False),))
    steps.append(SuiteStep("closed-form cross-check", cross))
    steps.append(SuiteStep("hopf suite on the bicrossproduct", run_hopf_suite(built)))
    if group is not None:
        n = group.order
        entry = make_entry("self-bicross.group-like-product", True)
        for a, h, b, k in product(range(n), repeat=4):
            p = group.automorphism[
                group.table[group.table[group.table[a][group.inverse[h]]][b]][h]
            ]
            q = group.automorphism[group.table[k][h]]
            want = tuple(
                ONE if t == p * n + q else ZERO for t in range(n * n)
            )
            got = built.mul[a * n + h][b * n + k]
            if got != want:
                entry = make_entry(
                    "self-bicross.group-like-product", False, (a, h, b, k), got, want
                )
                break
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
        entry = make_entry("canonical-r.group-closed-form", True)
        for p in range(n * n):
            row = r.entries[p]
            for q in range(n * n):
                if row[q] != expected.get((p, q), ZERO):
                    entry = make_entry(
                        "canonical-r.group-closed-form",
                        False,
                        (p, q),
                        (row[q],),
                        (expected.get((p, q), ZERO),),
                    )
                    break
            if not entry.passed:
                break
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
    paired: PairedDouble = dual_pair_double(pairing, check=False)
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
    nd = na * nb
    embed_a = kron(identity(na), (B.unit,))  # a -> a (x) 1
    embed_b = kron((A.unit,), identity(nb))  # b -> 1 (x) b

    entries = []
    entry = make_entry("pair-double.first-factor-embedding", True)
    for a, ap in product(range(na), repeat=2):
        got = bilinear_apply(paired.hopf.mul, embed_a[a], embed_a[ap])
        want = apply_map(embed_a, A.mul[a][ap])
        if got != want:
            entry = make_entry("pair-double.first-factor-embedding", False, (a, ap), got, want)
            break
    entries.append(entry)
    entry = make_entry("pair-double.second-factor-embedding", True)
    for b, bp in product(range(nb), repeat=2):
        got = bilinear_apply(paired.hopf.mul, embed_b[b], embed_b[bp])
        want = apply_map(embed_b, B.mul[b][bp])
        if got != want:
            entry = make_entry("pair-double.second-factor-embedding", False, (b, bp), got, want)
            break
    entries.append(entry)
    alpha_inv = mat_inverse(kron(A.alpha, B.alpha))
    entry = make_entry("pair-double.mixed-embedding", True)
    for a, b in product(range(na), range(nb)):
        got = apply_map(alpha_inv, bilinear_apply(paired.hopf.mul, embed_a[a], embed_b[b]))
        want = basis_vector(nd, a * nb + b)
        if got != want:
            entry = make_entry("pair-double.mixed-embedding", False, (a, b), got, want)
            break
    entries.append(entry)
    steps.append(SuiteStep("embedding identities", CheckReport(tuple(entries))))

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
            check_left_comodule_algebra(right_twist, tilde, tilde.comul),
            note=(
                "left-sided comodule-algebra axioms are the mirror images of the "
                "right-sided ones; stated and checked explicitly here"
            ),
        )
    )
    return _timed("twist-comodule-algebra", steps, started)
