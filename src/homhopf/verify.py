"""Theorem-level verification suites.

Each suite composes constructions with the generic checkers and returns a
SuiteResult: a named list of CheckReports, one per step, plus the overall
verdict and wall time.  Suites never trust construction code: every composite
object they build is pushed through the generic axiom checkers, and two objects
are compared as composed-map laws through an identification ``phi: X -> Y``
(``structures.check_morphism``, with the identity where both live on one space
in one order).  The identification is recorded in the step note, so a failed
comparison distinguishes a wrong identity from a wrong identification.
A suite imports the data-law checkers (``laws``) and the bicrossproduct
constructions (``bicross``) it runs, so ``prop2.19`` compiles neither.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from .constructions import (
    PairedDouble,
    _product_dim,
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
)
from .errors import CrossCheckFailed
from .exactlin import ONE, ZERO, basis, compose, kron, sparse
from .structures import (
    CheckReport,
    make_entry,
    ComoduleCoaction,
    HomHopfAlgebra,
    ModuleAction,
    Record,
    check_morphism,
    check_quasitriangular,
    run_hopf_suite,
    _flat,
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
    from .bicross import bicross_hypotheses, bicrossproduct
    from .laws import check_comodule_coalgebra, check_module_algebra

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
        n = built.dim
        golden_checks = (
            _sweep("golden.products", (n, n), built.algebra.mul_map, _flat(golden.products)),
            _sweep("golden.coproducts", (n,), built.coalgebra.comul_rows, golden.coproducts),
            _sweep("golden.antipodes", (n,), built.antipode_rows, golden.antipodes),
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
    from .bicross import bicross_hypotheses, bicrossproduct, self_bicross, self_bicross_data
    from .laws import check_comodule_coalgebra, check_module_algebra

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
        e, g = basis(n * n), range(n)
        # row (a, h, b, k) of the product map is (a x h)(b x k)
        closed = tuple(
            e[phi[mul[mul[mul[a][inv[h]]][b]][h]] * n + phi[mul[k][h]]]
            for a in g
            for h in g
            for b in g
            for k in g
        )
        entry = _sweep("self-bicross.group-like-product", (n,) * 4, built.algebra.mul_map, closed)
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
        expected: dict[tuple[int, int], int] = {}
        for g in range(n):
            p = group.identity * n + group.automorphism[g]
            for s in range(n):
                q = group.inverse[g] * n + s
                expected[p, q] = expected.get((p, q), ZERO) + ONE
        cases = (
            ((p, q), sparse((r.entries[p].get(q, ZERO),)), sparse((expected.get((p, q), ZERO),)))
            for p in range(n * n)
            for q in range(n * n)
        )
        entry = _sweep("canonical-r.group-closed-form", cases)
        steps.append(SuiteStep("closed-form R", CheckReport((entry,))))
    return _timed("canonical-r-matrix", steps, started)


def verify_thm_4_5(A: HomHopfAlgebra) -> SuiteResult:
    """The twist theorem: the left twist of the double by the canonical left
    cocycle equals the Heisenberg double of the opposite, and the right twist
    of the mirrored double by the canonical right cocycle equals the
    Heisenberg double of the dual, each through the identity map."""
    from .laws import check_cocycle

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
            check_morphism("twist-vs-heisenberg", left_twist, h_op, basis(A.dim**2)),
            note="identity identification: both live on A (x) A_dual",
        )
    )
    steps.append(
        SuiteStep(
            "right twist equals dual Heisenberg double",
            check_morphism("twist-vs-heisenberg", right_twist, h_dual, basis(A.dim**2)),
            note="identity identification: both live on A_dual (x) A",
        )
    )
    return _timed("double-vs-heisenberg", steps, started)


def verify_dual_pair_route(H: HomHopfAlgebra) -> SuiteResult:
    """The pairing route to the double: dual-pair conditions for the
    evaluation pairing, the Hopf suite on the resulting double, the twisting
    map conditions, the embedding identities, and a comparison with the
    closed-form double through the identity map."""
    from .laws import check_dual_pair, check_twisting

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
    embed_a = kron(basis(na), B.algebra.unit)  # a -> a (x) 1
    embed_b = kron(A.algebra.unit, basis(nb))  # b -> 1 (x) b

    mul = paired.hopf.algebra.mul_map
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
            compose(kron(embed_a, embed_b), mul, (A.power(-1), B.power(-1))),
            basis(na * nb),
        ),
    )
    steps.append(SuiteStep("embedding identities", CheckReport(embeddings)))

    closed = drinfeld_double(H)
    steps.append(
        SuiteStep(
            "comparison with the closed-form double",
            check_morphism("pair-vs-closed", paired.hopf, closed, basis(closed.dim)),
            note="identity identification: both doubles live on H_op (x) H_dual in the same order",
        )
    )
    return _timed("dual-pair-double", steps, started)


def verify_prop_4_7(A: HomHopfAlgebra) -> SuiteResult:
    """The twisted double is a comodule algebra over the untwisted one under
    the coproduct as coaction; the mirrored left-sided statement is checked
    for the mirrored double and stated explicitly in the step note."""
    from .laws import check_comodule_algebra, check_left_comodule_algebra

    started = time.perf_counter()
    double = drinfeld_double(A)
    tilde = drinfeld_double_tilde(A)
    sigma, eta = canonical_cocycles(A, double, tilde)
    left_twist = cocycle_twist(double.bialgebra, sigma, check=False)
    coaction = ComoduleCoaction(double.bialgebra, left_twist, double.coalgebra.comul_rows)
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
