"""Section 4 of the paper, the twists: the 2-cocycle and comodule-algebra
laws, and the suites ``thm4.5`` (the twisted doubles are Heisenberg doubles)
and ``prop4.7`` (they are comodule algebras over the doubles).  The comodule
laws of section 2 (``laws``) share ``check_comodule``, kept here so that a
twist command compiles no other section."""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from .constructions import (
    canonical_cocycles, cocycle_twist, drinfeld_double, drinfeld_double_tilde, dual,
    heisenberg_double, opposite,
)
from .exactlin import basis, compose, kron, sparse, transpose_rows
from .structures import (
    CheckEntry, CheckReport, ComoduleCoaction, HomBialgebra, HomHopfAlgebra, TwoCocycle,
    _multiplicative_cases, _product_law, _sweep, algebra_of, bialgebra_of, check_morphism,
    coalgebra_of,
)

if TYPE_CHECKING:
    from .verify import SuiteResult


def check_comodule(c: ComoduleCoaction) -> CheckReport:
    """Right comodule axioms for a coaction ``rho: M -> M (x) C``."""
    coactor = coalgebra_of(c.coactor)
    nm = c.carrier.dim
    am, ac, e = c.carrier.alpha, coactor.alpha, basis(nm)
    eps, rho, cm = coactor.counit, c.coact_rows, coactor.comul_rows
    checks = (
        _sweep("comodule.counit-reduces-to-alpha", (nm,), compose(rho, (e, eps)), am),
        _sweep("comodule.alpha-equivariant", (nm,), compose(rho, (am, ac)), compose(am, rho)),
        _sweep(
            "comodule.hom-coassociative", (nm,), compose(rho, (rho, ac)), compose(rho, (am, cm))
        ),
    )
    return CheckReport(checks)


def _prefixed(prefix: str, checks) -> list[CheckEntry]:
    return [CheckEntry(prefix + c.axiom_id, c.passed, c.witness) for c in checks]


def check_cocycle(sigma: TwoCocycle) -> CheckReport:
    """Structure-map invariance, the (left or right) cocycle law, and
    normality, each as a separate verdict.  Invariance reads ``alpha G alpha^T``
    (``n`` rows, not the ``n^2`` of ``alpha (x) alpha``) at the one-entry cases
    ``(i, j)`` where it or ``G`` is nonzero: both sides of the others are zero."""
    B, gram, form = sigma.algebra, sigma.gram, sigma.form
    n, alpha, a2 = B.dim, B.alpha, B.power(2)
    # sigma(alpha(e_i), alpha(e_j)) against sigma(e_i, e_j), read from alpha G alpha^T
    invariant = compose(alpha, gram, transpose_rows(alpha))
    cases = ((i, j) for i in range(n) for j in sorted(invariant[i].keys() | gram[i].keys()))
    invariance = (((i, j), sparse((invariant[i].get(j, 0),)), form[i][j]) for i, j in cases)
    # w[l][k]: sigma(l_1, k_1) l_2 k_2 (left) or sigma(l_2, k_2) l_1 k_1 (right)
    w = sigma.products
    # h -> (sigma(1, h), sigma(h, 1)) against h -> (counit(h), counit(h))
    eta, counit = B.unit, transpose_rows(B.counit)
    normal = transpose_rows(compose(eta, gram) + compose(eta, transpose_rows(gram)))

    checks = (
        _sweep("cocycle.alpha-invariant", invariance),
        # left:  sigma(alpha^2(h), l_2 k_2) sigma(l_1, k_1)
        #          = sigma(h_2 l_2, alpha^2(k)) sigma(h_1, l_1)
        # right: sigma(alpha^2(h), l_1 k_1) sigma(l_2, k_2)
        #          = sigma(h_1 l_1, alpha^2(k)) sigma(h_2, l_2)
        # that is, sigma(alpha^2(e_h), w[l][k]) against sigma(w[h][l], alpha^2(e_k))
        _sweep(f"cocycle.{sigma.side}-condition", _product_law((form, a2, w), (form, w, a2))),
        _sweep("cocycle.normal", (n,), normal, transpose_rows(counit + counit)),
    )
    return CheckReport(checks)


def check_comodule_algebra(A, c: ComoduleCoaction) -> CheckReport:
    """Right comodule axioms plus multiplicativity and unitality of the
    coaction on a Hom-algebra carrier.  Multiplicativity is swept only where a
    side has a nonzero term (``square_cases`` with the carrier's table on the
    first leg and the coactor's on the second): both sides of the others are zero."""
    alg = algebra_of(A)
    coactor = bialgebra_of(c.coactor)
    rho, am, hm = c.coact_rows, alg.mul_cells, coactor.algebra.mul_cells
    unit, coactor_unit = alg.unit, coactor.algebra.unit
    checks = (
        *check_comodule(c).checks,
        # rho(a b) against a_(0) b_(0) (x) a_(1) b_(1)
        _sweep("comodule-algebra.multiplicative", _multiplicative_cases((am, hm), rho, rho)),
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


def verify_thm_4_5(A: HomHopfAlgebra) -> SuiteResult:
    """The twist theorem: the left twist of the double by the canonical left
    cocycle equals the Heisenberg double of the opposite, and the right twist
    of the mirrored double by the canonical right cocycle equals the
    Heisenberg double of the dual, each through the identity map."""
    from .verify import SuiteStep, _timed  # here, so that no construct command compiles verify

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


def verify_prop_4_7(A: HomHopfAlgebra) -> SuiteResult:
    """The twisted double is a comodule algebra over the untwisted one under
    the coproduct as coaction; the mirrored left-sided statement is checked
    for the mirrored double and stated explicitly in the step note."""
    from .verify import SuiteStep, _timed

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
