"""Section 2 of the paper, Majid's bicrossproduct: the bicrossproduct, the
cotwisting map a coaction induces, the canonical bicrossproduct on
``H (x) H_op``, and the ``thm2.6`` and ``cor2.9`` suites that verify them,
with the golden tables of ``thm2.6`` on the ``ax1`` data.

Only ``construct bicross``, ``construct self-bicross`` and the ``thm2.6``
and ``cor2.9`` suites run this code, so only they compile it.  Its
conventions and product-space helpers are those of ``constructions``; the
matched-pair route, which no command runs, is ``matchedpair``'s.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import TYPE_CHECKING

from .checkers import _multiplicative_cases, _sweep, make_entry, run_hopf_suite
from .constructions import _pair_product, _product_dim, cotwist_coproduct, opposite_hopf, smash_product
from .errors import CrossCheckFailed, HypothesisFailed, PreconditionFailed
from .exactlin import (
    ONE, SparseMatrix, SparseTensor3, apply_kron, apply_map, basis, bilinear_apply, compose, kron,
    linear_combination, pair_cells, rows_from_entries, transpose,
)
from .laws import check_comodule_coalgebra, check_module_algebra
from .structures import (
    CheckReport, ComoduleCoaction, HomBialgebra, HomHopfAlgebra, ModuleAction, Record, _flat,
    _require, algebra_of, bialgebra_of, coalgebra_of,
)

if TYPE_CHECKING:
    from .catalog import GroupData
    from .verify import SuiteResult


def _require_roles(A, H, act: ModuleAction, co: ComoduleCoaction) -> None:
    """Refuse data that is not an action of ``H`` on ``A`` and a coaction of ``A`` on ``H``."""
    roles = (act.actor, act.carrier, co.coactor, co.carrier) == (H, A, A, H)
    _require(roles, "bicrossproduct data must be an action of H on A and a coaction of A on H")


def bicross_hypotheses(A, H, act: ModuleAction, co: ComoduleCoaction) -> CheckReport:
    """The three compatibility hypotheses between the action of H on A and
    the coaction of A on H, each reported separately."""
    _require_roles(A, H, act, co)
    alg = algebra_of(A)
    coa = coalgebra_of(A)
    bi = bialgebra_of(H)
    na, nh = alg.dim, bi.dim
    ah_i1, aa_i1 = bi.power(-1), alg.power(-1)
    action, amul, hmul, hc = act.act_cells, alg.mul_cells, bi.algebra.mul_cells, bi.coalgebra
    delta_a, rho, eps_a, eps_h = coa.comul_rows, co.coact_rows, coa.counit, hc.counit
    acts, e_h = _flat(action), basis(nh)  # acts maps h (x) b to h . b
    # twisted[a * nh + h] is the map b -> alpha^-1(a) (alpha^-1(h) . alpha^-1(b))
    acted_twice = [[bilinear_apply(action, h, b) for b in aa_i1] for h in ah_i1]
    twisted = [tuple(bilinear_apply(amul, a, x) for x in row) for a in aa_i1 for row in acted_twice]
    # at x * na + b, acted_then is a -> (x . b) a and then_acted is a -> a (x . b)
    acted_then = transpose(tuple(compose(acts, rm) for rm in transpose(amul)))
    then_acted = transpose(tuple(compose(acts, lm) for lm in amul))

    # alpha^-1(h_1(0)) (x) (h_1(1) (x) h_2), its legs read from the action or H's product and twisted
    dressed = compose(hc.comul_rows, (compose(rho, (ah_i1, basis(na))), e_h))
    # delta(h . b) against (alpha^-1(h_1(0)) . b_1) (x) alpha^-1(h_1(1)) (alpha^-1(h_2) . alpha^-1(b_2))
    hyp1 = _multiplicative_cases((action, twisted), dressed, delta_a)
    # rho(h g) against alpha^-1(h_1(0)) g_(0) (x) alpha^-1(h_1(1)) (alpha^-1(h_2) . alpha^-1(g_(1)))
    hyp2 = _multiplicative_cases((hmul, twisted), dressed, rho)
    # h_2(0) (x) (h_1 . b) h_2(1) against h_1(0) (x) h_1(1) (h_2 . b)
    exchange = [
        tuple(
            linear_combination(
                nh * na, ((v, apply_kron(e_h, legs[x * na + b], rho[y])) for x, y, v in terms)
            )
            for terms in sweedlers
            for b in range(na)
        )
        for legs, sweedlers in ((acted_then, hc.comul_terms), (then_acted, hc.op.comul_terms))
    ]

    checks = (
        _sweep("bicross.action-comultiplicative", hyp1),
        _sweep("bicross.action-counit", (nh, na), compose(acts, eps_a), kron(eps_h, eps_a)),
        _sweep("bicross.coaction-multiplicative", hyp2),
        _sweep("bicross.action-coaction-exchange", (nh, na), *exchange),
    )
    return CheckReport(checks)


def comodule_cotwist(co: ComoduleCoaction, check: bool = True) -> SparseMatrix:
    """The cotwisting map induced by a comodule Hom-coalgebra structure:
    ``phi(h (x) c) = alpha_C^-1(c_(0)) (x) alpha_H^-1(h) alpha_H^-2(c_(1))``.

    The structure-map power applied to ``c_(1)`` must be the coactor's (a
    carrier power there would not typecheck when the two maps differ).
    """
    coactor = bialgebra_of(co.coactor)
    carrier = coalgebra_of(co.carrier)
    nh, nc = coactor.dim, carrier.dim
    ac_i1, ah_i1, ah_i2 = carrier.power(-1), coactor.power(-1), coactor.power(-2)
    hmul, rho = coactor.algebra.mul_cells, co.coact_rows
    # second[h] maps c_(1) to alpha_H^-1(h) alpha_H^-2(c_(1))
    second = [tuple(bilinear_apply(hmul, x, y) for y in ah_i2) for x in ah_i1]
    phi = tuple(chain.from_iterable(compose(rho, (ac_i1, s)) for s in second))
    if check:
        from .matchedpair import check_cotwisting

        report = check_cotwisting(coactor, carrier, phi)
        if not report.ok:
            raise PreconditionFailed("induced map is not a cotwisting map", report)
    return phi


def bicrossproduct(
    A: HomHopfAlgebra, H: HomHopfAlgebra, act: ModuleAction, co: ComoduleCoaction, check: bool = True
) -> HomHopfAlgebra:
    """The bicrossproduct Hom-Hopf algebra on ``A (x) H`` built from a
    module-algebra action of H on A and a comodule-coalgebra coaction of A on
    H satisfying the three compatibility hypotheses.

    Its coproduct is the cotwist coproduct of the cotwisting map the coaction
    induces: ``a_1 (x) alpha_H^-1(h_1(0)) (x) alpha_A^-1(a_2) alpha_A^-2(h_1(1)) (x) h_2``.
    """
    _require_roles(A, H, act, co)
    na, nh = A.dim, H.dim
    nd = _product_dim(na, nh)
    if check:
        mod_report = check_module_algebra(act)
        if not mod_report.ok:
            raise PreconditionFailed("action is not a module-algebra action", mod_report)
        co_report = check_comodule_coalgebra(co)
        if not co_report.ok:
            raise PreconditionFailed("coaction is not a comodule-coalgebra coaction", co_report)
        hyp = bicross_hypotheses(A, H, act, co)
        for label, entry in zip(("1", "1", "2", "3"), hyp.checks):
            if not entry.passed:
                raise HypothesisFailed(label, CheckReport((entry,)))

    aa_i2, aa_i3 = A.power(-2), A.power(-3)
    smash = smash_product(A, H, act, check=False)
    coalg = cotwist_coproduct(A, H, comodule_cotwist(co, check=False), check=False)

    # S(a (x) h) = (1 (x) S_H alpha_H^-2(h_(0))) (S_A(alpha_A^-2(a) alpha_A^-3(h_(1))) (x) 1)
    co_terms, mc, amul = co.coact_terms, smash.mul_cells, A.algebra.mul_cells
    # h -> 1 (x) S_H(alpha_H^-2(h)) and a -> S_A(a) (x) 1
    sh_i2 = compose(H.power(-2), H.antipode_rows)
    s_h = kron(A.unit, sh_i2)
    s_then_1 = kron(A.antipode_rows, H.unit)
    s_a = [[apply_map(s_then_1, bilinear_apply(amul, a, x)) for x in aa_i3] for a in aa_i2]
    antipode = tuple(
        linear_combination(
            nd, ((v, bilinear_apply(mc, s_h[h0], s_a[a][h1])) for h0, h1, v in co_terms[hh])
        )
        for a in range(na)
        for hh in range(nh)
    )
    return HomHopfAlgebra(HomBialgebra(smash, coalg), antipode)


def self_bicross_data(H: HomHopfAlgebra) -> tuple[HomHopfAlgebra, ModuleAction, ComoduleCoaction]:
    """The canonical bicrossproduct data on ``(H, H_op)``: the opposite acts
    by ``h . a = (S(alpha^-2(h_1)) alpha^-1(a)) alpha^-1(h_2)`` and H coacts
    by ``rho(h) = alpha^-1(h_12) (x) S(alpha^-2(h_11)) alpha^-1(h_2)``."""
    n = H.dim
    _product_dim(n, n)  # the bicrossproduct these data build
    hop = opposite_hopf(H)
    ainv1 = H.power(-1)
    s_ainv2 = compose(H.power(-2), H.antipode_rows)  # S(alpha^-2(e_h))
    hmul, h_terms = H.algebra.mul_cells, H.coalgebra.comul_terms

    def acts(h, a):
        return linear_combination(
            n,
            (
                (c, bilinear_apply(hmul, bilinear_apply(hmul, s_ainv2[h1], ainv1[a]), ainv1[h2]))
                for h1, h2, c in h_terms[h]
            ),
        )

    act = tuple(tuple(acts(h, a) for a in range(n)) for h in range(n))

    # rho(h) applies alpha^-1 (x) second[h_2] to h_12 (x) h_11, the co-opposite
    # coproduct of h_1; second[h_2] maps h_11 to S(alpha^-2(h_11)) alpha^-1(h_2)
    op_delta = H.coalgebra.comul_op_rows
    second = [tuple(bilinear_apply(hmul, x, y) for x in s_ainv2) for y in ainv1]
    coact = tuple(
        linear_combination(
            n * n, ((c, apply_kron(ainv1, second[h2], op_delta[h1])) for h1, h2, c in h_terms[h])
        )
        for h in range(n)
    )
    return hop, ModuleAction(hop, H, act), ComoduleCoaction(H, hop, coact)


def self_bicross(H: HomHopfAlgebra, check: bool = True) -> HomHopfAlgebra:
    """The bicrossproduct on ``H (x) H_op``, cross-checked against the
    closed product and coproduct formulas stated for it."""
    n = H.dim
    nd = _product_dim(n, n)
    hop, act, co = self_bicross_data(H)
    built = bicrossproduct(H, hop, act, co, check=check)

    ainv1, ainv2, ainv3 = (H.power(-k) for k in (1, 2, 3))
    s_ainv4 = compose(H.power(-4), H.antipode_rows)  # S(alpha^-4(e_h))
    e, hmul, Hc = basis(n), H.algebra.mul_cells, H.coalgebra
    h_terms, delta, op_delta = Hc.comul_terms, Hc.comul_rows, Hc.comul_op_rows

    # closed form of the product:
    # (a x h)(b x k) = a[(S(alpha^-4(h_11)) alpha^-2(b)) alpha^-3(h_12)] x k alpha^-1(h_2);
    # dressed[b] maps h_11 (x) h_12 to the bracket, and tau[h][b] is
    # [(S(alpha^-4(h_11)) alpha^-2(b)) alpha^-3(h_12)] (x) alpha^-1(h_2)
    dressed = [
        [bilinear_apply(hmul, bilinear_apply(hmul, x, b), y) for x in s_ainv4 for y in ainv3]
        for b in ainv2
    ]
    twice = compose(delta, (delta, e))  # h_11 (x) h_12 (x) h_2
    tau = [[apply_kron(row, ainv1, v) for row in dressed] for v in twice]
    if _pair_product(hmul, hmul, tau) != built.algebra.mul_cells:
        raise CrossCheckFailed("closed-form product disagrees with the generic route")

    # closed form of the coproduct:
    # delta(a x h) = a_1 x alpha^-2(h_112)
    #   (x) alpha^-1(a_2)(S(alpha^-4(h_111)) alpha^-3(h_12)) x h_2,
    # the cotwist coproduct of the map closed_phi from a_2 (x) h_1 to the middle two
    # legs: alpha^-2 (x) third[a_2][h_12] applied to h_112 (x) h_111, the co-opposite
    # coproduct of h_11, where third[a_2][h_12] maps h_111 to the last leg
    inner = [[bilinear_apply(hmul, x, y) for x in s_ainv4] for y in ainv3]
    third = [[tuple(bilinear_apply(hmul, a, v) for v in row) for row in inner] for a in ainv1]
    closed_phi = tuple(
        linear_combination(
            nd,
            ((v, apply_kron(ainv2, third[a2][h12], op_delta[h11])) for h11, h12, v in h_terms[h1]),
        )
        for a2 in range(n)
        for h1 in range(n)
    )
    closed_comul = cotwist_coproduct(H, H, closed_phi, check=False).comul_rows
    if closed_comul != built.coalgebra.comul_rows:
        raise CrossCheckFailed("closed-form coproduct disagrees with the generic route")
    return built


class BicrossGolden(Record):
    """Expected multiplication, comultiplication and antipode tables for the
    bicrossproduct built from the ``ax1`` data, on the ordered basis
    (1#1, 1#g, x#1, x#g): the product cells, the coproduct rows on the pair
    space and the antipode rows.

    Both terms of the coproduct of x#g carry the sign forced by the
    Hom-counit law ``(counit (x) id) delta = alpha``.
    """

    products: SparseTensor3
    coproducts: SparseMatrix
    antipodes: SparseMatrix


def catalog_ex27_expected() -> BicrossGolden:
    products = {
        (0, 0, 0): ONE, (0, 1, 1): ONE, (0, 2, 2): -ONE, (0, 3, 3): -ONE,
        (1, 0, 1): ONE, (1, 1, 0): ONE, (1, 2, 3): ONE, (1, 3, 2): ONE,
        (2, 0, 2): -ONE, (2, 1, 3): -ONE,
        (3, 0, 3): -ONE, (3, 1, 2): -ONE,
    }
    coproducts = {
        (0, 0): ONE,
        (1, 5): ONE,
        (2, 8): -ONE, (2, 2): -ONE,
        (3, 13): -ONE, (3, 7): -ONE,
    }
    antipodes = {(0, 0): ONE, (1, 1): ONE, (2, 2): -ONE, (3, 3): ONE}
    return BicrossGolden(
        pair_cells(rows_from_entries((4, 4, 4), products), 4),
        rows_from_entries((4, 16), coproducts),
        rows_from_entries((4, 4), antipodes),
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
    from .verify import SuiteStep, _timed  # here, so that no construct command compiles verify

    started = time.perf_counter()
    _product_dim(A.dim, H.dim)  # refused before the O(n^3) precondition sweeps
    _require_roles(A, H, act, co)
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
    from .verify import SuiteStep, _timed

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
