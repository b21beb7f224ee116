"""Section 2 of the paper, Majid's bicrossproduct: the bicrossproduct, the
canonical bicrossproduct on ``H (x) H_op``, the double crossed product of a
matched pair, and the ``thm2.6`` and ``cor2.9`` suites that verify them.

Only ``construct bicross``, ``construct self-bicross`` and the ``thm2.6``
and ``cor2.9`` suites run this code, so only they compile it.  Its
conventions and product-space helpers are those of ``constructions``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from .constructions import (
    _pair_product, _product_dim, _tensor_coalgebra, comodule_cotwist,
    cotwist_coproduct, dual, opposite_hopf, smash_product,
)
from .errors import CrossCheckFailed, HypothesisFailed, PreconditionFailed
from .exactlin import (
    apply_kron, apply_map, basis, bilinear_apply, compose, kron, linear_combination,
    pair_cells, rows_from_entries, transpose, transpose_rows,
)
from .laws import check_comodule_coalgebra, check_matched_pair, check_module_algebra
from .structures import (
    CheckReport, ComoduleCoaction, HomAlgebra, HomBialgebra, HomHopfAlgebra, MatchedPairData,
    ModuleAction, _flat, _legs, _sweep, algebra_of, bialgebra_of, coalgebra_of, make_entry,
    merge_reports, run_hopf_suite,
)

if TYPE_CHECKING:
    from .catalog import BicrossGolden, GroupData
    from .verify import SuiteResult


def bicross_hypotheses(A, H, act: ModuleAction, co: ComoduleCoaction) -> CheckReport:
    """The three compatibility hypotheses between the action of H on A and
    the coaction of A on H, each reported separately."""
    alg = algebra_of(A)
    coa = coalgebra_of(A)
    bi = bialgebra_of(H)
    na, nh = alg.dim, bi.dim
    ah_i1, aa_i1 = bi.power(-1), alg.power(-1)
    action, amul, hmul = act.act_cells, alg.mul_cells, bi.algebra.mul_cells
    h_terms, co_terms = bi.coalgebra.comul_terms, co.coact_terms
    delta_a, rho, eps_a = coa.comul_rows, co.coact_rows, coa.counit
    acts, e_h = _flat(action), basis(nh)  # acts maps h (x) b to h . b
    eps_h, hm = bi.coalgebra.counit, bi.algebra.mul_map
    # Legs as maps of a basis vector: acted[h] is b -> alpha^-1(h) . b,
    # times[h] is g -> alpha^-1(h) g, and twisted[a * nh + h] is
    # b -> alpha^-1(a) (alpha^-1(h) . alpha^-1(b)).
    acted = transpose(tuple(compose(ah_i1, rm) for rm in transpose(action)))
    times = transpose(tuple(compose(ah_i1, rm) for rm in transpose(hmul)))
    acted_twice = [[bilinear_apply(action, h, b) for b in aa_i1] for h in ah_i1]
    twisted = [tuple(bilinear_apply(amul, a, x) for x in row) for a in aa_i1 for row in acted_twice]
    # at x * na + b, acted_then is a -> (x . b) a and then_acted is a -> a (x . b)
    acted_then = transpose(tuple(compose(acts, rm) for rm in transpose(amul)))
    then_acted = transpose(tuple(compose(acts, lm) for lm in amul))

    # the terms (h_1(0), (h_1(1), h_2), v) of each h, whose legs are read from acted
    # or times and from twisted
    dressed = [
        [(h10, h11 * nh + h2, vh * vco) for h1, h2, vh in sw for h10, h11, vco in co_terms[h1]]
        for sw in h_terms
    ]
    # (alpha^-1(h_1(0)) . b_1) (x) alpha^-1(h_1(1)) (alpha^-1(h_2) . alpha^-1(b_2))
    hyp1 = tuple(_legs(terms, acted, twisted, delta_a[b]) for terms in dressed for b in range(na))
    # alpha^-1(h_1(0)) g_(0) (x) alpha^-1(h_1(1)) (alpha^-1(h_2) . alpha^-1(g_(1)))
    hyp2 = tuple(_legs(terms, times, twisted, rho[g]) for terms in dressed for g in range(nh))
    # h_2(0) (x) (h_1 . b) h_2(1) against h_1(0) (x) h_1(1) (h_2 . b)
    flipped = [[(h2, h1, v) for h1, h2, v in sweedler] for sweedler in h_terms]
    exchange = [
        tuple(
            linear_combination(
                nh * na, ((v, apply_kron(e_h, legs[x * na + b], rho[y])) for x, y, v in terms)
            )
            for terms in sweedlers
            for b in range(na)
        )
        for legs, sweedlers in ((acted_then, h_terms), (then_acted, flipped))
    ]

    checks = (
        _sweep("bicross.action-comultiplicative", (nh, na), compose(acts, delta_a), hyp1),
        _sweep("bicross.action-counit", (nh, na), compose(acts, eps_a), kron(eps_h, eps_a)),
        _sweep("bicross.coaction-multiplicative", (nh, nh), compose(hm, rho), hyp2),
        _sweep("bicross.action-coaction-exchange", (nh, na), *exchange),
    )
    return CheckReport(checks)


def bicrossproduct(
    A: HomHopfAlgebra, H: HomHopfAlgebra, act: ModuleAction, co: ComoduleCoaction, check: bool = True
) -> HomHopfAlgebra:
    """The bicrossproduct Hom-Hopf algebra on ``A (x) H`` built from a
    module-algebra action of H on A and a comodule-coalgebra coaction of A on
    H satisfying the three compatibility hypotheses.

    Its coproduct is the cotwist coproduct of the cotwisting map the coaction
    induces: ``a_1 (x) alpha_H^-1(h_1(0)) (x) alpha_A^-1(a_2) alpha_A^-2(h_1(1)) (x) h_2``.
    """
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


def double_cross_product(mp: MatchedPairData, check: bool = True) -> HomHopfAlgebra:
    """The double crossed product on ``A (x) H`` of a matched pair, with the
    tensor coproduct and the antipode
    ``S(a (x) h) = (1 (x) S_H alpha_H^-1(h)) (S_A alpha_A^-1(a) (x) 1)``."""
    A = mp.A
    H = mp.H
    na, nh = A.dim, H.dim
    _product_dim(na, nh)
    if check:
        report = check_matched_pair(mp)
        if not report.ok:
            raise PreconditionFailed("not a matched pair", report)
    ah_i2, aa_i2 = H.power(-2), A.power(-2)
    left, right = mp.left_cells, mp.right_cells
    h_terms, delta_a = H.coalgebra.comul_terms, A.coalgebra.comul_rows

    # (a (x) h)(b (x) g)
    #   = a (alpha^-2(h_1) -> alpha^-2(b_1)) (x) (alpha^-2(h_2) <- alpha^-2(b_2)) g;
    # lefts[h_1] and rights[h_2] map b_1 and b_2 to the two legs of tau[h][b]
    lefts = [[bilinear_apply(left, x, y) for y in aa_i2] for x in ah_i2]
    rights = [[bilinear_apply(right, x, y) for y in aa_i2] for x in ah_i2]
    tau = [[_legs(terms, lefts, rights, v) for v in delta_a] for terms in h_terms]
    mul = _pair_product(A.algebra.mul_cells, transpose(H.algebra.mul_cells), tau)
    coalg = _tensor_coalgebra(A, H)
    unit = kron(A.unit, H.unit)
    alg = HomAlgebra(coalg.dim, mul, unit, coalg.alpha, alpha_inverse=coalg.alpha_inverse)

    # the two antipode factors as maps: h -> 1 (x) S_H alpha_H^-1(h), a -> S_A alpha_A^-1(a) (x) 1
    s_h = kron(A.unit, compose(H.power(-1), H.antipode_rows))
    s_a = kron(compose(A.power(-1), A.antipode_rows), H.unit)
    antipode = tuple(
        bilinear_apply(alg.mul_cells, s_h[h], s_a[a]) for a in range(na) for h in range(nh)
    )
    return HomHopfAlgebra(HomBialgebra(alg, coalg), antipode)


def dual_matched_pair(
    A: HomHopfAlgebra, H: HomHopfAlgebra, act: ModuleAction, co: ComoduleCoaction, check: bool = True
) -> MatchedPairData:
    """Dualize bicrossproduct data into a matched pair ``(H, A_dual)``:
    the dual acts by ``f > h = f(h_(1)) h_(0)`` and is acted on by
    ``<f < h, a> = <f, h . alpha^-2(a)>``."""
    if check:
        mod_report = check_module_algebra(act)
        co_report = check_comodule_coalgebra(co)
        hyp = bicross_hypotheses(A, H, act, co)
        combined = merge_reports(mod_report, co_report, hyp)
        if not combined.ok:
            raise PreconditionFailed("bicrossproduct preconditions fail", combined)
    na, nh = A.dim, H.dim
    # e^j > e_h is the sum of c e_h0 over the terms (h0, j, c) of rho(e_h)
    entries = {(j, h, h0): c for h, terms in enumerate(co.coact_terms) for h0, j, c in terms}
    left = pair_cells(rows_from_entries((na, nh, nh), entries), nh)
    # column j of alpha^-2 followed by the action of h is <e^j < h, .>
    acted = [transpose_rows(compose(A.power(-2), plane)) for plane in act.act_cells]
    right = tuple(tuple(columns[j] for columns in acted) for j in range(na))
    return MatchedPairData(H, dual(A), left, right)


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
