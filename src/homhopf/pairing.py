"""Section 3 of the paper, ``D(A)`` from a dual pair: the dual-pair and
twisting-map laws, the evaluation pairing, the double of a dual pair, and
the ``dual-pair`` suite that compares it with the closed-form double.

Only ``construct dual-pair-double`` and the ``dual-pair`` suite run this
code, so only they compile it.  Its conventions and product-space helpers
are those of ``constructions``: the double of a pair lives on ``A (x) B``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from .constructions import (
    _pair_product, _product_dim, _tensor_coalgebra, drinfeld_double, dual, opposite_hopf,
)
from .errors import PreconditionFailed
from .exactlin import (
    SparseMatrix, apply_kron, basis, compose, flip, kron, mat_inverse, pair_cells, transpose,
    transpose_rows,
)
from .structures import (
    CheckReport, HomAlgebra, HomBialgebra, HomHopfAlgebra, PairingForm, Record, _flat,
    _product_law, _require, _shape, _sweep, algebra_of, check_morphism, make_entry,
    run_hopf_suite,
)

if TYPE_CHECKING:
    from .verify import SuiteResult


def _partial_forms(gram: SparseMatrix, alpha_left: SparseMatrix, alpha_right: SparseMatrix):
    """For a bilinear form ``<,>`` with Gram matrix ``gram``, the maps
    ``x -> <alpha_left(e_i), x>`` (one per ``i``) and ``x -> <x, alpha_right(e_j)>``
    (one per ``j``) to the one-dimensional space."""
    first = tuple(transpose_rows((row,)) for row in compose(alpha_left, gram))
    second = tuple(transpose_rows((row,)) for row in compose(alpha_right, transpose_rows(gram)))
    return first, second


def check_twisting(A, B, t: SparseMatrix) -> CheckReport:
    """The three conditions of a twisting map ``B (x) A -> A (x) B``.

    Each side is a chain of row-image maps applied leg by leg, so no map on
    a triple tensor product is built; a case ``(i,)`` is the ``i``-th basis
    vector of the domain.
    """
    A = algebra_of(A)
    B = algebra_of(B)
    na, nb = A.dim, B.dim
    _require(_shape(t) == (nb * na, na * nb), "twisting map shape")

    am, bm, aa, ba = A.mul_map, B.mul_map, A.alpha, B.alpha
    ia, ib = basis(na), basis(nb)
    n = nb * na
    alphas = compose(kron(ba, aa), t)  # alpha_B (x) alpha_A, then t
    # on B (x) B (x) A: id_B (x) t, then t (x) id_B, then alpha_A (x) mu_B
    second = compose(kron(ib, t), (t, ib), (aa, bm))
    # on B (x) A (x) A: t (x) id_A, then id_A (x) t, then mu_A (x) alpha_B
    first = compose(kron(t, ia), (ia, t), (am, ba))
    checks = (
        _sweep("twisting.alpha-compatible", (n,), compose(t, (aa, ba)), alphas),
        # mu_B (x) alpha_A, then t
        _sweep("twisting.second-factor-product", (nb * n,), compose(kron(bm, aa), t), second),
        # alpha_B (x) mu_A, then t
        _sweep("twisting.first-factor-product", (n * na,), compose(kron(ba, am), t), first),
    )
    return CheckReport(checks)


def check_dual_pair(P: PairingForm) -> CheckReport:
    """Compatibility of a non-degenerate pairing with units, products,
    coproducts, structure maps and antipodes.

    The coproduct-side condition whose printed form is type-inconsistent is
    checked in the reading symmetric to the product-side one; the swapped
    alternative is reported as an extra informational entry.
    """
    A, B, gram = P.left, P.right, P.gram
    na, nb = A.dim, B.dim
    e_a, e_b, a_alpha, b_alpha = basis(na), basis(nb), A.alpha, B.alpha
    eps_a, eps_b = A.coalgebra.counit, B.coalgebra.counit
    a_mul, b_mul = A.algebra.mul_cells, B.algebra.mul_cells
    a_unit, b_unit, s_a = A.algebra.unit, B.algebra.unit, A.antipode_rows
    form = P.form
    pair = _flat(form)  # a (x) b -> <a, b>
    s_b_inverse = compose(kron(e_a, B.antipode_inverse), pair)
    # x -> <alpha^2(a_i), x> on B and x -> <x, alpha^2(b_j)> on A
    with_a, with_b = _partial_forms(gram, A.power(2), B.power(2))
    delta_a, delta_b = A.coalgebra.comul_rows, B.coalgebra.comul_rows

    # on_first[i][j] is <a_1, alpha^2(b_j)> a_2 and on_second[i][j] is a_1 <a_2, alpha^2(b_j)>,
    # for a = e_i; then_paired[x][j] is <e_x, alpha^2(b_j)>
    on_first = [[apply_kron(with_b[j], e_a, delta_a[i]) for j in range(nb)] for i in range(na)]
    on_second = [[apply_kron(e_a, with_b[j], delta_a[i]) for j in range(nb)] for i in range(na)]
    then_paired = transpose(with_b)
    # b_paired[i][j] is b_1 <alpha^2(a_i), b_2> for b = e_j, and with_a[i][y] is <alpha^2(a_i), e_y>
    b_paired = [[apply_kron(e_b, with_a[i], delta_b[j]) for j in range(nb)] for i in range(na)]
    # <a a', b> against <alpha^2(a), b_1> <alpha^2(a'), b_2>, the right triple against the left
    mul_comul_left = _product_law((with_a, e_a, b_paired), (form, a_mul, e_b))
    times_b = (form, e_a, b_mul)  # <a, b b'>
    checks = (
        # a PairingForm with a singular gram is refused when it is built
        make_entry("pairing.non-degenerate", True),
        _sweep("pairing.unit-right", (na,), compose(kron(e_a, b_unit), pair), eps_a),
        _sweep("pairing.unit-left", (nb,), compose(kron(a_unit, e_b), pair), eps_b),
        _sweep("pairing.alpha-invariant", (na, nb), compose(kron(a_alpha, b_alpha), pair), pair),
        _sweep("pairing.mul-comul-left", ((i, t, s) for i, s, t in mul_comul_left)),
        # <a, b b'> against <a_1, alpha^2(b)> <a_2, alpha^2(b')>, and with b and b'
        # exchanged on the right
        _sweep("pairing.mul-comul-right", _product_law(times_b, (then_paired, on_first, e_b))),
        _sweep(
            "pairing.mul-comul-right-swapped", _product_law(times_b, (then_paired, on_second, e_b))
        ),
        # <S_A(a), b> against <a, S_B^-1(b)>
        _sweep("pairing.antipode", (na, nb), compose(kron(s_a, e_b), pair), s_b_inverse),
    )
    return CheckReport(checks)


def evaluation_pairing(H: HomHopfAlgebra) -> PairingForm:
    """The evaluation pairing on ``(H_op, H_dual)``; the opposite carries the
    inverse antipode so both sides are Hom-Hopf."""
    return PairingForm(opposite_hopf(H), dual(H), basis(H.dim))


class PairedDouble(Record):
    """A double built from a dual pairing, with its twisting map and the
    outcome of comparing the closed-form antipode inverses of the two
    half-braidings against their exact matrix inverses."""

    hopf: HomHopfAlgebra
    twisting: SparseMatrix
    closed_form_inverses_match: tuple[bool, bool]


def dual_pair_double(P: PairingForm, check: bool = True) -> PairedDouble:
    """The double on ``A (x) B`` of a dual pair, with multiplication

    ``(a (x) b)(a' (x) b') = (S^-1 alpha_A(a'_1), b_2)(a'_22, alpha_B^-1(b_11))
        a alpha_A^-2(a'_21) (x) alpha_B^-2(b_12) b'``,

    coproduct ``a_1 (x) b_2 (x) a_2 (x) b_1``, and antipode built from the
    twisting map.  The antipode-based closed forms for the half-braiding
    inverses are evaluated and compared against exact matrix inverses; a
    mismatch is recorded, never fatal."""
    A, B, gram = P.left, P.right, P.gram
    na, nb = A.dim, B.dim
    _product_dim(na, nb)
    if check:
        report = check_dual_pair(P)
        required = [c for c in report.checks if c.axiom_id != "pairing.mul-comul-right-swapped"]
        if not all(c.passed for c in required):
            raise PreconditionFailed("not a dual pair", CheckReport(tuple(required)))
    aa_i1, aa_i2, bb_i1, bb_i2 = A.power(-1), A.power(-2), B.power(-1), B.power(-2)
    sa_inv, sb_inv = A.antipode_inverse, B.antipode_inverse
    e_a, e_b = basis(na), basis(nb)

    def paired(weight: SparseMatrix, first: bool, a_then, b_then) -> SparseMatrix:
        """The map on ``A (x) B`` that pairs one Sweedler leg of ``a`` with one of
        ``b`` through ``weight`` and keeps the other two, then applies
        ``a_then (x) b_then``: ``a_1 (x) <a_2, b_1> b_2`` if ``first``, else
        ``a_2 (x) <a_1, b_2> b_1``, the same through the co-opposites."""
        ca, cb = (A.coalgebra, B.coalgebra) if first else (A.coalgebra.op, B.coalgebra.op)
        legs = ca.comul_rows
        # through[b] maps the paired leg of a to the kept leg of b
        through = [compose(weight, plane, b_then) for plane in pair_cells(cb.comul_rows, nb)]
        return tuple(apply_kron(a_then, t, legs[a]) for a in range(na) for t in through)

    # <alpha_A(a), b> and <S_A^-1 alpha_A(a), b>
    plain, inverse = compose(A.alpha, gram), compose(A.alpha, sa_inv, gram)
    r1 = paired(plain, True, aa_i1, bb_i1)
    r2 = paired(plain, False, aa_i1, bb_i1)
    r1_inv = mat_inverse(r1)
    r2_inv = mat_inverse(r2)
    closed_r1_inv = paired(inverse, True, aa_i1, bb_i1)
    closed_r2_inv = paired(inverse, False, aa_i1, bb_i1)
    inverses_match = (closed_r1_inv == r1_inv, closed_r2_inv == r2_inv)
    twisting = compose(flip(nb, na), r2_inv, r1)

    # a' (x) b goes to <S^-1 alpha_A(a'_1), b_2> a'_2 (x) b_1, and then a'_2 (x) b_1 to
    # <a'_22, alpha_B^-1(b_11)> a'_21 (x) b_12
    weight2 = compose(gram, transpose_rows(B.alpha_inverse))  # <a, alpha_B^-1(b)>
    middles = compose(paired(inverse, False, e_a, e_b), paired(weight2, True, e_a, e_b))
    # first[a] maps a'_21 to a alpha_A^-2(a'_21), second[b'] maps b_12 to alpha_B^-2(b_12) b'
    first = [compose(aa_i2, lm) for lm in A.algebra.mul_cells]
    second = [compose(bb_i2, rm) for rm in transpose(B.algebra.mul_cells)]
    tau = [[middles[ap * nb + b] for ap in range(na)] for b in range(nb)]
    # a_1 (x) b_2 (x) a_2 (x) b_1: the tensor coproduct with B's co-opposite
    coalg = _tensor_coalgebra(A, B.coalgebra.op)
    antipode = compose(kron(A.antipode_rows, sb_inv), flip(na, nb), twisting)
    unit = kron(A.unit, B.unit)
    mul = _pair_product(first, second, tau)
    alg = HomAlgebra(coalg.dim, mul, unit, coalg.alpha, alpha_inverse=coalg.alpha_inverse)
    hopf = HomHopfAlgebra(HomBialgebra(alg, coalg), antipode)
    return PairedDouble(hopf, twisting, inverses_match)


def verify_dual_pair_route(H: HomHopfAlgebra) -> SuiteResult:
    """The pairing route to the double: dual-pair conditions for the
    evaluation pairing, the Hopf suite on the resulting double, the twisting
    map conditions, the embedding identities, and a comparison with the
    closed-form double through the identity map."""
    from .verify import SuiteStep, _timed  # here, so that no construct command compiles verify

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
