"""Section 2 of the paper, the matched-pair route to the double: the data of
a matched pair (``MatchedPairData``), the laws of coalgebra-valued modules,
cotwisting maps and matched pairs, the double crossed product of a matched
pair, and the matched pair dual to bicrossproduct data.

No command runs this route, so no command compiles it; the bicrossproduct
(``bicross``) checks only its own data laws (``laws``).  A mirrored law is
checked as the one-sided law of an opposite: a right action of ``A`` as a
left action of ``A_op``.
"""

from __future__ import annotations

from functools import cached_property

from . import twist
from .bicross import _require_roles, bicross_hypotheses
from .checkers import _multiplicative_cases, _product_law, _sweep, merge_reports, tensor_power_products
from .constructions import _pair_product, _product_dim, _tensor_coalgebra, dual
from .errors import PreconditionFailed
from .exactlin import (
    SparseMatrix, SparseTensor3, apply_map, basis, bilinear_apply, compose, kron, pair_cells, rows_from_entries,
    transpose, transpose_rows,
)
from .laws import check_comodule_coalgebra, check_module, check_module_algebra
from .structures import (
    CheckReport, ComoduleCoaction, HomAlgebra, HomBialgebra, HomHopfAlgebra, ModuleAction, Record, _flat,
    _require, _shape, bialgebra_of, coalgebra_of,
)


class MatchedPairData(Record):
    """Two Hom-bialgebras acting on each other.

    ``left_cells[h][a]`` is the A-valued action ``h -> a`` of H on A and
    ``right_cells[h][a]`` the H-valued action ``h <- a`` of A on H.
    """

    A: object
    H: object
    left_cells: SparseTensor3
    right_cells: SparseTensor3

    def __post_init__(self):
        na, nh = self.A.dim, self.H.dim
        _require(_shape(self.left_cells) == (nh, na, na), "left action shape")
        _require(_shape(self.right_cells) == (nh, na, nh), "right action shape")

    @cached_property
    def left_module(self) -> ModuleAction:
        """The left action as a ``ModuleAction`` of H on A."""
        return ModuleAction(self.H, self.A, self.left_cells)

    @cached_property
    def right_module(self) -> ModuleAction:
        """The right action as a left action ``a . h = h <- a`` of ``A_op`` on H."""
        A = bialgebra_of(self.A)
        a_op = HomBialgebra(A.algebra.op, A.coalgebra)
        return ModuleAction(a_op, self.H, transpose(self.right_cells))


def _grid(cells, n: int) -> tuple[tuple, ...]:
    """The row-major stream ``cells`` as rows of ``n``: ``[i][j]`` is the cell ``i * n + j``."""
    return tuple(zip(*[iter(cells)] * n))


def check_module_coalgebra(m: ModuleAction) -> CheckReport:
    """Module axioms plus comultiplicativity of a coalgebra-valued action."""
    actor = bialgebra_of(m.actor)
    carrier = coalgebra_of(m.carrier)
    nh, nc = actor.dim, carrier.dim
    act, acts, hd = m.act_cells, _flat(m.act_cells), actor.coalgebra.comul_rows
    cm, eps, actor_eps = carrier.comul_rows, carrier.counit, actor.coalgebra.counit
    checks = (
        *check_module(m).checks,
        # delta(h . c) against h_1 . c_1 (x) h_2 . c_2
        _sweep("module-coalgebra.comultiplicative", _multiplicative_cases((act, act), hd, cm)),
        _sweep("module-coalgebra.counit", (nh, nc), compose(acts, eps), kron(actor_eps, eps)),
    )
    return CheckReport(checks)


def check_cotwisting(C, D, phi: SparseMatrix) -> CheckReport:
    """The four coherence conditions of a cotwisting map ``C (x) D -> D (x) C``.

    Each side is a chain of row-image maps on ``C (x) D``, the left one
    starting with ``phi``, applied leg by leg; a case ``(c, d)`` is the row
    ``c (x) d``.
    """
    C = coalgebra_of(C)
    D = coalgebra_of(D)
    nc, nd = C.dim, D.dim
    _require(_shape(phi) == (nc * nd, nd * nc), "cotwisting map shape")

    cm, dm, ac, ad = C.comul_rows, D.comul_rows, C.alpha, D.alpha
    ec, ed, cd = basis(nc), basis(nd), (nc, nd)
    eps_c, eps_d = C.counit, D.counit
    # alpha_C (x) delta_D, then phi (x) id_D, then id_D (x) phi
    second = compose(kron(ac, dm), (phi, ed), (ed, phi))
    # delta_C (x) alpha_D, then id_C (x) phi, then phi (x) id_C
    first = compose(kron(cm, ad), (ec, phi), (phi, ec))
    checks = (
        _sweep("cotwisting.comul-second-factor", cd, compose(phi, (dm, ac)), second),
        _sweep("cotwisting.comul-first-factor", cd, compose(phi, (ad, cm)), first),
        _sweep(
            "cotwisting.alpha-compatible", cd, compose(phi, (ad, ac)), compose(kron(ac, ad), phi)
        ),
        # kill the C-leg of the output: eps_C(c^phi) d^phi = eps_C(c) d
        _sweep("cotwisting.counit-first-factor", cd, compose(phi, (ed, eps_c)), kron(eps_c, ed)),
        _sweep("cotwisting.counit-second-factor", cd, compose(phi, (eps_d, ec)), kron(ec, eps_d)),
    )
    return CheckReport(checks)


def check_matched_pair(mp: MatchedPairData) -> CheckReport:
    """Module Hom-coalgebra conditions on both actions plus the three
    compatibility laws of a matched pair.  The right action is checked as the
    left action of ``A_op`` that it is (``MatchedPairData.right_module``)."""
    A = bialgebra_of(mp.A)
    H = bialgebra_of(mp.H)
    na, nh = A.dim, H.dim
    left, right = mp.left_cells, mp.right_cells
    ah_i1, ah_i2, ah_i3 = (H.power(-k) for k in (1, 2, 3))
    aa_i1, aa_i2, aa_i3 = (A.power(-k) for k in (1, 2, 3))
    amul, hmul = A.algebra.mul_cells, H.algebra.mul_cells
    delta_h, delta_a, hmul_right = H.coalgebra.comul_rows, A.coalgebra.comul_rows, transpose(hmul)
    e_a, e_h, ra = basis(na), basis(nh), range(na)
    # (h g) <- a  against  (h <- (g_1 -> a_1)) (g_2 <- a_2), and
    # h -> (a b)  against  (h_1 -> a_1) ((h_2 <- a_2) -> b), up to structure-map powers:
    # at [g][a], (alpha^-2(g_1) -> alpha^-3(a_1)) (x) (alpha^-1(g_2) <- alpha^-2(a_2)), and
    # at [h][a], (alpha^-2(h_1) -> alpha^-1(a_1)) (x) (alpha^-3(h_2) <- alpha^-2(a_2))
    g21, h23 = compose(delta_h, (ah_i2, ah_i1)), compose(delta_h, (ah_i2, ah_i3))
    a32, a12 = compose(delta_a, (aa_i3, aa_i2)), compose(delta_a, (aa_i1, aa_i2))
    pushed = _grid(tensor_power_products((left, right), g21, a32), na)
    pulled = _grid(tensor_power_products((left, right), h23, a12), na)
    # at [h][x * nh + y], (h <- e_x) e_y, and at [x * nh + y][b], e_x (e_y -> e_b)
    times_after = [[apply_map(r, hx) for hx in row for r in hmul_right] for row in right]
    times_acted = [compose(plane, amul[x]) for x in ra for plane in left]
    # the paper's left side of the first law is _product_law's right triple
    products_act = _product_law((times_after, e_h, pushed), (right, hmul, e_a))
    acts_on_product = _product_law((left, e_h, amul), (times_acted, pulled, e_a))
    # h_1 <- a_1 (x) h_2 -> a_2  against  h_2 <- a_2 (x) h_1 -> a_1
    exchange = [
        tuple(tensor_power_products((right, left), hd, ad))
        for hd, ad in ((delta_h, delta_a), (H.coalgebra.comul_op_rows, A.coalgebra.comul_op_rows))
    ]
    checks = (
        *twist._prefixed("matched-pair.left-action.", check_module_coalgebra(mp.left_module).checks),
        *twist._prefixed("matched-pair.right-action.", check_module_coalgebra(mp.right_module).checks),
        _sweep("matched-pair.product-acts-right", ((i, t, s) for i, s, t in products_act)),
        _sweep("matched-pair.acts-on-product", acts_on_product),
        _sweep("matched-pair.exchange-symmetry", (nh, na), *exchange),
    )
    return CheckReport(checks)


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
    # (a (x) h)(b (x) g)
    #   = a (alpha^-2(h_1) -> alpha^-2(b_1)) (x) (alpha^-2(h_2) <- alpha^-2(b_2)) g,
    # the middle two legs tau[h][b] read from the coproducts with alpha^-2 on both legs
    delta_h, delta_a = (compose(X.coalgebra.comul_rows, (X.power(-2),) * 2) for X in (H, A))
    tau = _grid(tensor_power_products((mp.left_cells, mp.right_cells), delta_h, delta_a), na)
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
    _require_roles(A, H, act, co)
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
