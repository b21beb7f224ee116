"""Product laws are swept only where a side can be nonzero.

``exactlin.product_cases`` picks the basis multi-indices of a product law
at which one side has a nonzero term. It reads them from the filled cells of
the law's tables and the supports of its vectors. Both sides of every other
case are zero. Each law that reads it is compared here with a reference that
visits every basis multi-index and skips nothing. The two must give the same
``CheckEntry``: the same verdict and the same witness. The laws are
``algebra.hom-associative``, ``module.hom-associative``, the cocycle
condition, ``antipode.anti-multiplicative`` and ``check_morphism``'s
``.mul``.  ``bialgebra.comul-multiplicative`` is read the same way from
``exactlin.square_cases`` and compared with the full product table.

Also pinned: how many cases the sweeps visit and how many products they
form, how often a tensor-power product groups an operand, and that a
cocycle's products are built once.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_checker_outcomes import _perturbed, bicross_data

from homhopf import exactlin, structures
from homhopf.catalog import get_entry
from homhopf.constructions import (
    canonical_cocycles,
    drinfeld_double,
    dual,
    dual_pair_double,
    evaluation_pairing,
    heisenberg_double,
    self_bicross,
)
from homhopf.errors import SingularMatrixError
from homhopf.exactlin import (
    apply_map,
    basis,
    bilinear_apply,
    cells,
    dense,
    rows,
    sparse,
    tensor_power_products,
)
from homhopf.structures import (
    CheckEntry,
    HomAlgebra,
    HomHopfAlgebra,
    ModuleAction,
    TwoCocycle,
    Witness,
    algebra_of,
    check_antipode,
    check_cocycle,
    check_hom_algebra,
    check_hom_bialgebra,
    check_module,
    check_morphism,
    hopf_algebra,
)
from homhopf.verify import verify_thm_4_5

F = Fraction

# ---------------------------------------------------------------------------
# the references: every basis multi-index, nothing skipped


def full_sweep(axiom_id: str, shape, sides) -> CheckEntry:
    """The first multi-index of ``shape``, in lexicographic order, whose two
    sides ``sides(*index)`` differ, as a report entry."""
    for index in product(*map(range, shape)):
        lhs, rhs = sides(*index)
        if lhs != rhs:
            return CheckEntry(axiom_id, False, Witness(index, dense(lhs), dense(rhs)))
    return CheckEntry(axiom_id, True)


def hom_associative(obj) -> CheckEntry:
    """alpha(e_i)(e_j e_k) against (e_i e_j) alpha(e_k)."""
    A = algebra_of(obj)
    mc, ar = A.mul_cells, A.alpha_rows
    return full_sweep(
        "algebra.hom-associative",
        (A.dim,) * 3,
        lambda i, j, k: (bilinear_apply(mc, ar[i], mc[j][k]), bilinear_apply(mc, mc[i][j], ar[k])),
    )


def module_hom_associative(m: ModuleAction) -> CheckEntry:
    """alpha(e_a) . (e_b . e_i) against (e_a e_b) . alpha(e_i)."""
    actor = algebra_of(m.actor)
    act, aa, amul, am = m.act_cells, actor.alpha_rows, actor.mul_cells, m.carrier.alpha_rows
    return full_sweep(
        "module.hom-associative",
        (actor.dim, actor.dim, m.carrier.dim),
        lambda a, b, i: (
            bilinear_apply(act, aa[a], act[b][i]),
            bilinear_apply(act, amul[a][b], am[i]),
        ),
    )


def cocycle_condition(sigma: TwoCocycle) -> CheckEntry:
    """sigma(alpha^2(e_h), w[l][k]) against sigma(w[h][l], alpha^2(e_k)), each
    summed from the Gram matrix, with ``w`` the cocycle's products."""
    a2, w, gram = sigma.algebra.power(2), sigma.products, sigma.gram

    def pair(x, y):
        return sparse((sum(cx * cy * gram[p][q] for p, cx in x.items() for q, cy in y.items()),))

    return full_sweep(
        f"cocycle.{sigma.side}-condition",
        (sigma.algebra.dim,) * 3,
        lambda h, l, k: (pair(a2[h], w[l][k]), pair(w[h][l], a2[k])),
    )


def anti_multiplicative(H: HomHopfAlgebra) -> CheckEntry:
    """S(e_i e_j) against S(e_j) S(e_i)."""
    mc, S = H.algebra.mul_cells, H.antipode_rows
    return full_sweep(
        "antipode.anti-multiplicative",
        (H.dim,) * 2,
        lambda i, j: (apply_map(S, mc[i][j]), bilinear_apply(mc, S[j], S[i])),
    )


def morphism_mul(prefix: str, X, Y, phi) -> CheckEntry:
    """phi(x_i x_j) against phi(x_i) phi(x_j)."""
    xc, yc = algebra_of(X).mul_cells, algebra_of(Y).mul_cells
    return full_sweep(
        prefix + ".mul",
        (len(phi),) * 2,
        lambda i, j: (apply_map(phi, xc[i][j]), bilinear_apply(yc, phi[i], phi[j])),
    )


def comul_multiplicative(obj) -> CheckEntry:
    """delta(e_i e_j) against delta(e_i) delta(e_j), from the full product table."""
    mc, delta, n = obj.algebra.mul_cells, obj.coalgebra.comul_rows, obj.dim
    products = tensor_power_products(mc, 2, delta, delta)
    return full_sweep(
        "bialgebra.comul-multiplicative",
        (n, n),
        lambda i, j: (apply_map(delta, mc[i][j]), products[i * n + j]),
    )


def assert_product_laws_match(obj) -> None:
    """Every product law of ``obj`` that applies gives the reference's entry."""
    assert check_hom_algebra(obj).entry("algebra.hom-associative") == hom_associative(obj)
    if isinstance(obj, HomHopfAlgebra):
        entry = check_hom_bialgebra(obj).entry("bialgebra.comul-multiplicative")
        assert entry == comul_multiplicative(obj)
    for prefix, phi in (("id", basis(obj.dim)), ("alpha", obj.alpha_rows)):
        got = check_morphism(prefix, obj, obj, phi).entry(prefix + ".mul")
        assert got == morphism_mul(prefix, obj, obj, phi)
    if isinstance(obj, HomHopfAlgebra):
        entry = check_antipode(obj).entry("antipode.anti-multiplicative")
        assert entry == anti_multiplicative(obj)


# ---------------------------------------------------------------------------
# inputs

CATALOG = ("one", "ax1", "kz2", "sweedler_hom", "cyclic:3", "s3_inner")
# the 36-dim self-bicrossproduct of s3_inner is left out: its dense table
# is swept in full, as those of the smaller ones are
DERIVED = [
    (kind, name)
    for kind in ("double", "self-bicross", "heisenberg-of-dual")
    for name in ("kz2", "sweedler_hom", "cyclic:3", "s3_inner")
    if (kind, name) != ("self-bicross", "s3_inner")
]


@lru_cache(maxsize=None)
def derived(kind: str, name: str):
    h = get_entry(name).hopf
    if kind == "double":
        return drinfeld_double(h)
    if kind == "self-bicross":
        return self_bicross(h, check=False)
    if kind == "heisenberg-of-dual":
        return heisenberg_double(dual(h))
    return dual_pair_double(evaluation_pairing(h), check=False).hopf


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_entries(name):
    assert_product_laws_match(get_entry(name).hopf)


@pytest.mark.parametrize("kind, name", DERIVED)
def test_constructions(kind, name):
    assert_product_laws_match(derived(kind, name))


def test_failing_pair_double_of_s3_inner():
    double = derived("pair-double", "s3_inner")
    entry = check_hom_algebra(double).entry("algebra.hom-associative")
    assert not entry.passed and entry.witness.index == (3, 10, 22)
    assert_product_laws_match(double)


def test_modules_and_cocycles_of_the_catalog():
    for name in ("ax1", "cyclic:3", "sweedler_hom"):
        act = bicross_data(name)[2]
        assert check_module(act).entry("module.hom-associative") == module_hom_associative(act)
    for name in ("sweedler_hom", "cyclic:3", "cyclic:4"):
        for sigma in canonical_cocycles(get_entry(name).hopf):
            entry = check_cocycle(sigma).entry(f"cocycle.{sigma.side}-condition")
            assert entry == cocycle_condition(sigma)


PERTURBED = 8  # seeded single-entry perturbations per input and field


@pytest.mark.parametrize("name", ("sweedler_hom", "cyclic:3", "s3_inner"))
@pytest.mark.parametrize("field", ("mul", "comul", "alpha", "antipode"))
def test_perturbed_hopf_algebras(name, field):
    h = get_entry(name).hopf
    rng = random.Random(f"{name} {field}")
    parts = dict(
        mul=h.mul, unit=h.unit, comul=h.comul, counit=h.counit, alpha=h.alpha, antipode=h.antipode
    )
    for case in range(1, PERTURBED + 1):
        value, _ = _perturbed(parts[field], rng, case)
        try:
            bent = hopf_algebra(h.dim, **{**parts, field: value})
        except SingularMatrixError:
            continue  # a structure map perturbed into a singular one
        assert_product_laws_match(bent)


@pytest.mark.parametrize("name", ("ax1", "cyclic:3", "sweedler_hom"))
def test_perturbed_actions(name):
    act = bicross_data(name)[2]
    rng = random.Random(f"{name} act")
    for case in range(1, PERTURBED + 1):
        bent = ModuleAction(act.actor, act.carrier, cells(_perturbed(act.act, rng, case)[0]))
        assert check_module(bent).entry("module.hom-associative") == module_hom_associative(bent)


@pytest.mark.parametrize("name", ("sweedler_hom", "cyclic:3"))
def test_perturbed_cocycle_forms(name):
    for sigma in canonical_cocycles(get_entry(name).hopf):
        rng = random.Random(f"{name} {sigma.side}")
        for case in range(1, PERTURBED + 1):
            bent = TwoCocycle(sigma.algebra, _perturbed(sigma.gram, rng, case)[0], sigma.side)
            entry = check_cocycle(bent).entry(f"cocycle.{sigma.side}-condition")
            assert entry == cocycle_condition(bent)


# generated inputs: sparse random tables and unitriangular structure maps,
# which have rows of several entries (no catalog structure map does)

entries = st.sampled_from((0, 0, 0, 0, 0, 1, -1, F(1, 2)))
nonzero = st.sampled_from((1, -1, F(1, 2)))


@st.composite
def matrices(draw, r, c):
    return tuple(tuple(draw(entries) for _ in range(c)) for _ in range(r))


@st.composite
def tensors(draw, n1, n2, n3):
    return tuple(draw(matrices(n2, n3)) for _ in range(n1))


@st.composite
def unitriangular(draw, n):
    """Ones on the diagonal, sparse entries above it, and a nonzero first row
    off the diagonal, so at least one row has two entries when ``n > 1``."""
    corner = draw(nonzero)

    def entry(i, j):
        if i == j:
            return 1
        return 0 if j < i else corner if (i, j) == (0, n - 1) else draw(entries)

    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


@st.composite
def hom_hopf_algebras(draw, n):
    """Random parts in the shape of a Hom-Hopf algebra; no law needs to hold."""
    return hopf_algebra(
        n,
        draw(tensors(n, n, n)),
        tuple(draw(entries) for _ in range(n)),
        draw(tensors(n, n, n)),
        tuple(draw(entries) for _ in range(n)),
        draw(unitriangular(n)),
        draw(matrices(n, n)),
    )


dims = st.integers(1, 4)


@given(dims, dims, st.sampled_from(("left", "right")), st.data())
@settings(max_examples=15, deadline=None)
def test_generated_inputs(n, m, side, data):
    H = data.draw(hom_hopf_algebras(n))
    assert_product_laws_match(H)
    Y = HomAlgebra(m, cells(data.draw(tensors(m, m, m))), (0,) * m, data.draw(unitriangular(m)))
    phi = rows(data.draw(matrices(n, m)))  # zero rows included
    assert check_morphism("phi", H, Y, phi).entry("phi.mul") == morphism_mul("phi", H, Y, phi)
    act = ModuleAction(H, Y, cells(data.draw(tensors(n, m, m))))
    assert check_module(act).entry("module.hom-associative") == module_hom_associative(act)
    sigma = TwoCocycle(H.bialgebra, data.draw(matrices(n, n)), side)
    entry = check_cocycle(sigma).entry(f"cocycle.{side}-condition")
    assert entry == cocycle_condition(sigma)


# ---------------------------------------------------------------------------
# counts


def visited(monkeypatch, run) -> Counter:
    """How many cases the case streams held that ``_sweep`` was given while
    ``run()`` ran, by axiom; the streams are read to the end."""
    counts: Counter = Counter()
    sweep = structures._sweep

    def counting(axiom_id, shape, lhs=None, rhs=None):
        if lhs is None:
            shape = list(shape)
            counts[axiom_id] += len(shape)
        return sweep(axiom_id, shape, lhs, rhs)

    monkeypatch.setattr(structures, "_sweep", counting)
    run()
    return counts


def test_hom_associativity_on_the_s3_inner_double_visits_one_case_per_pair(monkeypatch):
    double = derived("double", "s3_inner")
    counts = visited(monkeypatch, lambda: check_hom_algebra(double))
    assert 0 < counts["algebra.hom-associative"] <= 1296  # 14,256 nonempty-cell cases


@pytest.mark.parametrize("name, most", [("sweedler_hom", 40), ("cyclic:4", 64)])
def test_canonical_left_cocycle_law_visits_few_cases(monkeypatch, name, most):
    sigma = canonical_cocycles(get_entry(name).hopf)[0]
    counts = visited(monkeypatch, lambda: check_cocycle(sigma))
    assert 0 < counts["cocycle.left-condition"] <= most


def test_a_dense_table_is_swept_in_full(monkeypatch):
    bicross = self_bicross(get_entry("cyclic:4").hopf, check=False)
    counts = visited(monkeypatch, lambda: check_hom_algebra(bicross))
    assert counts["algebra.hom-associative"] == 16**3


def test_comul_multiplicativity_forms_only_the_products_a_side_needs(monkeypatch):
    """On the 36-dim s3_inner double 216 of the 1,296 pairs have a filled
    product cell or Sweedler terms whose leg products are both filled cells:
    exactly the 216 filled cells.  Only their products are formed and swept."""
    double = derived("double", "s3_inner")
    formed = []
    products = structures.tensor_power_products

    def counting(*args):
        out = products(*args)
        formed.append(len(out))
        return out

    monkeypatch.setattr(structures, "tensor_power_products", counting)
    counts = visited(monkeypatch, lambda: check_hom_bialgebra(double))
    assert formed == [216] and counts["bialgebra.comul-multiplicative"] == 216
    assert sum(1 for plane in double.algebra.mul_cells for cell in plane if cell) == 216


def test_comul_multiplicativity_groups_each_coproduct_row_once(monkeypatch):
    double = derived("double", "s3_inner")
    calls = []
    group = exactlin._by_first_leg

    def counting(*args):
        calls.append(args)
        return group(*args)

    monkeypatch.setattr(exactlin, "_by_first_leg", counting)
    assert check_hom_bialgebra(double).entry("bialgebra.comul-multiplicative").passed
    assert len(calls) <= 2 * double.dim  # each of the 36 rows as left and as right factor


def test_thm45_expands_each_cocycle_once(monkeypatch):
    expanded = []
    expand = TwoCocycle.products.func

    def counting(sigma):
        expanded.append(sigma.side)
        return expand(sigma)

    spy = cached_property(counting)
    spy.__set_name__(TwoCocycle, "products")
    monkeypatch.setattr(TwoCocycle, "products", spy)
    assert verify_thm_4_5(get_entry("cyclic:4").hopf).passed
    assert sorted(expanded) == ["left", "right"]
