"""Acceptance gate: one test per criterion, all comparisons exact.

Run ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion instance; add ``-s`` to see the printed summary lines.

Three sub-assertions are strict expected failures, all with one root cause
that is pinned (not worked around) here and in test_catalog.py: the
two-dimensional square-zero algebra ``ax1`` satisfies every axiom except
comultiplication multiplicativity, since ``delta(x . x) = 0`` while
``delta(x) delta(x) = 2 (x (x) x)``, and no invertible structure map can
repair that outside characteristic two.  Objects built on top of it (its
bicrossproduct, its doubles, its twists) inherit exactly that failure and
nothing else.
"""

import time
from fractions import Fraction
from itertools import product

import pytest

from conftest import run_cli, tensor3_from_entries
from homhopf.catalog import (
    catalog_ax1,
    catalog_cyclic,
    catalog_ex27_expected,
    get_entry,
)
from homhopf.constructions import (
    canonical_cocycles,
    canonical_r_matrix,
    cocycle_twist,
    drinfeld_double,
    drinfeld_double_tilde,
    dual,
    dual_pair_double,
    evaluation_pairing,
    heisenberg_double,
    opposite,
    self_bicross,
    bicrossproduct,
)
from homhopf.exactlin import (
    apply_map,
    basis_vector,
    bilinear_apply,
    cells,
    dense,
    dense_rows,
    flatten_pair,
    kron,
    mat_inverse,
    matrix_from_entries,
    nonzeros,
    rows,
    sparse,
)
from homhopf.fileformat import (
    SCHEMA_VERSION,
    AlgebraFile,
    bundle_of_entry,
    object_record,
    parse,
    serialize,
)
from homhopf.structures import (
    ComoduleCoaction,
    check_cocycle,
    check_comodule_algebra,
    check_dual_pair,
    check_quasitriangular,
    hopf_algebra,
    run_hopf_suite,
)

F = Fraction
Z, O = F(0), F(1)

KNOWN_DEFECT = (
    "the square-zero generator violates comultiplication multiplicativity in "
    "characteristic zero (delta(x^2)=0 versus delta(x)^2 = 2 x(x)x); "
    "no structure map can repair it and every composite built on it inherits "
    "exactly this one failing axiom"
)


def announce(criterion: str, instance: str, passed: bool, extra: str = ""):
    status = "PASS" if passed else "FAIL"
    tail = f"  [{extra}]" if extra else ""
    print(f"acceptance {criterion} ({instance}): {status}{tail}")


# -- criterion 1: catalog soundness --------------------------------------


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(
            "ax1", marks=pytest.mark.xfail(strict=True, reason=KNOWN_DEFECT)
        ),
        "sweedler_hom",
        "cyclic:2",
        "cyclic:3",
        "cyclic:4",
        "cyclic:5",
        "cyclic:6",
    ],
)
def test_criterion_01_catalog_soundness(name):
    entry = get_entry(name)
    started = time.perf_counter()
    base = run_hopf_suite(entry.hopf)
    base_time = time.perf_counter() - started
    started = time.perf_counter()
    dual_report = run_hopf_suite(dual(entry.hopf))
    dual_time = time.perf_counter() - started
    ok = base.ok and dual_report.ok and base_time < 1.0 and dual_time < 1.0
    announce("criterion 1", name, ok, f"{base_time:.2f}s base, {dual_time:.2f}s dual")
    assert base.ok, [c.axiom_id for c in base.failures()]
    assert dual_report.ok, [c.axiom_id for c in dual_report.failures()]
    assert base_time < 1.0 and dual_time < 1.0


# -- criterion 2: bicrossproduct golden tables ----------------------------


def test_criterion_02_golden_tables():
    ax = catalog_ax1()
    built = bicrossproduct(ax.hopf, ax.partner, ax.action, ax.coaction, check=False)
    golden = catalog_ex27_expected()
    for i in range(4):
        for j in range(4):
            assert built.mul[i][j] == golden.products[i][j], (i, j)
    for i in range(4):
        assert flatten_pair(built.comul[i]) == golden.coproducts[i], i
        assert built.antipode[i] == golden.antipodes[i], i
    announce("criterion 2", "16 products, 4 coproducts, 4 antipodes", True)


def test_criterion_02_coproduct_sign_is_forced():
    # The golden coproduct of x#g differs from a naive transcription in the
    # sign of one term; the Hom-counit law decides it.  Flipping that term
    # makes (counit (x) id)(delta(x#g)) = +x#g instead of alpha(x#g) = -x#g.
    ax = catalog_ax1()
    built = bicrossproduct(ax.hopf, ax.partner, ax.action, ax.coaction, check=False)
    counit, alpha = built.counit, built.alpha
    row = catalog_ex27_expected().coproducts[3]
    flipped = tuple(-c if p == 7 else c for p, c in enumerate(row))

    def counit_left(vec16):
        out = [Z] * 4
        for p, c in nonzeros(vec16):
            j, k = divmod(p, 4)
            if counit[j]:
                out[k] += c * counit[j]
        return tuple(out)

    assert counit_left(row) == alpha[3]
    assert counit_left(flipped) != alpha[3]
    announce("criterion 2", "coproduct sign forced by the counit law", True)


# -- criterion 3: double of the twisted cyclic algebra --------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_criterion_03_double_closed_form(n):
    started = time.perf_counter()
    mul = drinfeld_double(catalog_cyclic(n).hopf).mul
    for i, j, m, k in product(range(n), repeat=4):
        expected = [Z] * (n * n)
        if j == k:
            expected[((-(i + m)) % n) * n + ((n - k) % n)] = O
        assert mul[i * n + j][m * n + k] == tuple(expected), (i, j, m, k)
    elapsed = time.perf_counter() - started
    announce("criterion 3", f"cyclic:{n}", True, f"{elapsed:.2f}s")
    if n == 6:
        assert elapsed < 10.0


# -- criterion 4: quasitriangular structures ------------------------------


def test_criterion_04_sweedler_r_matrix():
    entry = get_entry("sweedler_hom")
    report = check_quasitriangular(entry.hopf, entry.rmatrix)
    announce("criterion 4", "triangular structure on the twisted Sweedler algebra", report.ok)
    assert report.ok


@pytest.mark.parametrize("name", ["sweedler_hom", "cyclic:2", "cyclic:3", "cyclic:4"])
def test_criterion_04_canonical_r_on_doubles(name):
    h = get_entry(name).hopf
    d = drinfeld_double(h)
    r = canonical_r_matrix(h, d)
    report = check_quasitriangular(d, r)
    announce("criterion 4", f"canonical R on the double of {name}", report.ok)
    assert report.ok


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_criterion_04_closed_form_r(n):
    entry = catalog_cyclic(n)
    r = canonical_r_matrix(entry.hopf)
    g = entry.group
    expected: dict[tuple[int, int], Fraction] = {}
    for i in range(n):
        p = g.identity * n + g.automorphism[i]
        for s in range(n):
            expected[p, g.inverse[i] * n + s] = O
    for p in range(n * n):
        for q in range(n * n):
            assert r.entries[p][q] == expected.get((p, q), Z), (p, q)
    announce("criterion 4", f"closed-form R for cyclic:{n}", True)


# -- criterion 5: the twist theorem (headline) ----------------------------


@pytest.mark.parametrize("name", ["ax1", "sweedler_hom", "cyclic:2", "cyclic:3", "cyclic:4"])
def test_criterion_05_twist_theorem(name):
    a = get_entry(name).hopf
    started = time.perf_counter()
    double = drinfeld_double(a)
    tilde = drinfeld_double_tilde(a)
    sigma, eta = canonical_cocycles(a, double, tilde)
    left = cocycle_twist(double.bialgebra, sigma, check=False)
    right = cocycle_twist(tilde, eta, check=False)
    h_op = heisenberg_double(opposite(a))
    h_dual = heisenberg_double(dual(a))
    elapsed = time.perf_counter() - started
    ok = (
        left.mul == h_op.mul
        and left.unit == h_op.unit
        and left.alpha == h_op.alpha
        and right.mul == h_dual.mul
        and right.unit == h_dual.unit
        and right.alpha == h_dual.alpha
    )
    announce("criterion 5", name, ok, f"{elapsed:.2f}s")
    assert left.mul == h_op.mul
    assert right.mul == h_dual.mul
    assert (left.unit, left.alpha) == (h_op.unit, h_op.alpha)
    assert (right.unit, right.alpha) == (h_dual.unit, h_dual.alpha)
    assert elapsed < 5.0


# -- criterion 6: cocycle axioms ------------------------------------------


@pytest.mark.parametrize("name", ["ax1", "sweedler_hom", "cyclic:2", "cyclic:3", "cyclic:4"])
def test_criterion_06_cocycle_axioms(name):
    a = get_entry(name).hopf
    sigma, eta = canonical_cocycles(a)
    sreport = check_cocycle(sigma)
    ereport = check_cocycle(eta)
    ok = sreport.ok and ereport.ok
    announce("criterion 6", name, ok)
    assert sreport.ok, [c.axiom_id for c in sreport.failures()]
    assert ereport.ok, [c.axiom_id for c in ereport.failures()]
    assert {c.axiom_id for c in sreport.checks} == {
        "cocycle.alpha-invariant",
        "cocycle.left-condition",
        "cocycle.normal",
    }
    assert {c.axiom_id for c in ereport.checks} == {
        "cocycle.alpha-invariant",
        "cocycle.right-condition",
        "cocycle.normal",
    }


# -- criterion 7: the canonical self-bicrossproduct -----------------------


@pytest.mark.parametrize("name", ["sweedler_hom", "cyclic:3"])
def test_criterion_07_self_bicross_hopf_suite(name):
    built = self_bicross(get_entry(name).hopf)
    report = run_hopf_suite(built)
    announce("criterion 7", name, report.ok)
    assert report.ok, [c.axiom_id for c in report.failures()]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_criterion_07_group_like_closed_form(n):
    entry = catalog_cyclic(n)
    g = entry.group
    mul = self_bicross(entry.hopf, check=False).mul
    for a, h, b, k in product(range(n), repeat=4):
        p = g.automorphism[g.table[g.table[g.table[a][g.inverse[h]]][b]][h]]
        q = g.automorphism[g.table[k][h]]
        expected = [Z] * (n * n)
        expected[p * n + q] = O
        assert mul[a * n + h][b * n + k] == tuple(expected), (a, h, b, k)
    announce("criterion 7", f"group-like closed form for cyclic:{n}", True)


# -- criterion 8: the dual-pair route --------------------------------------


@pytest.mark.parametrize("name", ["ax1", "cyclic:2"])
def test_criterion_08_dual_pair_conditions(name):
    pairing = evaluation_pairing(get_entry(name).hopf)
    report = check_dual_pair(pairing)
    required = [c for c in report.checks if c.axiom_id != "pairing.mul-comul-right-swapped"]
    ok = all(c.passed for c in required)
    announce("criterion 8", f"pairing conditions for {name}", ok)
    assert ok, [c.axiom_id for c in required if not c.passed]


@pytest.mark.parametrize(
    "name",
    [
        pytest.param("ax1", marks=pytest.mark.xfail(strict=True, reason=KNOWN_DEFECT)),
        "cyclic:2",
    ],
)
def test_criterion_08_pair_double_hopf_suite(name):
    paired = dual_pair_double(evaluation_pairing(get_entry(name).hopf), check=False)
    report = run_hopf_suite(paired.hopf)
    announce("criterion 8", f"hopf suite on the pair double of {name}", report.ok)
    assert report.ok, [c.axiom_id for c in report.failures()]


@pytest.mark.parametrize("name", ["ax1", "cyclic:2"])
def test_criterion_08_embedding_identity(name):
    pairing = evaluation_pairing(get_entry(name).hopf)
    paired = dual_pair_double(pairing, check=False)
    A, B = pairing.left, pairing.right
    na, nb = A.dim, B.dim
    nd = na * nb
    alpha_inv = mat_inverse(dense_rows(kron(rows(A.alpha), rows(B.alpha))))
    for a, b in product(range(na), range(nb)):
        u = [Z] * nd
        for p, c in nonzeros(B.unit):
            u[a * nb + p] = c
        v = [Z] * nd
        for p, c in nonzeros(A.unit):
            v[p * nb + b] = c
        w = apply_map(rows(alpha_inv), bilinear_apply(cells(paired.hopf.mul), sparse(u), sparse(v)))
        assert dense(w) == basis_vector(nd, a * nb + b), (a, b)
    announce("criterion 8", f"embedding identity for {name}", True)


# -- criterion 9: the twisted double is a comodule algebra ----------------


@pytest.mark.parametrize(
    "name",
    [
        pytest.param("ax1", marks=pytest.mark.xfail(strict=True, reason=KNOWN_DEFECT)),
        "cyclic:2",
    ],
)
def test_criterion_09_comodule_algebra(name):
    a = get_entry(name).hopf
    double = drinfeld_double(a)
    sigma, _ = canonical_cocycles(a, double)
    twisted = cocycle_twist(double.bialgebra, sigma, check=False)
    coaction = ComoduleCoaction(double.bialgebra, twisted, double.coalgebra.comul_rows)
    report = check_comodule_algebra(twisted, coaction)
    announce("criterion 9", name, report.ok)
    assert report.ok, [c.axiom_id for c in report.failures()]


# -- criterion 10: mutation sensitivity ------------------------------------


def test_criterion_10_mutation_sensitivity():
    ax = catalog_ax1().hopf
    baseline = {
        (c.axiom_id, c.witness.index) for c in run_hopf_suite(ax).failures()
    }

    def tensor_entries(t):
        return {
            (i, j, k): v
            for i, plane in enumerate(t)
            for j, row in enumerate(plane)
            for k, v in enumerate(row)
            if v
        }

    def matrix_entries(m):
        return {(i, j): v for i, row in enumerate(m) for j, v in enumerate(row) if v}

    mutations = []
    for idx, v in tensor_entries(ax.mul).items():
        entries = tensor_entries(ax.mul)
        entries[idx] = -v
        mutations.append(
            (
                f"mul{idx}",
                hopf_algebra(
                    2,
                    tensor3_from_entries((2, 2, 2), entries),
                    ax.unit,
                    ax.comul,
                    ax.counit,
                    ax.alpha,
                    ax.antipode,
                ),
            )
        )
    for idx, v in tensor_entries(ax.comul).items():
        entries = tensor_entries(ax.comul)
        entries[idx] = -v
        mutations.append(
            (
                f"comul{idx}",
                hopf_algebra(
                    2,
                    ax.mul,
                    ax.unit,
                    tensor3_from_entries((2, 2, 2), entries),
                    ax.counit,
                    ax.alpha,
                    ax.antipode,
                ),
            )
        )
    for idx, v in matrix_entries(ax.alpha).items():
        entries = matrix_entries(ax.alpha)
        entries[idx] = -v
        mutations.append(
            (
                f"alpha{idx}",
                hopf_algebra(
                    2,
                    ax.mul,
                    ax.unit,
                    ax.comul,
                    ax.counit,
                    matrix_from_entries(2, 2, entries),
                    ax.antipode,
                ),
            )
        )
    for idx, v in matrix_entries(ax.antipode).items():
        entries = matrix_entries(ax.antipode)
        entries[idx] = -v
        mutations.append(
            (
                f"antipode{idx}",
                hopf_algebra(
                    2,
                    ax.mul,
                    ax.unit,
                    ax.comul,
                    ax.counit,
                    ax.alpha,
                    matrix_from_entries(2, 2, entries),
                ),
            )
        )

    assert len(mutations) == 10  # 3 mul + 3 comul + 2 alpha + 2 antipode
    for label, mutated in mutations:
        failures = {
            (c.axiom_id, c.witness.index) for c in run_hopf_suite(mutated).failures()
        }
        fresh = failures - baseline
        assert fresh, f"sign flip {label} escaped every checker"
    announce("criterion 10", "10 sign flips, each caught beyond the pinned baseline", True)


# -- criterion 11: tooling -------------------------------------------------


def test_criterion_11_round_trips():
    names = ["one", "ax1", "kz2", "sweedler_hom", "cyclic:2", "cyclic:3",
             "cyclic:4", "cyclic:5", "cyclic:6", "s3_inner"]
    for name in names:
        bundle = bundle_of_entry(get_entry(name))
        assert parse(serialize(bundle)) == bundle, name
    constructed = []
    for name in ["ax1", "cyclic:2", "cyclic:3"]:
        h = get_entry(name).hopf
        double = drinfeld_double(h)
        tilde = drinfeld_double_tilde(h)
        sigma, eta = canonical_cocycles(h, double, tilde)
        constructed.extend(
            [
                double,
                tilde,
                dual(h),
                opposite(h),
                heisenberg_double(opposite(h)),
                heisenberg_double(dual(h)),
                cocycle_twist(double.bialgebra, sigma, check=False),
                cocycle_twist(tilde, eta, check=False),
                self_bicross(h, check=False),
                dual_pair_double(evaluation_pairing(h), check=False).hopf,
            ]
        )
    for k, obj in enumerate(constructed):
        bundle = AlgebraFile(SCHEMA_VERSION, (object_record(f"c{k}", obj),), ())
        assert parse(serialize(bundle)) == bundle, k
    announce(
        "criterion 11",
        f"round trips: {len(names)} catalog bundles + {len(constructed)} construction outputs",
        True,
    )


def test_criterion_11_exit_codes():
    assert run_cli(["check", "cyclic:3"]).exit_code == 0
    assert run_cli(["check", "ax1", "--level", "algebra"]).exit_code == 0
    assert run_cli(["check", "ax1", "--level", "hopf"]).exit_code == 1
    assert run_cli(["check", "missing.alg"]).exit_code == 2
    assert run_cli(["verify", "thm4.5", "--algebra", "cyclic:2"]).exit_code == 0
    assert run_cli(["verify", "nope", "--algebra", "cyclic:2"]).exit_code == 2
    announce("criterion 11", "exit-code contract 0/1/2", True)
