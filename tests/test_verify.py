"""Theorem-level suites: green paths, documented red paths, determinism."""

from fractions import Fraction

import pytest

from conftest import cells_from_entries, replaced
from homhopf.catalog import (
    catalog_ax1,
    catalog_ex27_expected,
    catalog_group,
    catalog_kz2,
    cyclic_table,
    get_entry,
    symmetric3_data,
)
from homhopf.constructions import (
    canonical_cocycles,
    cocycle_twist,
    drinfeld_double,
    drinfeld_double_tilde,
    dual,
    heisenberg_double,
)
from homhopf.exactlin import basis, basis_vector, kron, rows_from_entries
from homhopf.structures import ComoduleCoaction, ModuleAction, Witness, check_morphism
from homhopf.verify import (
    verify_cor_2_9,
    verify_dual_pair_route,
    verify_prop_2_19,
    verify_prop_4_7,
    verify_thm_2_6,
    verify_thm_4_5,
)

O = Fraction(1)


def failing_steps(result):
    return [s.name for s in result.steps if not s.passed]


def only_failure(result):
    """The name of the single failing step and its single failing entry."""
    (step,) = [s for s in result.steps if not s.passed]
    (entry,) = step.report.failures()
    return step.name, entry


def bumped(v):
    """``v`` with its first coordinate increased by one."""
    return tuple(a + b for a, b in zip(v, basis_vector(len(v), 0)))


def bumped_at(rows, index):
    """``rows`` with the vector at the nested ``index`` bumped."""
    i, *rest = index
    inner = bumped_at(rows[i], rest) if rest else bumped(rows[i])
    return rows[:i] + (inner,) + rows[i + 1 :]


class TestBicrossSuite:
    def test_ax1_data_and_golden_tables(self):
        ax = catalog_ax1()
        result = verify_thm_2_6(
            ax.hopf, ax.partner, ax.action, ax.coaction, catalog_ex27_expected()
        )
        # the product, coproduct and antipode tables match; the composite
        # fails only the comultiplication-multiplicativity axiom inherited
        # from the square-zero generator
        assert failing_steps(result) == ["hopf suite on the bicrossproduct"]
        golden = result.steps[-1]
        assert golden.name == "golden tables" and golden.passed
        hopf_step = next(s for s in result.steps if not s.passed)
        bad = [c.axiom_id for c in hopf_step.report.failures()]
        assert bad == ["bialgebra.comul-multiplicative"]

    def test_trivial_data_passes(self):
        h = catalog_kz2().hopf
        act = ModuleAction(
            h,
            h,
            cells_from_entries(
                (2, 2, 2), {(0, 0, 0): O, (0, 1, 1): O, (1, 0, 0): O, (1, 1, 1): O}
            ),
        )
        co = ComoduleCoaction(
            h, h, rows_from_entries((2, 2, 2), {(0, 0, 0): O, (1, 1, 0): O})
        )
        assert verify_thm_2_6(h, h, act, co).passed

    def test_broken_action_fails_module_step(self):
        ax = catalog_ax1()
        bad = ModuleAction(
            ax.partner,
            ax.hopf,
            cells_from_entries(
                (2, 2, 2), {(0, 0, 0): O, (0, 1, 1): O, (1, 0, 0): O, (1, 1, 1): O}
            ),
        )
        result = verify_thm_2_6(ax.hopf, ax.partner, bad, ax.coaction)
        assert "module-algebra action" in failing_steps(result)

    @pytest.mark.parametrize(
        "table, index, axiom_id",
        [
            ("products", (2, 1), "golden.products"),
            ("coproducts", (1,), "golden.coproducts"),
            ("antipodes", (3,), "golden.antipodes"),
        ],
    )
    def test_perturbed_golden_table_is_witnessed(self, table, index, axiom_id):
        ax = catalog_ax1()
        golden = catalog_ex27_expected()
        rows = getattr(golden, table)
        want = rows[index[0]] if len(index) == 1 else rows[index[0]][index[1]]
        result = verify_thm_2_6(
            ax.hopf,
            ax.partner,
            ax.action,
            ax.coaction,
            replaced(golden, **{table: bumped_at(rows, index)}),
        )
        step = result.steps[-1]
        assert step.name == "golden tables"
        (entry,) = step.report.failures()
        assert entry.axiom_id == axiom_id
        assert entry.witness.index == index
        assert entry.witness.lhs == want
        assert entry.witness.rhs == bumped(want)


class TestSelfBicrossSuite:
    @pytest.mark.parametrize("name", ["one", "sweedler_hom", "cyclic:3"])
    def test_passes(self, name):
        entry = get_entry(name)
        assert verify_cor_2_9(entry.hopf, entry.group).passed

    def test_group_like_closed_form_step_present(self):
        entry = get_entry("cyclic:4")
        result = verify_cor_2_9(entry.hopf, entry.group)
        assert "group-like closed form" in [s.name for s in result.steps]
        assert result.passed

    def test_wrong_automorphism_fails_group_like_closed_form(self):
        entry = get_entry("cyclic:3")
        group = replaced(entry.group, automorphism=(0, 1, 2))
        name, failed = only_failure(verify_cor_2_9(entry.hopf, group))
        assert name == "group-like closed form"
        assert failed.axiom_id == "self-bicross.group-like-product"
        assert failed.witness.index == (0, 0, 0, 1)
        assert failed.witness.lhs == basis_vector(9, 2)
        assert failed.witness.rhs == basis_vector(9, 1)


class TestCanonicalRSuite:
    @pytest.mark.parametrize("name", ["one", "sweedler_hom", "cyclic:2", "cyclic:4"])
    def test_passes(self, name):
        entry = get_entry(name)
        result = verify_prop_2_19(entry.hopf, entry.group)
        assert result.passed

    def test_closed_form_step_on_groups(self):
        entry = get_entry("s3_inner")
        result = verify_prop_2_19(entry.hopf, entry.group)
        assert "closed-form R" in [s.name for s in result.steps]
        assert result.passed

    def test_wrong_automorphism_fails_closed_form_r(self):
        entry = get_entry("cyclic:3")
        group = replaced(entry.group, automorphism=(0, 1, 2))
        name, failed = only_failure(verify_prop_2_19(entry.hopf, group))
        assert name == "closed-form R"
        assert failed.axiom_id == "canonical-r.group-closed-form"
        assert failed.witness.index == (1, 3)
        assert failed.witness.lhs == (O,)
        assert failed.witness.rhs == (Fraction(0),)


class TestTwistSuite:
    @pytest.mark.parametrize(
        "name", ["one", "kz2", "ax1", "sweedler_hom", "cyclic:2", "cyclic:3", "cyclic:4"]
    )
    def test_passes(self, name):
        assert verify_thm_4_5(get_entry(name).hopf).passed

    def test_s3_inner_fails_only_the_right_twist_identity(self):
        # as built: one entry of the right twist's product differs from the
        # dual Heisenberg double; both cocycles, the left-twist identity and
        # the unit and structure map of the right twist agree
        result = verify_thm_4_5(get_entry("s3_inner").hopf)
        name, failed = only_failure(result)
        assert name == "right twist equals dual Heisenberg double"
        assert failed.axiom_id == "twist-vs-heisenberg.mul"
        assert failed.witness.index == (3, 24)
        assert failed.witness.lhs == basis_vector(36, 4)
        assert failed.witness.rhs == (0,) * 36

    def test_commutative_input_with_alpha_squared_not_identity_fails(self):
        # the trigger is alpha^2 != id, not noncommutativity: the order-5
        # group twisted by g -> g^2 (alpha of order 4) fails the same step
        result = verify_thm_4_5(catalog_group(cyclic_table(5), (0, 2, 4, 1, 3)).hopf)
        name, failed = only_failure(result)
        assert name == "right twist equals dual Heisenberg double"
        assert failed.axiom_id == "twist-vs-heisenberg.mul"
        assert failed.witness.index == (1, 10)
        assert failed.witness.lhs == basis_vector(25, 2)
        assert failed.witness.rhs == (0,) * 25

    def test_noncommutative_input_with_involutive_alpha_passes(self):
        # S3 conjugated by a transposition: noncommutative, alpha^2 = id
        table, _ = symmetric3_data()
        assert verify_thm_4_5(catalog_group(table, (0, 2, 1, 3, 5, 4)).hopf).passed

    @pytest.mark.parametrize(
        "make, identity_failure",
        [
            (lambda: get_entry("s3_inner").hopf, (3, 24)),
            (lambda: catalog_group(cyclic_table(5), (0, 2, 4, 1, 3)).hopf, (1, 10)),  # g -> g^2
            (lambda: catalog_group(cyclic_table(7), (0, 3, 6, 2, 5, 1, 4)).hopf, (1, 21)),  # g^3
            (lambda: get_entry("sweedler_hom").hopf, None),
            (lambda: get_entry("cyclic:6").hopf, None),
            (lambda: dual(get_entry("s3_inner").hopf), (0, 22)),
        ],
        ids=["s3_inner", "z5_square", "z7_cube", "sweedler_hom", "cyclic:6", "dual_s3_inner"],
    )
    def test_right_twist_is_the_dual_heisenberg_double_up_to_alpha_squared(
        self, make, identity_failure
    ):
        # psi = id (x) alpha^2 identifies the right twist with the dual
        # Heisenberg double where the identity map fails the product
        A = make()
        n = A.dim
        tilde = drinfeld_double_tilde(A)
        _, eta = canonical_cocycles(A, drinfeld_double(A), tilde)
        right_twist = cocycle_twist(tilde, eta, check=False)
        h_dual = heisenberg_double(dual(A))
        psi = kron(basis(n), A.power(2))
        assert check_morphism("psi", right_twist, h_dual, psi).ok
        plain = check_morphism("id", right_twist, h_dual, basis(n * n))
        failures = [(c.axiom_id, c.witness.index) for c in plain.failures()]
        assert failures == ([("id.mul", identity_failure)] if identity_failure else [])


class TestDualPairSuite:
    def test_cyclic2_passes(self):
        assert verify_dual_pair_route(get_entry("cyclic:2").hopf).passed

    def test_one_passes(self):
        assert verify_dual_pair_route(get_entry("one").hopf).passed

    def test_ax1_fails_only_inherited_bialgebra_axiom(self):
        result = verify_dual_pair_route(get_entry("ax1").hopf)
        assert failing_steps(result) == ["hopf suite on the pair double"]
        step = next(s for s in result.steps if not s.passed)
        assert [c.axiom_id for c in step.report.failures()] == [
            "bialgebra.comul-multiplicative"
        ]

    def test_swapped_reading_reported(self):
        result = verify_dual_pair_route(get_entry("cyclic:2").hopf)
        assert "swapped" in result.steps[0].note

    def test_s3_inner_closed_form_comparison_witnesses(self):
        """The pair double and the closed-form double of s3_inner differ in
        product, coproduct and antipode; each first witness is pinned, the
        coproduct's as a first-leg slice ``(i, j)`` of ``delta(e_i)``."""
        result = verify_dual_pair_route(get_entry("s3_inner").hopf)
        step = next(s for s in result.steps if s.name == "comparison with the closed-form double")
        e = [basis_vector(36, k) for k in range(36)]
        assert [(c.axiom_id, c.witness) for c in step.report.checks] == [
            ("pair-vs-closed.mul", Witness((3, 10), (0,) * 36, e[11])),
            ("pair-vs-closed.unit", None),
            ("pair-vs-closed.alpha", None),
            ("pair-vs-closed.comul", Witness((1, 3), e[5], e[4])),
            ("pair-vs-closed.antipode", Witness((9,), e[16], e[17])),
        ]


class TestComoduleAlgebraSuite:
    def test_cyclic2_passes(self):
        assert verify_prop_4_7(get_entry("cyclic:2").hopf).passed

    def test_mirrored_statement_is_flagged(self):
        result = verify_prop_4_7(get_entry("cyclic:2").hopf)
        assert "mirror" in result.steps[1].note

    def test_ax1_fails_only_multiplicativity(self):
        result = verify_prop_4_7(get_entry("ax1").hopf)
        bad = [
            c.axiom_id for s in result.steps if not s.passed for c in s.report.failures()
        ]
        assert bad == [
            "comodule-algebra.multiplicative",
            "left-comodule-algebra.multiplicative",
        ]


class TestDeterminism:
    def test_rerun_is_identical_modulo_wall_time(self):
        h = get_entry("cyclic:3").hopf
        a = verify_thm_4_5(h)
        b = verify_thm_4_5(h)
        assert a.steps == b.steps
        assert a.passed == b.passed
