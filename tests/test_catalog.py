"""Catalog fixtures: golden structure constants and validation errors."""

from fractions import Fraction

import pytest

from conftest import basis_vector, dense_field
from homhopf import catalog
from homhopf.bicross import catalog_ex27_expected
from homhopf.catalog import (
    catalog_ax1,
    catalog_cyclic,
    catalog_group,
    catalog_kz2,
    catalog_sweedler_hom,
    cyclic_table,
    get_entry,
    symmetric3_data,
)
from homhopf.checkers import run_hopf_suite
from homhopf.constructions import dual, yau_twist
from homhopf.errors import InvalidParameter, NotAGroup, NotAnAutomorphism
from homhopf.exactlin import (
    apply_map,
    bilinear_apply,
    dense,
    dense_cells,
    dense_rows,
    rows_from_entries,
    sparse,
)
from homhopf.structures import MAX_DIM

F = Fraction


class TestAx1:
    def test_products(self):
        h = catalog_ax1().hopf
        one, x = basis_vector(2, 0), basis_vector(2, 1)
        assert dense(bilinear_apply(h.algebra.mul_cells, sparse(one), sparse(x))) == (F(0), F(-1))
        assert dense(bilinear_apply(h.algebra.mul_cells, sparse(x), sparse(x))) == (F(0), F(0))

    def test_counit(self):
        assert dense_field(catalog_ax1().hopf, "counit") == (F(1), F(0))

    def test_bundled_action_values(self):
        act = dense_field(catalog_ax1().action, "act")
        # g . x = x, 1 . x = -x
        assert act[1][1] == (F(0), F(1))
        assert act[0][1] == (F(0), F(-1))


class TestSweedler:
    def test_product_g_x(self):
        h = catalog_sweedler_hom().hopf
        g, x = basis_vector(4, 1), basis_vector(4, 2)
        assert dense(bilinear_apply(h.algebra.mul_cells, sparse(g), sparse(x))) == basis_vector(4, 3)
        gx = dense(bilinear_apply(h.algebra.mul_cells, sparse(x), sparse(g)))
        assert gx == (F(0), F(0), F(0), F(-1))

    def test_alpha_negates_gx(self):
        h = catalog_sweedler_hom().hopf
        image = dense(apply_map(h.alpha, sparse(basis_vector(4, 3))))
        assert image == (F(0), F(0), F(0), F(-1))

    def test_antipode_of_x(self):
        h = catalog_sweedler_hom().hopf
        image = dense(apply_map(h.antipode_rows, sparse(basis_vector(4, 2))))
        assert image == (F(0), F(0), F(0), F(-1))

    def test_bundled_r_matrix(self):
        r = catalog_sweedler_hom().rmatrix
        half = F(1, 2)
        assert r.entries[0][0] == half
        assert r.entries[1][1] == -half
        assert dense_rows(r.entries) == ((half, half, 0, 0), (half, -half, 0, 0), (0,) * 4, (0,) * 4)


class TestCyclic:
    def test_product(self):
        h = catalog_cyclic(3).hopf
        g1, g2 = basis_vector(3, 1), basis_vector(3, 2)
        assert dense(bilinear_apply(h.algebra.mul_cells, sparse(g1), sparse(g2))) == basis_vector(3, 0)

    def test_comul_and_antipode(self):
        h = catalog_cyclic(5).hopf
        comul = dense_field(h, "comul")
        for i in range(5):
            j = (5 - i) % 5
            assert comul[i][j][j] == F(1)
            image = dense(apply_map(h.antipode_rows, sparse(basis_vector(5, i))))
            assert image == basis_vector(5, j)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_equals_twisted_group_algebra(self, n):
        """``cyclic:<n>`` is the Yau twist of the classical group algebra along inversion."""
        classical = catalog_group(cyclic_table(n), tuple(range(n))).hopf
        inversion = rows_from_entries((n, n), {(i, (n - i) % n): 1 for i in range(n)})
        assert yau_twist(classical, inversion) == catalog_cyclic(n).hopf

    def test_rejects_small_order(self):
        with pytest.raises(InvalidParameter):
            catalog_cyclic(1)
        with pytest.raises(InvalidParameter):
            catalog_cyclic(0)


class TestGroupAlgebra:
    def test_z2_trivial_automorphism_is_classical(self):
        entry = catalog_group(cyclic_table(2), (0, 1))
        assert entry.hopf == catalog_kz2().hopf

    def test_s3_inner_automorphism_passes(self):
        table, conj = symmetric3_data()
        entry = catalog_group(table, conj)
        assert run_hopf_suite(entry.hopf).ok

    def test_not_a_group(self):
        with pytest.raises(NotAGroup):
            catalog_group(((0, 1), (1, 1)), (0, 1))

    def test_not_associative(self):
        table = ((0, 1, 2), (1, 2, 0), (2, 1, 0))
        with pytest.raises(NotAGroup):
            catalog_group(table, (0, 1, 2))

    def test_not_an_automorphism(self):
        with pytest.raises(NotAnAutomorphism):
            catalog_group(cyclic_table(3), (0, 2, 2))
        with pytest.raises(NotAnAutomorphism):
            catalog_group(cyclic_table(4), (0, 1, 3, 2))


class TestDualTables:
    def test_cyclic_dual_closed_forms(self):
        n = 4
        hst = dual(catalog_cyclic(n).hopf)
        mul, comul = dense_field(hst, "mul"), dense_field(hst, "comul")
        for i in range(n):
            for j in range(n):
                row = mul[i][j]
                for k in range(n):
                    want = F(1) if (i == j and k == (n - i) % n) else F(0)
                    assert row[k] == want
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    want = F(1) if (j + k) % n == (n - i) % n else F(0)
                    assert comul[i][j][k] == want
        # counit of the dual evaluates at the group identity
        assert dense_field(hst, "counit") == tuple(F(1) if i == 0 else F(0) for i in range(n))
        for i in range(n):
            image = dense(apply_map(hst.antipode_rows, sparse(basis_vector(n, i))))
            assert image == basis_vector(n, (n - i) % n)


class TestRegistry:
    def test_lookup(self):
        assert get_entry("ax1").name == "ax1"
        assert get_entry("cyclic:5").hopf.dim == 5
        assert get_entry("one").hopf.dim == 1

    def test_unknown(self):
        with pytest.raises(InvalidParameter):
            get_entry("nope")
        with pytest.raises(InvalidParameter):
            get_entry("cyclic:x")


def _no_group(*args, **kwargs):
    raise AssertionError("a group algebra was built")


class TestCyclicBounds:
    """``cyclic:<n>`` takes ASCII digits up to ``MAX_DIM`` and refuses
    anything else before building an object of dimension n."""

    @pytest.mark.parametrize(
        "param",
        ["+3", "0_3", "\u0663", " 3", "3 ", "-3", "3.0", "", "1", "129", "100000", "9" * 5000],
    )
    def test_refused_before_anything_is_built(self, param, monkeypatch):
        monkeypatch.setattr(catalog, "catalog_group", _no_group)
        with pytest.raises(InvalidParameter):
            get_entry(f"cyclic:{param}")

    def test_orders_up_to_max_dim_are_taken(self, monkeypatch):
        monkeypatch.setattr(catalog, "catalog_cyclic", lambda n: n)
        assert get_entry(f"cyclic:{MAX_DIM}") == MAX_DIM
        assert get_entry("cyclic:03") == 3

    def test_catalog_cyclic_refuses_orders_above_max_dim(self, monkeypatch):
        monkeypatch.setattr(catalog, "catalog_group", _no_group)
        with pytest.raises(InvalidParameter, match=f"from 2 to {MAX_DIM}"):
            catalog_cyclic(MAX_DIM + 1)


class TestGolden:
    def test_shapes(self):
        g = catalog_ex27_expected()
        assert len(g.products) == 4 and all(len(row) == 4 and row[0].dim == 4 for row in g.products)
        assert len(g.coproducts) == 4 and all(v.dim == 16 for v in g.coproducts)
        assert len(g.antipodes) == 4 and all(v.dim == 4 for v in g.antipodes)

    def test_specific_entries(self):
        g = catalog_ex27_expected()
        products, antipodes = dense_cells(g.products), dense_rows(g.antipodes)
        # (x#g, 1#1) -> -x#g ; (x#g, x#1) -> 0 ; S(1#g) = 1#g
        assert products[3][0] == (F(0), F(0), F(0), F(-1))
        assert products[3][2] == (F(0),) * 4
        assert antipodes[1] == (F(0), F(1), F(0), F(0))


class TestAdvertisedSuites:
    @pytest.mark.parametrize(
        "name", ["one", "kz2", "sweedler_hom", "cyclic:2", "cyclic:3", "cyclic:6", "s3_inner"]
    )
    def test_full_suite_passes(self, name):
        assert run_hopf_suite(get_entry(name).hopf).ok

    def test_ax1_advertised_failure_is_pinned(self):
        # every axiom holds except comultiplication multiplicativity at the
        # square-zero pair, which no characteristic-zero structure map can fix
        report = run_hopf_suite(catalog_ax1().hopf)
        failing = [(c.axiom_id, c.witness.index) for c in report.failures()]
        assert failing == [("bialgebra.comul-multiplicative", (1, 1))]
