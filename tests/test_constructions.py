"""Constructions: duals, twists, smash products, doubles, cocycles."""

import hashlib
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest

from conftest import (
    basis_vector,
    cells_from_entries,
    dense_compose,
    dense_field,
    dense_inverse,
    run_cli,
)
from homhopf import bicross, constructions, laws, pairing
from homhopf.bicross import (
    bicross_hypotheses,
    bicrossproduct,
    double_cross_product,
    dual_matched_pair,
    self_bicross,
    self_bicross_data,
)
from homhopf.catalog import (
    catalog_ax1,
    catalog_cyclic,
    catalog_group,
    catalog_kz2,
    catalog_one,
    catalog_sweedler_hom,
    cyclic_table,
    get_entry,
)
from homhopf.constructions import (
    canonical_cocycles,
    canonical_r_matrix,
    co_opposite,
    cocycle_twist,
    comodule_cotwist,
    cotwist_coproduct,
    drinfeld_double,
    drinfeld_double_tilde,
    dual,
    heisenberg_double,
    opposite,
    smash_product,
    yau_twist,
)
from homhopf.errors import (
    DimensionMismatch,
    HypothesisFailed,
    InvalidParameter,
    NotAMorphism,
    PreconditionFailed,
)
from homhopf.exactlin import (
    Sparse,
    apply_map,
    basis,
    bilinear_apply,
    dense,
    dense_rows,
    rows,
    rows_from_entries,
    sparse,
)
from homhopf.laws import check_matched_pair
from homhopf.pairing import PairedDouble, check_twisting, dual_pair_double, evaluation_pairing
from homhopf.structures import (
    ComoduleCoaction,
    HomHopfAlgebra,
    ModuleAction,
    PairingForm,
    RMatrix,
    TwoCocycle,
    check_hom_algebra,
    check_hom_coalgebra,
    check_quasitriangular,
    run_hopf_suite,
)

F = Fraction
Z, O = F(0), F(1)


class TestYauTwist:
    def test_identity_endomorphism_is_identity(self):
        h = catalog_kz2().hopf
        assert yau_twist(h, basis(2)) == h

    def test_cyclic_twist_values(self):
        h = catalog_cyclic(4).hopf
        # g^1 . g^2 = g^(4-3) = g^1 and delta(g^1) = g^3 (x) g^3
        g1, g2 = sparse(basis_vector(4, 1)), sparse(basis_vector(4, 2))
        assert dense(bilinear_apply(h.algebra.mul_cells, g1, g2)) == basis_vector(4, 1)
        assert dense_field(h, "comul")[1][3][3] == O

    def test_swap_is_not_a_morphism(self):
        h = catalog_kz2().hopf
        swap = rows_from_entries((2, 2), {(0, 1): O, (1, 0): O})
        with pytest.raises(NotAMorphism):
            yau_twist(h, swap)

    def test_requires_classical_input(self):
        with pytest.raises(PreconditionFailed):
            yau_twist(catalog_cyclic(3).hopf, basis(3))


class TestOpposite:
    def test_commutative_is_fixed(self):
        h = catalog_cyclic(4).hopf
        assert dense_field(opposite(h), "mul") == dense_field(h, "mul")

    def test_involution(self):
        h = catalog_sweedler_hom().hopf
        assert opposite(opposite(h)) == h

    def test_transposes_products(self):
        h = catalog_sweedler_hom().hopf
        hop = opposite(h)
        # g . x = gx becomes the (x, g) slot
        assert dense_field(hop, "mul")[2][1] == basis_vector(4, 3)


class TestDual:
    def test_one_dimensional(self):
        one = catalog_one().hopf
        assert dual(one) == one

    def test_double_dual_is_identity(self):
        for name in ("ax1", "kz2", "sweedler_hom", "cyclic:3", "s3_inner"):
            h = get_entry(name).hopf
            assert dual(dual(h)) == h

    def test_classical_input_gives_classical_dual(self):
        # with the identity structure map every twist insertion collapses
        h = catalog_kz2().hopf
        hst = dual(h)
        assert hst.alpha == basis(2)
        mul, comul = dense_field(h, "mul"), dense_field(h, "comul")
        mul_dual, comul_dual = dense_field(hst, "mul"), dense_field(hst, "comul")
        for i, j in product(range(2), repeat=2):
            for k in range(2):
                assert mul_dual[i][j][k] == comul[k][i][j]
                assert comul_dual[k][i][j] == mul[i][j][k]

    def test_duals_of_catalog_pass_suite(self):
        for name in ("kz2", "sweedler_hom", "cyclic:4", "s3_inner"):
            assert run_hopf_suite(dual(get_entry(name).hopf)).ok


class TestSmashProduct:
    def test_ax1_table_entries(self):
        ax = catalog_ax1()
        smash = smash_product(ax.hopf, ax.partner, ax.action)
        # (1#g)(x#1) = x#g and (x#1)(x#g) = 0, on pair index a*2 + h
        mul = dense_field(smash, "mul")
        assert mul[0 * 2 + 1][1 * 2 + 0] == basis_vector(4, 3)
        assert mul[1 * 2 + 0][1 * 2 + 1] == (Z,) * 4
        assert check_hom_algebra(smash).ok

    def test_trivial_action_gives_tensor_algebra(self):
        h = catalog_kz2().hopf
        act = ModuleAction(
            h,
            h,
            cells_from_entries(
                (2, 2, 2), {(0, 0, 0): O, (0, 1, 1): O, (1, 0, 0): O, (1, 1, 1): O}
            ),
        )
        smash = smash_product(h, h, act)
        mul, mul_smash = dense_field(h, "mul"), dense_field(smash, "mul")
        for a, hh, b, k in product(range(2), repeat=4):
            expected = [Z] * 4
            for p, cp in enumerate(mul[a][b]):
                for q, cq in enumerate(mul[hh][k]):
                    expected[p * 2 + q] += cp * cq
            assert mul_smash[a * 2 + hh][b * 2 + k] == tuple(expected)

    def test_precondition_enforced(self):
        ax = catalog_ax1()
        bad = ModuleAction(
            ax.partner,
            ax.hopf,
            cells_from_entries(
                (2, 2, 2), {(0, 0, 0): O, (0, 1, 1): O, (1, 0, 0): O, (1, 1, 1): O}
            ),
        )
        with pytest.raises(PreconditionFailed):
            smash_product(ax.hopf, ax.partner, bad)


class TestComoduleCotwist:
    def test_ax1_data_gives_sign_corrected_flip(self):
        phi = comodule_cotwist(catalog_ax1().coaction)
        expected = rows_from_entries((4, 4), {(0, 0): O, (1, 2): O, (2, 1): O, (3, 3): O})
        assert phi == expected

    def test_trivial_coaction_gives_flip(self):
        sw = catalog_sweedler_hom().hopf
        kz = catalog_kz2().hopf
        triv = ComoduleCoaction(
            sw, kz, rows_from_entries((2, 2, 4), {(0, 0, 0): O, (1, 1, 0): O})
        )
        phi = comodule_cotwist(triv)
        swapped = {(h * 2 + c, c * 4 + h): O for h in range(4) for c in range(2)}
        flip = rows_from_entries((8, 8), swapped)
        assert phi == flip

    def test_opposite_coaction_matches_direct_formula(self):
        from homhopf.exactlin import nonzeros

        sw = catalog_sweedler_hom().hopf
        _, _, co = self_bicross_data(sw)
        phi = comodule_cotwist(co)
        n = 4

        def inverse_power(k):
            """alpha^-k as a dense matrix, independent of ``power``."""
            return reduce(dense_compose, [dense_inverse(dense_rows(sw.alpha))] * k)

        ai = rows(inverse_power(1))
        ai2 = inverse_power(2)
        ai3 = rows(inverse_power(3))
        ai4 = rows(inverse_power(4))
        mul, antipode, comul = sw.algebra.mul_cells, sw.antipode_rows, dense_field(sw, "comul")
        entries = {}
        for k in range(n):
            for h in range(n):
                r = k * n + h
                for h1, row in enumerate(comul[h]):
                    for h2, c in nonzeros(row):
                        for h11, row2 in enumerate(comul[h1]):
                            for h12, c2 in nonzeros(row2):
                                inner = bilinear_apply(
                                    mul, apply_map(antipode, ai4[h11]), ai3[h2]
                                )
                                second = bilinear_apply(mul, ai[k], inner)
                                for p, cp in nonzeros(ai2[h12]):
                                    for q, cq in second.items():
                                        key = (r, p * n + q)
                                        entries[key] = entries.get(key, Z) + c * c2 * cp * cq
        assert phi == rows_from_entries((n * n, n * n), entries)


class TestCotwistCoproduct:
    def test_flip_gives_tensor_coalgebra(self):
        h = catalog_kz2().hopf
        swapped = {(i * 2 + j, j * 2 + i): O for i in range(2) for j in range(2)}
        flip = rows_from_entries((4, 4), swapped)
        cop = cotwist_coproduct(h, h, flip)
        assert check_hom_coalgebra(cop).ok
        comul, comul_cop = dense_field(h, "comul"), dense_field(cop, "comul")
        for c, d in product(range(2), repeat=2):
            expected = [Z] * 16
            for (c1, c2) in product(range(2), repeat=2):
                for (d1, d2) in product(range(2), repeat=2):
                    v = comul[c][c1][c2] * comul[d][d1][d2]
                    expected[(c1 * 2 + d1) * 4 + (c2 * 2 + d2)] += v
            from homhopf.exactlin import flatten_pair

            assert flatten_pair(comul_cop[c * 2 + d]) == tuple(expected)

    def test_reproduces_bicross_coproduct_on_ax1_data(self):
        ax = catalog_ax1()
        phi = comodule_cotwist(ax.coaction)
        cop = cotwist_coproduct(ax.hopf, ax.partner, phi)
        built = bicrossproduct(ax.hopf, ax.partner, ax.action, ax.coaction, check=False)
        assert dense_field(cop, "comul") == dense_field(built, "comul")
        assert cop.counit == built.counit

    def test_rejects_non_cotwisting_map(self):
        ax = catalog_ax1()
        bad = rows_from_entries((4, 4), {(0, 0): O, (1, 2): O, (2, 1): -O, (3, 3): -O})
        with pytest.raises(PreconditionFailed):
            cotwist_coproduct(ax.hopf, ax.partner, bad)


class TestBicrossproduct:
    @pytest.mark.parametrize("check", [True, False])
    def test_data_in_the_wrong_roles_is_refused(self, check):
        """ax1 and its partner are both 2-dim, so a coaction of the partner on ax1,
        or an action of ax1 on the partner, has the shapes of bicrossproduct data
        for ``(ax1, partner)`` without being such data."""
        ax = catalog_ax1()
        swapped_co = ComoduleCoaction(ax.partner, ax.hopf, ax.coaction.coact_rows)
        swapped_act = ModuleAction(ax.hopf, ax.partner, ax.action.act_cells)
        for act, co in ((ax.action, swapped_co), (swapped_act, ax.coaction)):
            for build in (bicrossproduct, dual_matched_pair):
                with pytest.raises(DimensionMismatch, match="an action of H on A and a coaction"):
                    build(ax.hopf, ax.partner, act, co, check=check)
            with pytest.raises(DimensionMismatch):
                bicross_hypotheses(ax.hopf, ax.partner, act, co)

    def test_hypothesis_failure_is_identified(self):
        sw = catalog_sweedler_hom().hopf
        hop, act, _ = self_bicross_data(sw)
        trivial_co = ComoduleCoaction(
            sw,
            hop,
            rows_from_entries(
                (4, 4, 4),
                {(i, j, 0): c for i, row in enumerate(hop.alpha) for j, c in row.items()},
            ),
        )
        with pytest.raises(HypothesisFailed) as err:
            bicrossproduct(sw, hop, act, trivial_co)
        assert err.value.hypothesis == "1"

    def test_trivial_data_gives_tensor_hopf(self):
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
        built = bicrossproduct(h, h, act, co)
        assert run_hopf_suite(built).ok
        mul, mul_built = dense_field(h, "mul"), dense_field(built, "mul")
        for a, hh, b, k in product(range(2), repeat=4):
            expected = [Z] * 4
            for p, cp in enumerate(mul[a][b]):
                for q, cq in enumerate(mul[hh][k]):
                    expected[p * 2 + q] += cp * cq
            assert mul_built[a * 2 + hh][b * 2 + k] == tuple(expected)


class TestSelfBicross:
    def test_one_dimensional(self):
        built = self_bicross(catalog_one().hopf)
        assert built.dim == 1
        assert run_hopf_suite(built).ok

    def test_closed_forms_agree_on_catalog(self):
        for name in ("kz2", "sweedler_hom", "cyclic:3"):
            self_bicross(get_entry(name).hopf, check=False)  # raises on disagreement


class TestMatchedPairRoute:
    def test_dual_matched_pair_on_ax1_data(self):
        ax = catalog_ax1()
        mp = dual_matched_pair(ax.hopf, ax.partner, ax.action, ax.coaction, check=False)
        assert check_matched_pair(mp).ok

    def test_pipeline_reproduces_the_double(self):
        inputs = [
            get_entry(name).hopf for name in ("ax1", "cyclic:2", "cyclic:4", "sweedler_hom", "s3_inner")
        ]
        inputs += [
            catalog_group(cyclic_table(5), (0, 2, 4, 1, 3)).hopf,  # Z5 twisted by g -> g^2
            co_opposite(catalog_sweedler_hom().hopf),
            dual(get_entry("s3_inner").hopf),
        ]
        for h in inputs:
            hop, act, co = self_bicross_data(h)
            mp = dual_matched_pair(h, hop, act, co, check=False)
            assert check_matched_pair(mp).ok
            built = double_cross_product(mp, check=False)
            closed = drinfeld_double(h)
            assert dense_field(built, "mul") == dense_field(closed, "mul")
            assert built.unit == closed.unit
            assert dense_field(built, "comul") == dense_field(closed, "comul")
            assert built.counit == closed.counit
            assert built.alpha == closed.alpha
            assert dense_field(built, "antipode") == dense_field(closed, "antipode")

    def test_trivial_matched_pair_gives_tensor_hopf(self):
        from homhopf.structures import MatchedPairData

        h = catalog_kz2().hopf
        left = cells_from_entries(
            (2, 2, 2), {(0, 0, 0): O, (0, 1, 1): O, (1, 0, 0): O, (1, 1, 1): O}
        )
        right = cells_from_entries(
            (2, 2, 2), {(0, 0, 0): O, (1, 0, 1): O, (0, 1, 0): O, (1, 1, 1): O}
        )
        mp = MatchedPairData(h, h, left, right)
        built = double_cross_product(mp)
        assert run_hopf_suite(built).ok
        mul, mul_built = dense_field(h, "mul"), dense_field(built, "mul")
        for a, hh, b, k in product(range(2), repeat=4):
            expected = [Z] * 4
            for p, cp in enumerate(mul[a][b]):
                for q, cq in enumerate(mul[hh][k]):
                    expected[p * 2 + q] += cp * cq
            assert mul_built[a * 2 + hh][b * 2 + k] == tuple(expected)


class TestDrinfeldDouble:
    def test_cyclic3_specific_product(self):
        d = drinfeld_double(catalog_cyclic(3).hopf)
        # (g^1 (x) e_1)(g^1 (x) e_1) = g^(3-2) (x) e_(3-1) = g^1 (x) e_2
        assert dense_field(d, "mul")[1 * 3 + 1][1 * 3 + 1] == basis_vector(9, 1 * 3 + 2)

    def test_group_closed_form_nonabelian(self):
        entry = get_entry("s3_inner")
        g6 = entry.group
        n = 6
        mul = dense_field(drinfeld_double(entry.hopf), "mul")
        for g, h, p, q in product(range(n), repeat=4):
            row = mul[g * n + h][p * n + q]
            phi_p = g6.automorphism[p]
            matches = g6.table[g6.table[phi_p][h]][g6.inverse[phi_p]] == q
            expected = [Z] * (n * n)
            if matches:
                expected[g6.automorphism[g6.table[p][g]] * n + g6.automorphism[q]] = O
            assert row == tuple(expected)

    def test_unit_law_on_double_of_ax1(self):
        d = drinfeld_double(catalog_ax1().hopf)
        for t in range(4):
            v = basis_vector(4, t)
            mul, alpha, (unit,), v = d.algebra.mul_cells, d.alpha, d.unit, sparse(v)
            assert bilinear_apply(mul, unit, v) == apply_map(alpha, v)
            assert bilinear_apply(mul, v, unit) == apply_map(alpha, v)

    def test_embedded_copies(self):
        h = catalog_sweedler_hom().hopf
        d = drinfeld_double(h)
        hst = dual(h)
        hop = opposite(h)
        n = 4
        d_cells = d.algebra.mul_cells
        h_unit, hst_unit = dense_field(h, "unit"), dense_field(hst, "unit")

        def emb_h(i):
            out = [Z] * 16
            for p, cp in enumerate(hst_unit):
                if cp:
                    out[i * n + p] = cp
            return tuple(out)

        def emb_f(j):
            out = [Z] * 16
            for p, cp in enumerate(h_unit):
                if cp:
                    out[p * n + j] = cp
            return tuple(out)

        mul_op, mul_dual = dense_field(hop, "mul"), dense_field(hst, "mul")
        for i, j in product(range(n), repeat=2):
            got = dense(bilinear_apply(d_cells, sparse(emb_h(i)), sparse(emb_h(j))))
            want = [Z] * 16
            for t, c in enumerate(mul_op[i][j]):
                for p, cp in enumerate(hst_unit):
                    want[t * n + p] += c * cp
            assert got == tuple(want)
            got = dense(bilinear_apply(d_cells, sparse(emb_f(i)), sparse(emb_f(j))))
            want = [Z] * 16
            for t, c in enumerate(mul_dual[i][j]):
                for p, cp in enumerate(h_unit):
                    want[p * n + t] += cp * c
            assert got == tuple(want)


class TestClosure:
    """Composites of genuine Hopf inputs pass the full suite themselves."""

    @pytest.mark.parametrize("name", ["kz2", "sweedler_hom", "cyclic:5", "s3_inner", "cyclic:6"])
    def test_double_is_hopf(self, name):
        assert run_hopf_suite(drinfeld_double(get_entry(name).hopf)).ok

    @pytest.mark.parametrize("name", ["kz2", "cyclic:2", "cyclic:3"])
    def test_pair_double_is_hopf(self, name):
        paired = dual_pair_double(evaluation_pairing(get_entry(name).hopf), check=False)
        assert run_hopf_suite(paired.hopf).ok

    def test_noncommutative_evaluation_pairing_is_rejected(self):
        # for a noncommutative algebra the evaluation form on the opposite
        # and the dual pairs the reversed product, so the product-side
        # compatibility fails and the construction must refuse the input
        from homhopf.pairing import check_dual_pair

        pairing = evaluation_pairing(get_entry("sweedler_hom").hopf)
        report = check_dual_pair(pairing)
        assert not report.entry("pairing.mul-comul-left").passed
        with pytest.raises(PreconditionFailed):
            dual_pair_double(pairing)

    @pytest.mark.parametrize("name", ["kz2", "cyclic:4", "s3_inner"])
    def test_self_bicross_is_hopf(self, name):
        assert run_hopf_suite(self_bicross(get_entry(name).hopf, check=False)).ok


class TestCanonicalRMatrix:
    def test_one_dimensional(self):
        one = catalog_one().hopf
        r = canonical_r_matrix(one)
        assert dense_rows(r.entries) == ((O,),)

    def test_sweedler_double_is_quasitriangular(self):
        h = catalog_sweedler_hom().hopf
        d = drinfeld_double(h)
        r = canonical_r_matrix(h, d)
        assert check_quasitriangular(d, r).ok


class TestDualPairDouble:
    def test_one_dimensional(self):
        one = catalog_one().hopf
        paired = dual_pair_double(evaluation_pairing(one))
        assert paired.hopf.dim == 1
        assert run_hopf_suite(paired.hopf).ok

    def test_twisting_map_conditions(self):
        pairing = evaluation_pairing(catalog_ax1().hopf)
        paired = dual_pair_double(pairing, check=False)
        assert check_twisting(pairing.left, pairing.right, paired.twisting).ok

    def test_closed_form_inverses_match(self):
        for name in ("ax1", "cyclic:2"):
            pairing = evaluation_pairing(get_entry(name).hopf)
            paired = dual_pair_double(pairing, check=False)
            assert paired.closed_form_inverses_match == (True, True)

    def test_matches_closed_form_double(self):
        for name in ("ax1", "cyclic:2"):
            h = get_entry(name).hopf
            paired = dual_pair_double(evaluation_pairing(h), check=False)
            assert dense_field(paired.hopf, "mul") == dense_field(drinfeld_double(h), "mul")


class TestHeisenbergDouble:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cyclic_closed_form(self, n):
        mul = dense_field(heisenberg_double(opposite(catalog_cyclic(n).hopf)), "mul")
        for i, j, m, k in product(range(n), repeat=4):
            expected = [Z] * (n * n)
            if (j + m) % n == k:
                expected[((-(i + m)) % n) * n + ((n - k) % n)] = O
            assert mul[i * n + j][m * n + k] == tuple(expected)

    def test_unit_law_even_without_bialgebra_input(self):
        h = heisenberg_double(catalog_ax1().hopf)
        for t in range(4):
            v = basis_vector(4, t)
            v = sparse(v)
            assert bilinear_apply(h.mul_cells, h.unit[0], v) == apply_map(h.alpha, v)

    def test_hom_associative_on_genuine_inputs(self):
        for name in ("kz2", "sweedler_hom", "cyclic:3"):
            hh = get_entry(name).hopf
            assert check_hom_algebra(heisenberg_double(hh)).ok
            assert check_hom_algebra(heisenberg_double(opposite(hh))).ok


class TestDoubleTilde:
    def test_hom_associative(self):
        for name in ("ax1", "cyclic:2", "sweedler_hom"):
            dt = drinfeld_double_tilde(get_entry(name).hopf)
            assert check_hom_algebra(dt.algebra).ok

    def test_unit_law_on_ax1(self):
        dt = drinfeld_double_tilde(catalog_ax1().hopf)
        for t in range(4):
            v = basis_vector(4, t)
            v = sparse(v)
            assert bilinear_apply(dt.algebra.mul_cells, dt.unit[0], v) == apply_map(dt.alpha, v)

    @pytest.mark.parametrize(
        "name, sha256",
        [
            ("s3_inner", "227bc875c691abb76deb4d776a089e3d71edb1a38692a764874a3878f4e12659"),
            ("cyclic:4", "83826d1a3858580514c219a7ce210d65aae223f38bd3f6ec946ef7f19073dff3"),
        ],
    )
    def test_constructed_file_is_pinned(self, tmp_path, name, sha256):
        out = tmp_path / "dt.alg"
        result = run_cli(["construct", "double-tilde", name, "--out", str(out)])
        assert result.exit_code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


class TestCocycleTwist:
    def test_trivial_cocycle_returns_original_multiplication(self):
        from homhopf.structures import TwoCocycle

        h = catalog_sweedler_hom().hopf
        counit = dense_field(h, "counit")
        counits = {(i, j): counit[i] * counit[j] for i in range(4) for j in range(4)}
        gram = rows_from_entries((4, 4), counits)
        for side in ("left", "right"):
            twisted = cocycle_twist(h.bialgebra, TwoCocycle(h.bialgebra, gram, side))
            assert dense_field(twisted, "mul") == dense_field(h, "mul")

    def test_rejects_non_cocycle(self):
        from homhopf.structures import TwoCocycle

        h = catalog_sweedler_hom().hopf
        zero = rows_from_entries((4, 4), {})
        with pytest.raises(PreconditionFailed):
            cocycle_twist(h.bialgebra, TwoCocycle(h.bialgebra, zero, "left"))

    def test_alpha_inverse_is_applied_to_the_nonempty_products_only(self, monkeypatch):
        """On the 16-dim double of cyclic:4, 64 of the 256 products of each
        canonical cocycle are nonempty; the others are the twist's zero cells."""
        calls = []
        apply = constructions.apply_map

        def counting(m, v):
            calls.append(v)
            return apply(m, v)

        monkeypatch.setattr(constructions, "apply_map", counting)
        h = catalog_cyclic(4).hopf
        for sigma, host in zip(canonical_cocycles(h), (drinfeld_double(h), drinfeld_double_tilde(h))):
            calls.clear()
            twisted = cocycle_twist(host, sigma, check=False)
            assert len(calls) == 64 and all(calls)
            zero = [w for row in twisted.mul_cells for w in row if not w]
            assert len(zero) == 256 - 64 and all(w.dim == 16 for w in zero)

    def test_canonical_sigma_closed_form_on_cyclic(self):
        n = 4
        a = catalog_cyclic(n).hopf
        sigma, eta = canonical_cocycles(a)
        for i, j, m, k in product(range(n), repeat=4):
            want = O if (k == 0 and j == (n - m) % n) else Z
            assert sigma.gram[i * n + j].get(m * n + k, Z) == want
        # normality of both canonical cocycles
        from homhopf.twist import check_cocycle

        assert check_cocycle(sigma).entry("cocycle.normal").passed
        assert check_cocycle(eta).entry("cocycle.normal").passed


def _bounded_constructions():
    """Each construction on a product space, called on 2-dim inputs (a 4-dim output)."""
    ax = catalog_ax1()
    h = get_entry("cyclic:2").hopf
    hop, act, co = self_bicross_data(h)
    mp = dual_matched_pair(h, hop, act, co, check=False)
    flip = rows_from_entries((4, 4), {(0, 0): O, (1, 2): O, (2, 1): O, (3, 3): O})
    return {
        "smash_product": lambda: smash_product(ax.hopf, ax.partner, ax.action),
        "cotwist_coproduct": lambda: cotwist_coproduct(h, h, flip),
        "bicrossproduct": lambda: bicrossproduct(ax.hopf, ax.partner, ax.action, ax.coaction),
        "self_bicross": lambda: self_bicross(h),
        "double_cross_product": lambda: double_cross_product(mp),
        "drinfeld_double": lambda: drinfeld_double(h),
        "drinfeld_double_tilde": lambda: drinfeld_double_tilde(h),
        "heisenberg_double": lambda: heisenberg_double(h),
        "dual_pair_double": lambda: dual_pair_double(evaluation_pairing(h)).hopf,
    }


@pytest.mark.parametrize("name", list(_bounded_constructions()))
def test_constructions_refuse_outputs_above_max_dim_before_checking(name, monkeypatch):
    """Every product-space construction checks its output dimension first: a
    4-dim output is built with the limit at 4, and with the limit at 3 it is
    refused before any precondition check runs.  The checks are read from
    ``laws`` by the constructions, from ``pairing``'s globals by the double
    of a dual pair and from ``bicross``'s globals by the bicrossproducts."""
    build = _bounded_constructions()[name]
    monkeypatch.setattr(constructions, "MAX_DIM", 4)
    assert build().dim == 4
    monkeypatch.setattr(constructions, "MAX_DIM", 3)
    for check in ("check_module_algebra", "check_cotwisting", "check_matched_pair"):
        monkeypatch.setattr(laws, check, None)
    monkeypatch.setattr(pairing, "check_dual_pair", None)
    for check in ("check_module_algebra", "check_matched_pair"):
        monkeypatch.setattr(bicross, check, None)
    with pytest.raises(InvalidParameter, match="4-dim, above the limit of 3"):
        build()


def _maps(obj) -> dict:
    """Every map-valued field and kept inverse of ``obj``, by name."""
    if isinstance(obj, RMatrix):
        return {"entries": obj.entries}
    if isinstance(obj, (TwoCocycle, PairingForm)):
        return {"gram": obj.gram}
    if isinstance(obj, PairedDouble):
        return {"twisting": obj.twisting, **_maps(obj.hopf)}
    maps = {}
    for part in (obj.algebra, obj.coalgebra):
        name = type(part).__name__
        maps.update({f"{name}.alpha": part.alpha, f"{name}.alpha_inverse": part.alpha_inverse})
    maps["comul_rows"] = obj.coalgebra.comul_rows
    if isinstance(obj, HomHopfAlgebra):
        maps.update(antipode_rows=obj.antipode_rows, antipode_inverse=obj.antipode_inverse)
    return maps


@pytest.mark.parametrize("name", ["one", "ax1", "kz2", "sweedler_hom", "cyclic:3", "s3_inner"])
def test_every_map_is_sparse_rows(name):
    """A structure map, its inverse, an antipode inverse, a Gram matrix, an
    R-matrix and a twisting map are each a tuple of ``Sparse`` rows, on the
    catalog entries and on every construction made from them."""
    entry = get_entry(name)
    h = entry.hopf
    double = drinfeld_double(h)
    objects = {
        "entry": h,
        "dual": dual(h),
        "double": double,
        "double_tilde": drinfeld_double_tilde(h),
        "pair_double": dual_pair_double(evaluation_pairing(h), check=False),
        "evaluation_pairing": evaluation_pairing(h),
        "r_matrix": canonical_r_matrix(h, double),
        **dict(zip(("left_cocycle", "right_cocycle"), canonical_cocycles(h, double))),
    }
    if entry.partner is not None:
        objects["partner"] = entry.partner
    if entry.rmatrix is not None:
        objects["catalog_r_matrix"] = entry.rmatrix
    for label, obj in objects.items():
        for field, m in _maps(obj).items():
            assert isinstance(m, tuple) and all(type(row) is Sparse for row in m), (label, field)
            assert m and all(row.dim == m[0].dim for row in m), (label, field)
