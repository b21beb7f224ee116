"""Exact linear algebra: inverses, powers, Kronecker products, contractions."""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homhopf.catalog import catalog_ax1, catalog_cyclic, get_entry
from homhopf.errors import DimensionMismatch, SingularMatrixError
from homhopf.exactlin import (
    ZERO,
    alpha_power,
    apply_kron,
    apply_map,
    basis_vector,
    bilinear_apply,
    comul_matrix,
    comul_tensor,
    format_scalar,
    identity,
    kron,
    linear_combination,
    mat_compose,
    mat_inverse,
    matrix_from_rows,
    nonzeros,
    parse_scalar,
    tensor3_from_entries,
    tensor_power_product,
    terms,
    vec_add,
    vec_scale,
)

F = Fraction

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def square(n):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(matrix_from_rows)


def rect(rows, cols):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(matrix_from_rows)


def vectors(n):
    return st.lists(rationals, min_size=n, max_size=n).map(tuple)


dims = st.integers(1, 3)


class TestScalars:
    def test_parse_roundtrip(self):
        for text in ["0", "-7", "3/4", "-22/7"]:
            assert format_scalar(parse_scalar(text)) == text

    def test_parse_reduces(self):
        assert parse_scalar("2/4") == F(1, 2)

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            parse_scalar("1/0")


class TestCompose:
    def test_identity(self):
        assert mat_compose(identity(2), identity(2)) == identity(2)

    def test_inverse_pair(self):
        m = matrix_from_rows([[1, 1], [0, 1]])
        assert mat_compose(m, mat_inverse(m)) == identity(2)
        assert mat_compose(mat_inverse(m), m) == identity(2)

    def test_ax1_beta_squares_to_identity(self):
        beta = catalog_ax1().hopf.alpha
        assert mat_compose(beta, beta) == identity(2)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_compose(identity(2), identity(3))


class TestInverse:
    def test_identity(self):
        assert mat_inverse(identity(3)) == identity(3)

    def test_unipotent(self):
        m = matrix_from_rows([[1, 1], [0, 1]])
        assert mat_inverse(m) == matrix_from_rows([[1, -1], [0, 1]])

    def test_singular_reports_rank(self):
        with pytest.raises(SingularMatrixError) as err:
            mat_inverse(matrix_from_rows([[0, 0], [0, 0]]))
        assert err.value.rank == 0

    @given(square(3))
    @settings(max_examples=40)
    def test_two_sided_inverse(self, m):
        try:
            inv = mat_inverse(m)
        except SingularMatrixError:
            return
        assert mat_compose(m, inv) == identity(3)
        assert mat_compose(inv, m) == identity(3)


class TestAlphaPower:
    def test_ax1_beta_squared(self):
        beta = catalog_ax1().hopf.alpha
        assert alpha_power(beta, 2) == identity(2)

    def test_zeroth_power(self):
        m = matrix_from_rows([[2, 1], [1, 1]])
        assert alpha_power(m, 0) == identity(2)

    def test_cyclic_inversion_is_involutive(self):
        phi = catalog_cyclic(3).hopf.alpha
        assert alpha_power(phi, -1) == phi
        assert mat_compose(phi, phi) == identity(3)

    def test_negative_power_of_singular(self):
        with pytest.raises(SingularMatrixError):
            alpha_power(matrix_from_rows([[1, 0], [0, 0]]), -1)

    @given(square(2), st.integers(-7, 7), st.integers(-7, 7))
    @settings(max_examples=40)
    def test_additivity(self, m, j, k):
        try:
            mat_inverse(m)
        except SingularMatrixError:
            return
        assert alpha_power(m, j + k) == mat_compose(alpha_power(m, j), alpha_power(m, k))


class TestKron:
    def test_identities(self):
        assert kron(identity(2), identity(2)) == identity(4)

    def test_diagonal(self):
        d = matrix_from_rows([[1, 0], [0, -1]])
        assert kron(d, identity(2)) == matrix_from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
        )

    @given(square(2), square(2), square(2), square(2))
    @settings(max_examples=30)
    def test_mixed_product(self, a, b, c, d):
        assert mat_compose(kron(a, b), kron(c, d)) == kron(
            mat_compose(a, c), mat_compose(b, d)
        )

    @given(square(2), square(2), square(2))
    @settings(max_examples=30)
    def test_associative_under_flattening(self, a, b, c):
        assert kron(kron(a, b), c) == kron(a, kron(b, c))


class TestBilinear:
    def test_square_zero_element(self):
        ax1 = catalog_ax1().hopf
        x = basis_vector(2, 1)
        assert bilinear_apply(ax1.mul, x, x) == (F(0), F(0))

    def test_unit_acts_by_alpha(self):
        ax1 = catalog_ax1().hopf
        for i in range(2):
            v = basis_vector(2, i)
            assert bilinear_apply(ax1.mul, ax1.unit, v) == apply_map(ax1.alpha, v)
            assert bilinear_apply(ax1.mul, v, ax1.unit) == apply_map(ax1.alpha, v)

    def test_cyclic_product_closed_form(self):
        c3 = catalog_cyclic(3).hopf
        g1 = basis_vector(3, 1)
        assert bilinear_apply(c3.mul, g1, g1) == g1

    def test_shape_mismatch(self):
        ax1 = catalog_ax1().hopf
        with pytest.raises(DimensionMismatch):
            bilinear_apply(ax1.mul, basis_vector(3, 0), basis_vector(2, 0))


class TestApplyKron:
    @given(dims, dims, dims, dims, st.data())
    @settings(max_examples=60)
    def test_matches_dense_kron_on_rectangular_maps(self, p, q, r, s, data):
        f, g = data.draw(rect(p, q)), data.draw(rect(r, s))
        v = data.draw(vectors(p * r))
        assert apply_kron(f, g, v) == apply_map(kron(f, g), v)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_kron(identity(2), identity(2), (F(1),) * 3)


def pure(*legs):
    """The pure tensor ``legs[0] (x) legs[1] (x) ...`` as a flattened vector."""
    return reduce(lambda u, v: kron((u,), (v,))[0], legs)


catalog_muls = st.sampled_from(["ax1", "kz2", "sweedler_hom", "cyclic:3"]).map(
    lambda name: get_entry(name).hopf.mul
)


class TestTensorPowerProduct:
    @given(catalog_muls, st.data())
    @settings(max_examples=30)
    def test_one_leg_is_the_product(self, mul, data):
        u, v = data.draw(vectors(len(mul))), data.draw(vectors(len(mul)))
        assert tensor_power_product(mul, 1, u, v) == bilinear_apply(mul, u, v)

    @given(catalog_muls, st.integers(2, 3), st.data())
    @settings(max_examples=30)
    def test_pure_tensors_multiply_leg_by_leg(self, mul, legs, data):
        xs = [data.draw(vectors(len(mul))) for _ in range(legs)]
        ys = [data.draw(vectors(len(mul))) for _ in range(legs)]
        expected = pure(*(bilinear_apply(mul, x, y) for x, y in zip(xs, ys)))
        assert tensor_power_product(mul, legs, pure(*xs), pure(*ys)) == expected

    def test_shape_mismatch(self):
        mul = catalog_ax1().hopf.mul
        with pytest.raises(DimensionMismatch):
            tensor_power_product(mul, 2, basis_vector(4, 0), basis_vector(2, 0))


class TestTerms:
    @given(dims, dims, dims, st.data())
    @settings(max_examples=60)
    def test_rebuilds_the_tensor_in_row_major_order(self, n1, n2, n3, data):
        t = tuple(tuple(data.draw(vectors(n3)) for _ in range(n2)) for _ in range(n1))
        rows = terms(t)
        assert len(rows) == n1
        for row in rows:
            assert [(j, k) for j, k, _ in row] == sorted({(j, k) for j, k, _ in row})
            assert all(c for _, _, c in row)
        entries = {(i, j, k): c for i, row in enumerate(rows) for j, k, c in row}
        assert tensor3_from_entries((n1, n2, n3), entries) == t


class TestComulTensor:
    @given(dims, dims, dims, st.data())
    @settings(max_examples=40)
    def test_inverts_comul_matrix(self, n1, n2, n3, data):
        t = tuple(tuple(data.draw(vectors(n3)) for _ in range(n2)) for _ in range(n1))
        assert comul_tensor(comul_matrix(t), n3) == t


class TestLinearCombination:
    @given(st.lists(st.tuples(rationals, vectors(3)), max_size=4))
    @settings(max_examples=40)
    def test_matches_scaled_sum(self, scaled):
        expected = (ZERO,) * 3
        for c, v in scaled:
            expected = vec_add(expected, vec_scale(c, v))
        assert linear_combination(3, scaled) == expected

    def test_zeros_computed_by_arithmetic_are_skipped(self):
        assert list(nonzeros((F(1, 2) - F(1, 2), ZERO, F(2)))) == [(2, F(2))]
