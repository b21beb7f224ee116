"""Exact linear algebra: inverses, structure-map powers, Kronecker products, sparse kernels."""

from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    basis_vector,
    dense_field,
    dense_inverse,
    matrix_from_rows,
    tensor3_from_entries,
)
from homhopf import exactlin
from homhopf.algread import parse_scalar
from homhopf.catalog import catalog_ax1, catalog_cyclic, get_entry
from homhopf.checkers import _sweep, square_cases, tensor_power_products
from homhopf.errors import DimensionMismatch, SingularMatrixError
from homhopf.exactlin import (
    ZERO,
    apply_kron,
    apply_map,
    basis,
    bilinear_apply,
    cells,
    compose,
    dense,
    dense_rows,
    flatten_pair,
    flip,
    format_scalar,
    kron,
    linear_combination,
    mat_inverse,
    nonzeros,
    pair_cells,
    rows,
    rows_from_entries,
    sparse,
    terms,
    transpose,
    transpose_rows,
)
from homhopf.structures import HomAlgebra

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


# mostly zero entries, as in structure tensors: int 0 and zeros computed as Fraction(0)
sparse_rationals = st.one_of(st.just(0), st.just(F(1, 2) - F(1, 2)), rationals)


def sparse_vectors(n):
    return st.lists(sparse_rationals, min_size=n, max_size=n).map(tuple)


def sparse_rect(r, c):
    return st.lists(sparse_vectors(c), min_size=r, max_size=r).map(tuple)


def sparse_tensors(n1, n2, n3):
    return st.lists(sparse_rect(n2, n3), min_size=n1, max_size=n1).map(tuple)


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

    @pytest.mark.parametrize("text", ["+1", "1_0", "\u0661", "1/+2", "-1_0/1_0", "1/\u0662", "--1", "-", "1/"])
    def test_parts_are_ascii_digits(self, text):
        """Each part is ASCII digits after an optional '-'; int() alone would
        also take a '+', '_' separators and non-ASCII digits."""
        with pytest.raises(ValueError):
            parse_scalar(text)

    def test_each_part_keeps_its_minus(self):
        assert parse_scalar("-3/4") == parse_scalar("3/-4") == F(-3, 4)
        assert parse_scalar("-3/-4") == F(3, 4)

    def test_integral_scalars_are_int(self):
        for text, value in [("3", 3), ("-7", -7), ("4/2", 2), ("0/5", 0)]:
            assert type(parse_scalar(text)) is int and parse_scalar(text) == value
        assert type(parse_scalar("3/4")) is F
        m = matrix_from_rows([[1, F(2, 2)], [F(1, 2), 0]])
        assert [[type(x) for x in row] for row in m] == [[int, int], [F, int]]

    def test_inverse_divides_exactly(self):
        assert mat_inverse(rows(((2,),))) == ({0: F(1, 2)},)
        assert type(mat_inverse(rows(((2,),)))[0][0]) is F
        inv = mat_inverse(rows(((F(1, 2), 0), (0, -1))))
        assert [type(x) for row in inv for x in row.values()] == [int] * 2
        # a signed 16-dim diagonal, like the structure maps of the sweedler_hom doubles
        diagonal = [(-1) ** i * F(i % 3 + 1, 2) for i in range(16)]
        m = tuple(tuple(d if j == i else 0 for j in range(16)) for i, d in enumerate(diagonal))
        inv = mat_inverse(rows(m))
        assert dense_rows(inv) == matrix_from_rows(
            [[1 / d if j == i else 0 for j in range(16)] for i, d in enumerate(diagonal)]
        )
        assert [type(x) for row in inv for x in row.values()] == [
            int if x.denominator == 1 else F for row in inv for x in row.values()
        ]


class TestCompose:
    def test_identity(self):
        assert compose(basis(2), basis(2)) == basis(2)

    def test_inverse_pair(self):
        m = rows(matrix_from_rows([[1, 1], [0, 1]]))
        assert compose(m, mat_inverse(m)) == basis(2)
        assert compose(mat_inverse(m), m) == basis(2)

    def test_ax1_beta_squares_to_identity(self):
        beta = catalog_ax1().hopf.alpha
        assert compose(beta, beta) == basis(2)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compose(basis(2), basis(3))


class TestInverse:
    def test_identity(self):
        assert mat_inverse(basis(3)) == basis(3)

    def test_unipotent(self):
        m = rows(matrix_from_rows([[1, 1], [0, 1]]))
        assert dense_rows(mat_inverse(m)) == matrix_from_rows([[1, -1], [0, 1]])

    def test_singular_reports_rank(self):
        with pytest.raises(SingularMatrixError, match="^singular matrix: rank 0 of 2$") as err:
            mat_inverse(rows(matrix_from_rows([[0, 0], [0, 0]])))
        assert err.value.rank == 0

    def test_non_square(self):
        with pytest.raises(DimensionMismatch, match=r"^cannot invert non-square \(2, 3\) matrix$"):
            mat_inverse(rows(((1, 0, 0), (0, 1, 0))))

    @given(square(3))
    @settings(max_examples=40)
    def test_two_sided_inverse(self, m):
        try:
            inv = mat_inverse(rows(m))
        except SingularMatrixError:
            return
        assert compose(rows(m), inv) == basis(3)
        assert compose(inv, rows(m)) == basis(3)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_dense_reference(self, n, data):
        """On random rational matrices up to 6x6, mostly zero and so often
        singular: the inverse of the reference elimination on dense rows,
        entry for entry and type for type, or the same rank."""
        m = data.draw(st.one_of(square(n), sparse_rect(n, n)))
        try:
            want = dense_inverse(m)
        except SingularMatrixError as exc:
            with pytest.raises(SingularMatrixError) as err:
                mat_inverse(rows(m))
            assert (err.value.rank, str(err.value)) == (exc.rank, str(exc))
            return
        inv = mat_inverse(rows(m))
        assert dense_rows(inv) == want and all(map(zero_free, inv))
        types = [type(x) for row in want for x in row if x]
        assert [type(x) for row in inv for x in row.values()] == types
        assert compose(inv, rows(m)) == basis(n)


def zero_product(m):
    """A Hom-algebra with the zero product on the structure map with rows ``m``,
    for its ``power`` views."""
    n = len(m)
    return HomAlgebra(n, cells((((ZERO,) * n,) * n,) * n), rows(((ZERO,) * n,)), m)


class TestAlphaPower:
    """Powers of a structure map, read through ``HomAlgebra.power``."""

    def test_ax1_beta_squared(self):
        beta = catalog_ax1().hopf.alpha
        assert zero_product(beta).power(2) == basis(2)

    def test_first_power_is_alpha(self):
        beta = catalog_ax1().hopf.alpha
        A = zero_product(beta)
        assert A.power(1) is A.alpha and A.power(-1) is A.alpha_inverse

    def test_zeroth_power(self):
        A = zero_product(rows(matrix_from_rows([[2, 1], [1, 1]])))
        for k in (1, 2, 3):
            assert compose(A.power(k), A.power(-k)) == basis(2)
        assert A.power(0) == basis(2)

    def test_cyclic_inversion_is_involutive(self):
        phi = catalog_cyclic(3).hopf.alpha
        assert zero_product(phi).power(-1) == phi
        assert compose(phi, phi) == basis(3)

    def test_negative_power_of_singular(self):
        with pytest.raises(SingularMatrixError):
            zero_product(rows(matrix_from_rows([[1, 0], [0, 0]]))).power(-1)

    @given(square(2), st.integers(-7, 7), st.integers(-7, 7))
    @settings(max_examples=40)
    def test_additivity(self, m, j, k):
        try:
            mat_inverse(rows(m))
        except SingularMatrixError:
            return
        A = zero_product(rows(m))
        assert A.power(j + k) == compose(A.power(j), A.power(k))


def dense_kron(f, g):
    """The reference Kronecker product of two dense matrices."""
    return tuple(tuple(a * b for a in frow for b in grow) for frow in f for grow in g)


def zero_free(s) -> bool:
    """Whether a sparse result keeps only nonzero coefficients."""
    return all(s.values())


class TestKron:
    def test_identities(self):
        assert kron(basis(2), basis(2)) == basis(4)

    def test_diagonal(self):
        d = matrix_from_rows([[1, 0], [0, -1]])
        assert dense_rows(kron(rows(d), basis(2))) == matrix_from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
        )

    @given(dims, dims, dims, dims, st.data())
    @settings(max_examples=40)
    def test_matches_dense_reference_on_rectangular_maps(self, p, q, r, s, data):
        f, g = data.draw(sparse_rect(p, q)), data.draw(sparse_rect(r, s))
        k = kron(rows(f), rows(g))
        assert dense_rows(k) == dense_kron(f, g)
        assert all(row.dim == q * s and zero_free(row) for row in k)

    @given(square(2), square(2), square(2), square(2))
    @settings(max_examples=30)
    def test_mixed_product(self, a, b, c, d):
        a, b, c, d = map(rows, (a, b, c, d))
        assert compose(kron(a, b), kron(c, d)) == kron(compose(a, c), compose(b, d))

    @given(square(2), square(2), square(2))
    @settings(max_examples=30)
    def test_associative_under_flattening(self, a, b, c):
        ra, rb, rc = rows(a), rows(b), rows(c)
        assert kron(kron(ra, rb), rc) == kron(ra, kron(rb, rc))


def dense_apply(m, v):
    """The reference image ``sum_i v[i] m[i]`` of ``v`` under a dense row-image map."""
    return tuple(sum((v[i] * m[i][j] for i in range(len(m))), ZERO) for j in range(len(m[0])))


def dense_bilinear(t, x, y):
    """The reference value ``sum_ij x_i y_j t[i][j]`` of a dense bilinear map."""
    n3 = len(t[0][0])
    return tuple(
        sum((x[i] * y[j] * t[i][j][k] for i in range(len(t)) for j in range(len(t[0]))), ZERO)
        for k in range(n3)
    )


class TestSparse:
    @given(dims, st.data())
    @settings(max_examples=40)
    def test_sparse_round_trips_and_keeps_only_nonzeros(self, n, data):
        v = data.draw(sparse_vectors(n))
        s = sparse(v)
        assert s.dim == n and dense(s) == v
        assert sorted(s) == [i for i, a in enumerate(v) if a]
        assert zero_free(s)

    @given(dims, dims, dims, st.data())
    @settings(max_examples=40)
    def test_rows_and_cells_round_trip(self, n1, n2, n3, data):
        t = data.draw(sparse_tensors(n1, n2, n3))
        assert dense_rows(rows(t[0])) == t[0]
        assert tuple(dense_rows(plane) for plane in cells(t)) == t
        assert all(zero_free(c) for plane in cells(t) for c in plane)

    def test_computed_zeros_are_dropped(self):
        s = sparse((F(1, 2) - F(1, 2), ZERO, F(2)))
        assert s == {2: F(2)} and s.dim == 3

    def test_basis_is_the_identity(self):
        identity = tuple(basis_vector(3, i) for i in range(3))
        assert dense_rows(basis(3)) == identity
        assert basis(3) == rows(identity)


class TestCancellation:
    """Coefficients that cancel leave no zero behind, so an exact zero result
    is the empty sparse vector of the right length."""

    def test_apply_map(self):
        # e_0 - e_1 under a map that sends both to the same vector
        m = rows(matrix_from_rows([[1, 2], [1, 2]]))
        out = apply_map(m, sparse((1, -1)))
        assert out == {} and out.dim == 2

    def test_apply_kron(self):
        m = rows(matrix_from_rows([[1, F(1, 2)], [1, F(1, 2)]]))
        out = apply_kron(m, basis(2), sparse((1, 0, -1, 0)))
        assert out == {} and out.dim == 4

    def test_bilinear_apply(self):
        t = cells(((((1,), (1,)),) * 2))
        out = bilinear_apply(t, sparse((F(1, 3), -F(1, 3))), sparse((1, 0)))
        assert out == {} and out.dim == 1

    def test_tensor_power_product(self):
        # in kz2, where g g = 1: (1 (x) 1 + g (x) g)(1 (x) 1 - g (x) g) = 0
        mul = get_entry("kz2").hopf.algebra.mul_cells
        out = tensor_power_product(mul, 2, sparse((1, 0, 0, 1)), sparse((1, 0, 0, -1)))
        assert out == {} and out.dim == 4

    def test_linear_combination(self):
        v = sparse((1, F(1, 2), 0))
        out = linear_combination(3, [(2, v), (-2, v)])
        assert out == {} and out.dim == 3

    def test_partial_cancellation_keeps_the_rest(self):
        m = rows(matrix_from_rows([[1, 2], [1, 3]]))
        assert apply_map(m, sparse((1, -1))) == {1: -1}


class TestSweep:
    def test_sides_of_different_length_are_refused(self):
        # two zero vectors of different lengths are not equal
        with pytest.raises(DimensionMismatch):
            _sweep("x", (), (sparse((ZERO,) * 2),), (sparse((ZERO,) * 4),))
        with pytest.raises(DimensionMismatch):
            _sweep("x", iter([((), sparse((ZERO,) * 2), sparse((ZERO,) * 4))]))

    def test_witness_is_dense(self):
        e = basis(3)
        entry = _sweep("x", (2,), e[:2], (e[0], e[0]))
        assert not entry.passed and entry.witness.index == (1,)
        assert entry.witness.lhs == (0, 1, 0) and entry.witness.rhs == (1, 0, 0)

    def test_witness_index_is_the_first_differing_row_unflattened(self):
        e = basis(6)
        entry = _sweep("x", (2, 3), e, e[:4] + (e[0], e[5]))
        assert entry.witness.index == (1, 1)
        assert _sweep("x", (2, 3), e, e).passed

    def test_row_count_must_match_the_index_space(self):
        e = basis(3)
        for lhs, rhs in ((e, e), (e, e[:2]), (e[:2], e)):
            with pytest.raises(DimensionMismatch):
                _sweep("x", (2,), lhs, rhs)


class TestComposeRows:
    def test_pair_factor_is_the_kronecker_product(self):
        f = rows(matrix_from_rows([[1, 2], [0, 3]]))
        g = rows(matrix_from_rows([[0, 1], [F(1, 2), 0]]))
        v = rows(matrix_from_rows([[1, 0, 0, 1], [0, 0, 0, 0], [0, 2, -1, 0]]))
        out = compose(v, (f, g))
        assert out == compose(v, kron(f, g)) and [row.dim for row in out] == [4, 4, 4]
        # maps apply in turn, left to right
        assert compose(v, (f, g), kron(f, g)) == compose(compose(v, kron(f, g)), kron(f, g))

    def test_zero_row_stays_zero_without_a_kernel_call(self, monkeypatch):
        m = rows(matrix_from_rows([[0, 0], [1, 1]]))
        target = rows(matrix_from_rows([[1, 0, 2], [0, 1, 0]]))
        calls = []
        monkeypatch.setattr(exactlin, "apply_map", lambda f, v: calls.append(v) or apply_map(f, v))
        out = compose(m, target)
        assert calls == [m[1]]
        assert out[0] == {} and out[0].dim == 3 and dense(out[1]) == (1, 1, 2)


class TestApplyMap:
    @given(dims, dims, st.data())
    @settings(max_examples=60)
    def test_matches_dense_reference_on_rectangular_maps(self, p, q, data):
        m, v = data.draw(sparse_rect(p, q)), data.draw(sparse_vectors(p))
        out = apply_map(rows(m), sparse(v))
        assert dense(out) == dense_apply(m, v) and zero_free(out)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_map(basis(2), sparse((F(1),) * 3))


class TestBilinear:
    def test_square_zero_element(self):
        ax1 = catalog_ax1().hopf
        x = sparse(basis_vector(2, 1))
        assert dense(bilinear_apply(ax1.algebra.mul_cells, x, x)) == (F(0), F(0))

    def test_unit_acts_by_alpha(self):
        ax1 = catalog_ax1().hopf
        mul, alpha, (unit,) = ax1.algebra.mul_cells, ax1.alpha, ax1.unit
        for v in basis(2):
            assert bilinear_apply(mul, unit, v) == apply_map(alpha, v)
            assert bilinear_apply(mul, v, unit) == apply_map(alpha, v)

    def test_cyclic_product_closed_form(self):
        c3 = catalog_cyclic(3).hopf
        g1 = basis(3)[1]
        assert bilinear_apply(c3.algebra.mul_cells, g1, g1) == g1

    @given(dims, dims, dims, st.data())
    @settings(max_examples=60)
    def test_matches_dense_reference_on_rectangular_tensors(self, n1, n2, n3, data):
        t = data.draw(sparse_tensors(n1, n2, n3))
        x, y = data.draw(sparse_vectors(n1)), data.draw(sparse_vectors(n2))
        out = bilinear_apply(cells(t), sparse(x), sparse(y))
        assert dense(out) == dense_bilinear(t, x, y) and zero_free(out)

    def test_shape_mismatch(self):
        ax1 = catalog_ax1().hopf
        with pytest.raises(DimensionMismatch):
            bilinear_apply(ax1.algebra.mul_cells, basis(3)[0], basis(2)[0])


class TestApplyKron:
    @given(dims, dims, dims, dims, st.data())
    @settings(max_examples=60)
    def test_matches_dense_kron_on_rectangular_maps(self, p, q, r, s, data):
        f, g = data.draw(sparse_rect(p, q)), data.draw(sparse_rect(r, s))
        v = data.draw(sparse_vectors(p * r))
        out = apply_kron(rows(f), rows(g), sparse(v))
        assert dense(out) == dense_apply(dense_kron(f, g), v) and zero_free(out)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_kron(basis(2), basis(2), sparse((F(1),) * 3))


def pure(*legs):
    """The pure tensor ``legs[0] (x) legs[1] (x) ...`` as a flattened dense vector."""
    return reduce(lambda u, v: dense_kron((u,), (v,))[0], legs)


catalog_muls = st.sampled_from(["ax1", "kz2", "sweedler_hom", "cyclic:3"]).map(
    lambda name: dense_field(get_entry(name).hopf, "mul")
)


def tensor_power_product(mul, legs, u, v):
    """The one componentwise product of ``u`` and ``v``."""
    (out,) = tensor_power_products((mul,) * legs, (u,), (v,))
    return out


def dense_power_product(mul, legs, u, v):
    """The reference componentwise product on a tensor power: every pair of
    basis tensors multiplied leg by leg with the dense ``mul``, then summed."""
    n = len(mul)
    size = n**legs

    def legs_of(p):
        return [p // n**k % n for k in reversed(range(legs))]

    out = [ZERO] * size
    for p, q in product(range(size), repeat=2):
        w = (u[p] * v[q],)
        for a, b in zip(legs_of(p), legs_of(q)):
            w = tuple(x * y for x in w for y in mul[a][b])
        out = [o + x for o, x in zip(out, w)]
    return tuple(out)


def dense_leg_product(f, g, u, v):
    """The reference product of the dense vectors ``u`` and ``v`` in the tensor
    product of the dense bilinear maps ``f`` and ``g``: every pair of basis
    tensors, leg by leg, summed."""
    l2, r2, o2 = len(g), len(g[0]), len(g[0][0])
    out = [ZERO] * (len(f[0][0]) * o2)
    for p, q in product(range(len(u)), range(len(v))):
        for k, fk in enumerate(f[p // l2][q // r2]):
            for m, gm in enumerate(g[p % l2][q % r2]):
                out[k * o2 + m] += u[p] * v[q] * fk * gm
    return tuple(out)


class TestTensorPowerProduct:
    @given(catalog_muls, st.data())
    @settings(max_examples=30)
    def test_one_leg_is_the_product(self, mul, data):
        u, v = sparse(data.draw(vectors(len(mul)))), sparse(data.draw(vectors(len(mul))))
        assert tensor_power_product(cells(mul), 1, u, v) == bilinear_apply(cells(mul), u, v)

    @given(catalog_muls, st.integers(2, 3), st.data())
    @settings(max_examples=30)
    def test_pure_tensors_multiply_leg_by_leg(self, mul, legs, data):
        mc = cells(mul)
        xs = [data.draw(vectors(len(mul))) for _ in range(legs)]
        ys = [data.draw(vectors(len(mul))) for _ in range(legs)]
        expected = pure(*(dense(bilinear_apply(mc, sparse(x), sparse(y))) for x, y in zip(xs, ys)))
        out = tensor_power_product(mc, legs, sparse(pure(*xs)), sparse(pure(*ys)))
        assert dense(out) == expected

    @given(st.sampled_from(["ax1", "kz2", "cyclic:3"]), st.integers(2, 3), st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_reference(self, name, legs, data):
        mul = dense_field(get_entry(name).hopf, "mul")
        u, v = (data.draw(sparse_vectors(len(mul) ** legs)) for _ in range(2))
        out = tensor_power_product(cells(mul), legs, sparse(u), sparse(v))
        assert dense(out) == dense_power_product(mul, legs, u, v) and zero_free(out)

    def test_shape_mismatch(self):
        mul = catalog_ax1().hopf.algebra.mul_cells
        with pytest.raises(DimensionMismatch):
            tensor_power_product(mul, 2, basis(4)[0], basis(2)[0])
        with pytest.raises(DimensionMismatch, match="lengths 2$"):
            tensor_power_products((mul, mul), basis(4), (basis(4)[1], basis(2)[0]))

    def test_us_and_vs_are_checked_against_their_own_spaces(self):
        """Legs ``2 x 3 -> 1`` and ``2 x 1 -> 1``: ``us`` lives on the 4-dim product
        of the left spaces and ``vs`` on the 3-dim product of the right ones."""
        legs = (cells(((((1,),) * 3,) * 2)), cells(((((1,),),) * 2)))
        assert len(list(tensor_power_products(legs, basis(4), basis(3)))) == 12
        with pytest.raises(DimensionMismatch, match="dimensions 2 x 2 applied to lengths 3$"):
            tensor_power_products(legs, (basis(4)[0], basis(3)[0]), basis(3))
        with pytest.raises(DimensionMismatch, match="dimensions 3 x 1 applied to lengths 4$"):
            tensor_power_products(legs, basis(4), (basis(4)[0],))

    @given(st.sampled_from(["kz2", "cyclic:3"]), st.integers(1, 2), st.data())
    @settings(max_examples=10, deadline=None)
    def test_products_are_the_pairwise_products_row_major(self, name, legs, data):
        mul = dense_field(get_entry(name).hopf, "mul")
        size = len(mul) ** legs
        us, vs = (
            [data.draw(sparse_vectors(size)) for _ in range(data.draw(st.integers(0, 2)))]
            for _ in range(2)
        )
        out = tensor_power_products((cells(mul),) * legs, [*map(sparse, us)], [*map(sparse, vs)])
        expected = [dense_power_product(mul, legs, u, v) for u in us for v in vs]
        assert [dense(w) for w in out] == expected

    @given(catalog_muls, catalog_muls, st.data())
    @settings(max_examples=30, deadline=None)
    def test_each_leg_multiplies_in_its_own_table(self, first, second, data):
        a, b = cells(first), cells(second)
        nb, size = len(second), len(first) * len(second)
        u, v = (data.draw(sparse_vectors(size)) for _ in range(2))
        (out,) = tensor_power_products((a, b), (sparse(u),), (sparse(v),))
        expected = linear_combination(
            size,
            (
                (u[p] * v[q], kron((a[p // nb][q // nb],), (b[p % nb][q % nb],))[0])
                for p, q in product(range(size), repeat=2)
            ),
        )
        assert out == expected and zero_free(out)

    @given(
        st.one_of(st.just((2, 3, 4, 3, 2, 1)), st.tuples(*[st.integers(1, 3)] * 6)),
        st.integers(0, 2),
        st.integers(0, 2),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_legs_of_their_own_dimensions(self, shape, nu, nv, data):
        """Legs ``f: l1 x r1 -> o1`` and ``g: l2 x r2 -> o2``, such as a
        ``2 x 3 -> 4`` leg and a ``3 x 2 -> 1`` leg, whose left, right and
        output dimensions all differ."""
        l1, r1, o1, l2, r2, o2 = shape
        f, g = data.draw(sparse_tensors(l1, r1, o1)), data.draw(sparse_tensors(l2, r2, o2))
        us = [data.draw(sparse_vectors(l1 * l2)) for _ in range(nu)]
        vs = [data.draw(sparse_vectors(r1 * r2)) for _ in range(nv)]
        out = list(tensor_power_products((cells(f), cells(g)), [*map(sparse, us)], [*map(sparse, vs)]))
        assert [dense(w) for w in out] == [dense_leg_product(f, g, u, v) for u in us for v in vs]
        assert all(w.dim == o1 * o2 and zero_free(w) for w in out)


class TestSquareCases:
    @given(catalog_muls, catalog_muls, st.data())
    @settings(max_examples=30, deadline=None)
    def test_both_sides_of_every_skipped_case_are_zero(self, first, second, data):
        """For ``delta: A -> A (x) B``, with ``A`` and ``B`` of different
        dimensions, the cases left out have ``delta(e_i e_j)`` and
        ``delta(e_i) delta(e_j)`` both zero."""
        a, b = cells(first), cells(second)
        n = len(first)
        delta = rows(data.draw(sparse_rect(n, n * len(second))))
        cases = list(square_cases((a, b), delta, delta))
        assert cases == sorted(set(cases))
        products = tensor_power_products((a, b), delta, delta)
        for (i, j), w in zip(product(range(n), repeat=2), products):
            if (i, j) not in cases:
                assert apply_map(delta, a[i][j]) == {} and w == {}

    @given(st.tuples(*[st.integers(1, 3)] * 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_non_square_legs(self, shape, data):
        """The law ``vs(m1[i][j]) = us[i] vs[j]`` with legs ``m1: l1 x r1 -> r1``
        and ``m2: l2 x r2 -> o2``: every case left out has both sides zero, and
        every case kept has a nonzero cell ``m1[i][j]`` or a pair of terms of
        ``us[i]`` and ``vs[j]`` that fill a cell of each leg."""
        l1, r1, l2, r2, o2 = shape
        muls = (cells(data.draw(sparse_tensors(l1, r1, r1))), cells(data.draw(sparse_tensors(l2, r2, o2))))
        us, vs = rows(data.draw(sparse_rect(l1, l1 * l2))), rows(data.draw(sparse_rect(r1, r1 * r2)))
        cases = list(square_cases(muls, us, vs))
        assert cases == sorted(set(cases))
        products = tensor_power_products(muls, us, vs)
        for (i, j), w in zip(product(range(l1), range(r1)), products):
            if (i, j) not in cases:
                assert apply_map(vs, muls[0][i][j]) == {} and w == {}
            else:
                filled = (
                    muls[0][p // l2][q // r2] and muls[1][p % l2][q % r2] for p in us[i] for q in vs[j]
                )
                assert muls[0][i][j] or any(filled)


class TestTerms:
    @given(dims, dims, dims, st.data())
    @settings(max_examples=60)
    def test_rebuilds_the_tensor_in_row_major_order(self, n1, n2, n3, data):
        t = tuple(tuple(data.draw(vectors(n3)) for _ in range(n2)) for _ in range(n1))
        rows_of_terms = terms(rows(map(flatten_pair, t)), n3)
        assert len(rows_of_terms) == n1
        for row in rows_of_terms:
            assert [(j, k) for j, k, _ in row] == sorted({(j, k) for j, k, _ in row})
            assert all(c for _, _, c in row)
        entries = {(i, j, k): c for i, row in enumerate(rows_of_terms) for j, k, c in row}
        assert tensor3_from_entries((n1, n2, n3), entries) == t


class TestTables:
    """The sparse tables a builder hands over, and the dense tensors made from them."""

    @given(dims, dims, dims, st.data())
    @settings(max_examples=40)
    def test_pair_cells_invert_flattening(self, n1, n2, n3, data):
        t = data.draw(sparse_tensors(n1, n2, n3))
        cut = pair_cells(rows(map(flatten_pair, t)), n3)
        assert tuple(map(dense_rows, cut)) == t
        assert all(c.dim == n3 and zero_free(c) for plane in cut for c in plane)

    @given(dims, dims, dims, st.data())
    @settings(max_examples=40)
    def test_entries_build_the_rows(self, n1, n2, n3, data):
        t = data.draw(sparse_tensors(n1, n2, n3))
        entries = {
            (i, j, k): c
            for i, plane in enumerate(t)
            for j, row in enumerate(plane)
            for k, c in enumerate(row)
        }
        flat = rows_from_entries((n1, n2, n3), entries)
        assert flat == rows(map(flatten_pair, t)) and all(map(zero_free, flat))
        first = {(i, j): c for (i, j, k), c in entries.items() if k == 0}
        assert dense_rows(rows_from_entries((n1, n2), first)) == tuple(
            tuple(row[0] for row in plane) for plane in t
        )

    def test_zero_rows_are_one_shared_tuple(self):
        m = dense_rows(rows_from_entries((3, 2), {(1, 0): 1}))
        assert m == ((0, 0), (1, 0), (0, 0)) and m[0] is m[2]

    @given(dims, dims, st.data())
    @settings(max_examples=40)
    def test_transpose_rows_is_the_transpose(self, n1, n2, data):
        m = data.draw(sparse_rect(n1, n2))
        out = transpose_rows(rows(m))
        assert dense_rows(out) == transpose(m) and all(map(zero_free, out))

    @given(dims, dims, st.data())
    @settings(max_examples=40)
    def test_flip_exchanges_the_legs(self, n1, n2, data):
        v = data.draw(sparse_vectors(n1 * n2))
        flipped = tuple(v[q % n1 * n2 + q // n1] for q in range(n1 * n2))
        assert dense(apply_map(flip(n1, n2), sparse(v))) == flipped


class TestLinearCombination:
    @given(st.lists(st.tuples(rationals, sparse_vectors(3)), max_size=4))
    @settings(max_examples=40)
    def test_matches_scaled_sum(self, scaled):
        expected = (ZERO,) * 3
        for c, v in scaled:
            expected = tuple(a + c * b for a, b in zip(expected, v))
        out = linear_combination(3, [(c, sparse(v)) for c, v in scaled])
        assert dense(out) == expected and zero_free(out)

    def test_zeros_computed_by_arithmetic_are_skipped(self):
        assert list(nonzeros((F(1, 2) - F(1, 2), ZERO, F(2)))) == [(2, F(2))]
