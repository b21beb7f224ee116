"""Axiom checkers: passing instances, deliberately broken ones, witnesses."""


from dataclasses import make_dataclass
from fractions import Fraction
from functools import reduce

import pytest

from conftest import (
    dense_compose,
    dense_field,
    dense_inverse,
    hopf_algebra,
    matrix_from_rows,
    replaced,
    tensor3_from_entries,
)
from homhopf.algfile import bundle_of_entry, write
from homhopf.algread import read
from homhopf.bicross import BicrossGolden, comodule_cotwist, self_bicross_data
from homhopf.catalog import (
    CatalogEntry,
    GroupData,
    catalog_ax1,
    catalog_cyclic,
    catalog_kz2,
    catalog_one,
    catalog_sweedler_hom,
    get_entry,
)
from homhopf.checkers import (
    check_antipode,
    check_comodule,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    check_morphism,
    run_hopf_suite,
)
from homhopf.constructions import (
    canonical_cocycles,
    canonical_r_matrix,
    co_opposite,
    drinfeld_double,
    drinfeld_double_tilde,
    dual,
    opposite,
)
from homhopf.errors import DimensionMismatch, MissingStructure, SingularMatrixError
from homhopf.exactlin import (
    Sparse,
    basis,
    cells,
    compose,
    dense,
    dense_rows,
    flip,
    rows,
    rows_from_entries,
    sparse,
    transpose,
)
from homhopf.laws import check_comodule_coalgebra, check_module, check_module_algebra
from homhopf.matchedpair import MatchedPairData, check_cotwisting, check_module_coalgebra, dual_matched_pair
from homhopf.pairing import PairedDouble, check_dual_pair, evaluation_pairing
from homhopf.structures import (
    CheckEntry,
    CheckReport,
    ComoduleCoaction,
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopfAlgebra,
    ModuleAction,
    PairingForm,
    RMatrix,
    Witness,
    algebra_of,
    bialgebra_of,
    coalgebra_of,
)
from homhopf.twist import TwoCocycle, check_cocycle
from homhopf.verify import SuiteResult, SuiteStep

F = Fraction
ONE = F(1)


def with_mul_entry(h, i, j, k, value):
    entries = {}
    for a, plane in enumerate(dense_field(h, "mul")):
        for b, row in enumerate(plane):
            for c, v in enumerate(row):
                if v:
                    entries[a, b, c] = v
    entries[i, j, k] = value
    mul = tensor3_from_entries((h.dim,) * 3, entries)
    unit, comul, counit, antipode = (dense_field(h, f) for f in ("unit", "comul", "counit", "antipode"))
    return hopf_algebra(h.dim, mul, unit, comul, counit, h.alpha, antipode)


class TestHomAlgebra:
    def test_ax1_passes(self):
        assert check_hom_algebra(catalog_ax1().hopf).ok

    def test_one_dimensional(self):
        assert check_hom_algebra(catalog_one().hopf).ok

    def test_broken_square_fails_with_witness(self):
        broken = with_mul_entry(catalog_ax1().hopf, 1, 1, 1, ONE)
        report = check_hom_algebra(broken)
        entry = report.entry("algebra.hom-associative")
        assert not entry.passed
        assert entry.witness is not None
        assert entry.witness.lhs != entry.witness.rhs

    def test_witness_is_lexicographically_first(self):
        broken = with_mul_entry(catalog_ax1().hopf, 1, 1, 1, ONE)
        first = check_hom_algebra(broken).entry("algebra.hom-associative").witness.index
        again = check_hom_algebra(broken).entry("algebra.hom-associative").witness.index
        assert first == again
        assert first == (0, 1, 1)

    def test_unit_square_mutation_escapes_algebra_but_not_bialgebra(self):
        # x . x = 1 happens to stay Hom-associative; the bialgebra layer
        # catches it instead, so layered checking is not redundant.
        mutated = with_mul_entry(catalog_ax1().hopf, 1, 1, 0, ONE)
        assert check_hom_algebra(mutated).ok
        assert not check_hom_bialgebra(mutated).ok


class TestHomCoalgebra:
    def test_ax1_passes(self):
        assert check_hom_coalgebra(catalog_ax1().hopf).ok

    def test_group_like(self):
        assert check_hom_coalgebra(catalog_kz2().hopf).ok

    def test_flipped_comul_sign_fails_counit(self):
        h = catalog_ax1().hopf
        comul = rows_from_entries(
            (2, 2, 2), {(0, 0, 0): ONE, (1, 1, 0): ONE, (1, 0, 1): -ONE}
        )
        broken = HomCoalgebra(2, comul, h.counit, h.alpha)
        report = check_hom_coalgebra(broken)
        assert report.entry("coalgebra.left-counit").passed
        assert not report.entry("coalgebra.right-counit").passed


class TestHomBialgebra:
    def test_sweedler_passes(self):
        assert check_hom_bialgebra(catalog_sweedler_hom().hopf).ok

    def test_one_dimensional(self):
        assert check_hom_bialgebra(catalog_one().hopf).ok

    def test_doubled_coefficient_fails(self):
        h = catalog_sweedler_hom().hopf
        comul = rows_from_entries(
            (4, 4, 4),
            {
                (0, 0, 0): ONE,
                (1, 1, 1): ONE,
                (2, 2, 1): -ONE,
                (2, 0, 2): -F(2),
                (3, 3, 0): -ONE,
                (3, 1, 3): -ONE,
            },
        )
        broken = HomBialgebra(h.algebra, HomCoalgebra(4, comul, h.counit, h.alpha))
        assert not check_hom_bialgebra(broken).entry("bialgebra.comul-multiplicative").passed

    def test_ax1_fails_only_at_square_zero_pair(self):
        # delta(x . x) = 0 while delta(x) delta(x) = 2 x (x) x: impossible to
        # repair in characteristic zero, so this failure is pinned exactly.
        report = check_hom_bialgebra(catalog_ax1().hopf)
        failing = [c for c in report.checks if not c.passed]
        assert [c.axiom_id for c in failing] == ["bialgebra.comul-multiplicative"]
        assert failing[0].witness.index == (1, 1)


class TestAntipode:
    def test_ax1(self):
        assert check_antipode(catalog_ax1().hopf).ok

    def test_group_algebra_involution(self):
        assert check_antipode(catalog_kz2().hopf).ok

    def test_sweedler_wrong_antipode_fails(self):
        h = catalog_sweedler_hom().hopf
        bad = rows_from_entries((4, 4), {(0, 0): ONE, (1, 1): ONE, (2, 2): -ONE, (3, 2): ONE})
        report = check_antipode(HomHopfAlgebra(h.bialgebra, bad))
        entry = report.entry("antipode.left")
        assert not entry.passed
        assert entry.witness.index == (2,)

    def test_derived_properties_pass_on_catalog(self):
        for entry in (catalog_kz2(), catalog_sweedler_hom(), catalog_cyclic(4)):
            report = check_antipode(entry.hopf)
            assert report.entry("antipode.anti-multiplicative").passed
            assert report.entry("antipode.anti-comultiplicative").passed
            assert report.entry("antipode.preserves-counit").passed


class TestModule:
    def test_ax1_action(self):
        assert check_module(catalog_ax1().action).ok

    def test_trivial_counit_action(self):
        h = catalog_kz2().hopf
        act = tensor3_from_entries(
            (2, 2, 2),
            {(0, 0, 0): ONE, (0, 1, 1): ONE, (1, 0, 0): ONE, (1, 1, 1): ONE},
        )
        assert check_module(ModuleAction(h, h, cells(act))).ok

    def test_counit_action_is_always_valid(self):
        # g . x = -x turns the bundled action into h . m = counit(h) beta(m),
        # which satisfies every module-algebra axiom; flipping the sign of a
        # single action entry is not guaranteed to break anything.
        ax = catalog_ax1()
        act = tensor3_from_entries(
            (2, 2, 2),
            {(0, 0, 0): ONE, (0, 1, 1): -ONE, (1, 0, 0): ONE, (1, 1, 1): -ONE},
        )
        assert check_module_algebra(ModuleAction(ax.partner, ax.hopf, cells(act))).ok

    def test_flipped_unit_action_fails(self):
        ax = catalog_ax1()
        act = tensor3_from_entries(
            (2, 2, 2),
            {(0, 0, 0): ONE, (0, 1, 1): ONE, (1, 0, 0): ONE, (1, 1, 1): ONE},
        )
        report = check_module_algebra(ModuleAction(ax.partner, ax.hopf, cells(act)))
        assert not report.entry("module.unit-acts-as-alpha").passed


class TestModuleAlgebra:
    def test_ax1_data(self):
        assert check_module_algebra(catalog_ax1().action).ok

    def test_self_action_on_sweedler(self):
        h = catalog_sweedler_hom().hopf
        _, act, _ = self_bicross_data(h)
        assert check_module_algebra(act).ok


class TestComodule:
    def test_ax1_coaction(self):
        assert check_comodule(catalog_ax1().coaction).ok

    def test_trivial_coaction(self):
        h = catalog_kz2().hopf
        coact = rows_from_entries((2, 2, 2), {(0, 0, 0): ONE, (1, 1, 0): ONE})
        assert check_comodule(ComoduleCoaction(h, h, coact)).ok

    def test_opposite_coaction_on_sweedler(self):
        h = catalog_sweedler_hom().hopf
        _, _, co = self_bicross_data(h)
        assert check_comodule(co).ok


class TestComoduleCoalgebra:
    def test_ax1_data(self):
        assert check_comodule_coalgebra(catalog_ax1().coaction).ok

    def test_opposite_coaction_on_cyclic(self):
        h = catalog_cyclic(3).hopf
        _, _, co = self_bicross_data(h)
        assert check_comodule_coalgebra(co).ok


class TestModuleCoalgebra:
    def test_dual_action_on_ax1_data(self):
        from homhopf.matchedpair import dual_matched_pair

        ax = catalog_ax1()
        mp = dual_matched_pair(ax.hopf, ax.partner, ax.action, ax.coaction, check=False)
        act = ModuleAction(mp.H, mp.A, mp.left_cells)
        assert check_module_coalgebra(act).ok

    def test_perturbed_action_fails(self):
        ax = catalog_ax1()
        act = tensor3_from_entries(
            (2, 2, 2),
            {(0, 0, 0): ONE, (0, 1, 1): -ONE, (1, 0, 0): ONE, (1, 1, 1): F(2)},
        )
        report = check_module_coalgebra(ModuleAction(ax.partner, ax.partner, cells(act)))
        assert not report.ok


class TestCotwisting:
    def test_induced_map_on_ax1_data(self):
        phi = comodule_cotwist(catalog_ax1().coaction, check=False)
        ax = catalog_ax1()
        assert check_cotwisting(ax.hopf, ax.partner, phi).ok

    def test_flip_on_group_likes(self):
        h = catalog_kz2().hopf
        swapped = {(i * 2 + j, j * 2 + i): ONE for i in range(2) for j in range(2)}
        flip = rows_from_entries((4, 4), swapped)
        assert check_cotwisting(h, h, flip).ok

    def test_sign_flipped_map_fails_counit_condition(self):
        # negating the x-legs violates the counit condition of a cotwisting map
        ax = catalog_ax1()
        phi = rows_from_entries((4, 4), {(0, 0): ONE, (1, 2): ONE, (2, 1): -ONE, (3, 3): -ONE})
        report = check_cotwisting(ax.hopf, ax.partner, phi)
        assert not report.entry("cotwisting.counit-second-factor").passed


class TestDualPair:
    def test_trivial_pair(self):
        one = catalog_one().hopf
        pairing = PairingForm(one, one, basis(1))
        assert check_dual_pair(pairing).ok

    def test_perturbed_gram_fails(self):
        from homhopf.pairing import evaluation_pairing

        pairing = evaluation_pairing(catalog_cyclic(2).hopf)
        bad = PairingForm(
            pairing.left, pairing.right, rows(matrix_from_rows([[1, 0], [1, 1]]))
        )
        report = check_dual_pair(bad)
        assert not report.entry("pairing.mul-comul-left").passed


class TestCocycle:
    def test_trivial_cocycle(self):
        h = catalog_sweedler_hom().hopf
        counit = dense_field(h, "counit")
        counits = {(i, j): counit[i] * counit[j] for i in range(4) for j in range(4)}
        gram = rows_from_entries((4, 4), counits)
        for side in ("left", "right"):
            assert check_cocycle(TwoCocycle(h.bialgebra, gram, side)).ok


class TestMorphism:
    def test_identity_entries_on_algebras_and_on_hopf_algebras(self):
        h = get_entry("s3_inner").hopf
        e = basis(6)
        ids = ["id.mul", "id.unit", "id.alpha"]
        assert [c.axiom_id for c in check_morphism("id", h.algebra, h.algebra, e).checks] == ids
        report = check_morphism("id", h, h, e)
        assert [c.axiom_id for c in report.checks] == ids + ["id.comul", "id.antipode"]
        assert report.ok

    def test_structure_map_is_a_morphism(self):
        h = catalog_sweedler_hom().hopf
        assert check_morphism("alpha", h, h, h.alpha).ok

    def test_zero_map_fails_only_the_unit(self):
        h = catalog_sweedler_hom().hopf
        zero = tuple(sparse((0,) * 4) for _ in range(4))
        (entry,) = check_morphism("zero", h, h, zero).failures()
        assert entry == CheckEntry("zero.unit", False, Witness((), (0,) * 4, dense_field(h, "unit")))

    def test_map_shape_is_checked(self):
        h = catalog_sweedler_hom().hopf
        with pytest.raises(DimensionMismatch):
            check_morphism("short", h, h, basis(4)[:3])


class TestCoercion:
    def test_each_part_is_read_from_the_types_that_have_it(self):
        H = catalog_ax1().hopf
        B, A, C = H.bialgebra, H.algebra, H.coalgebra
        assert algebra_of(H) is algebra_of(B) is algebra_of(A) is A
        assert coalgebra_of(H) is coalgebra_of(B) is coalgebra_of(C) is C
        assert bialgebra_of(H) is bialgebra_of(B) is B

    def test_types_without_the_part_are_refused(self):
        H = catalog_ax1().hopf
        B, A, C = H.bialgebra, H.algebra, H.coalgebra
        # a cocycle's ``algebra`` field is a bialgebra, not an algebra
        sigma = TwoCocycle(B, rows(matrix_from_rows([[1, 0], [0, 1]])), "left")
        refused = [
            (algebra_of, C, "no algebra structure on HomCoalgebra"),
            (algebra_of, sigma, "no algebra structure on TwoCocycle"),
            (algebra_of, None, "no algebra structure on NoneType"),
            (coalgebra_of, A, "no coalgebra structure on HomAlgebra"),
            (coalgebra_of, sigma, "no coalgebra structure on TwoCocycle"),
            (bialgebra_of, A, "no bialgebra structure on HomAlgebra"),
            (bialgebra_of, C, "no bialgebra structure on HomCoalgebra"),
            (bialgebra_of, sigma, "no bialgebra structure on TwoCocycle"),
        ]
        for coerce, obj, message in refused:
            with pytest.raises(MissingStructure, match=f"^{message}$"):
                coerce(obj)


class TestStructuralInvariants:
    def test_singular_matrix_messages(self):
        ax1, singular = catalog_ax1().hopf, rows(matrix_from_rows([[1, 0], [0, 0]]))
        with pytest.raises(SingularMatrixError, match="^structure map must be invertible$"):
            HomAlgebra(2, ax1.algebra.mul_cells, ax1.unit, singular)
        with pytest.raises(SingularMatrixError, match="^structure map must be invertible$"):
            HomCoalgebra(2, ax1.coalgebra.comul_rows, ax1.counit, singular)
        with pytest.raises(SingularMatrixError, match="^pairing must be non-degenerate$"):
            PairingForm(ax1, ax1, singular)

    def test_dense_unit_and_counit_are_refused(self):
        """A unit and a counit are maps; their dense vectors are refused by shape."""
        h = catalog_kz2().hopf
        with pytest.raises(DimensionMismatch, match="^unit shape$"):
            HomAlgebra(2, h.algebra.mul_cells, (1, 0), h.alpha)
        with pytest.raises(DimensionMismatch, match="^counit shape$"):
            HomCoalgebra(2, h.coalgebra.comul_rows, (1, 1), h.alpha)
        with pytest.raises(DimensionMismatch, match="^unit shape$"):
            HomAlgebra(2, h.algebra.mul_cells, h.counit, h.alpha)

    def test_singular_structure_map_rejected(self):
        with pytest.raises(SingularMatrixError):
            HomAlgebra(
                2,
                catalog_ax1().hopf.algebra.mul_cells,
                catalog_ax1().hopf.unit,
                rows(matrix_from_rows([[1, 0], [0, 0]])),
            )

    def test_checker_determinism(self):
        broken = with_mul_entry(catalog_ax1().hopf, 0, 1, 1, ONE)
        r1 = check_hom_algebra(broken)
        r2 = check_hom_algebra(broken)
        assert r1 == r2


# ---------------------------------------------------------------------------
# frozen value types

H1 = catalog_one().hopf
T1, M1 = (((1,),),), ((1,),)
C1, R1 = cells(T1), rows(M1)  # the tables of T1 and M1
W1 = Witness((0,), (1,), (0,))
ALG = "HomAlgebra(dim=1, mul_cells=(({0: 1},),), unit=({0: 1},), alpha=({0: 1},))"
COALG = "HomCoalgebra(dim=1, comul_rows=({0: 1},), counit=({0: 1},), alpha=({0: 1},))"
BIALG = f"HomBialgebra(algebra={ALG}, coalgebra={COALG})"
HOPF = f"HomHopfAlgebra(bialgebra={BIALG}, antipode_rows=({{0: 1}},))"
WIT = "Witness(index=(0,), lhs=(1,), rhs=(0,))"
PASSED = "CheckEntry(axiom_id='a', passed=True, witness=None)"
STEP = "SuiteStep(name='s', report=CheckReport(checks=()), note='n')"
# One value of each frozen value type and its repr as a frozen dataclass printed it.
RECORDS = [
    (H1.algebra, ALG),
    (H1.coalgebra, COALG),
    (H1.bialgebra, BIALG),
    (H1, HOPF),
    (
        ModuleAction(H1, H1, C1),
        f"ModuleAction(actor={HOPF}, carrier={HOPF}, act_cells=(({{0: 1}},),))",
    ),
    (
        ComoduleCoaction(H1, H1, R1),
        f"ComoduleCoaction(coactor={HOPF}, carrier={HOPF}, coact_rows=({{0: 1}},))",
    ),
    (PairingForm(H1, H1, R1), f"PairingForm(left={HOPF}, right={HOPF}, gram=({{0: 1}},))"),
    (
        TwoCocycle(H1.bialgebra, R1, "left"),
        f"TwoCocycle(algebra={BIALG}, gram=({{0: 1}},), side='left')",
    ),
    (RMatrix(H1.bialgebra, R1), f"RMatrix(host={BIALG}, entries=({{0: 1}},))"),
    (
        MatchedPairData(H1, H1, C1, C1),
        f"MatchedPairData(A={HOPF}, H={HOPF}, left_cells=(({{0: 1}},),), right_cells=(({{0: 1}},),))",
    ),
    (W1, WIT),
    (CheckEntry("a", False, W1), f"CheckEntry(axiom_id='a', passed=False, witness={WIT})"),
    (CheckEntry("a", True), PASSED),
    (CheckReport((CheckEntry("a", True),)), f"CheckReport(checks=({PASSED},))"),
    (SuiteStep("s", CheckReport(()), "n"), STEP),
    (
        SuiteResult("x", (SuiteStep("s", CheckReport(()), "n"),), 0.5),
        f"SuiteResult(suite='x', steps=({STEP},), wall_time=0.5)",
    ),
    (
        GroupData(1, ((0,),), 0, (0,), (0,)),
        "GroupData(order=1, table=((0,),), identity=0, inverse=(0,), automorphism=(0,))",
    ),
    (
        CatalogEntry("one", H1, ("1",)),
        f"CatalogEntry(name='one', hopf={HOPF}, basis=('1',), partner=None, partner_basis=(),"
        " action=None, coaction=None, rmatrix=None, group=None)",
    ),
    (
        BicrossGolden(C1, R1, R1),
        "BicrossGolden(products=(({0: 1},),), coproducts=({0: 1},), antipodes=({0: 1},))",
    ),
    (
        PairedDouble(H1, R1, (True, False)),
        f"PairedDouble(hopf={HOPF}, twisting=({{0: 1}},), closed_form_inverses_match=(True, False))",
    ),
]


@pytest.mark.parametrize(
    "value, text", RECORDS, ids=[f"{type(v).__name__}-{i}" for i, (v, _) in enumerate(RECORDS)]
)
class TestRecordValues:
    def test_repr_is_the_dataclass_repr(self, value, text):
        assert repr(value) == text

    def test_equality_and_hash_are_those_of_the_dataclass(self, value, text):
        names = value.__match_args__
        fields = tuple(getattr(value, f) for f in names)
        twin = make_dataclass(type(value).__name__, names, frozen=True)(*fields)
        assert repr(twin) == repr(value) and hash(twin) == hash(value)
        assert hash(value) == hash(fields)
        by_position, by_keyword = type(value)(*fields), type(value)(**dict(zip(names, fields)))
        assert value == by_position == by_keyword and by_keyword == value
        assert hash(by_position) == hash(by_keyword) == hash(value)
        assert value != fields and value != twin and twin != value

    def test_assignment_and_deletion_raise(self, value, text):
        for name in (value.__match_args__[0], "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == text


class TestRecord:
    def test_fields_are_the_annotated_names_in_order(self):
        assert HomAlgebra.__match_args__ == ("dim", "mul_cells", "unit", "alpha")
        assert PairingForm.__match_args__ == ("left", "right", "gram")
        assert CheckEntry.__match_args__ == ("axiom_id", "passed", "witness")

    def test_positional_keyword_and_default_construction(self):
        assert CheckEntry("a", True) == CheckEntry(axiom_id="a", passed=True)
        assert CheckEntry("a", False, W1) == CheckEntry("a", False, witness=W1)
        assert CheckEntry(witness=W1, passed=False, axiom_id="a") == CheckEntry("a", False, W1)
        assert CheckEntry("a", True).witness is None
        assert SuiteStep("s", CheckReport(())).note == ""
        entry = CatalogEntry("one", H1, ("1",))
        assert (entry.partner, entry.partner_basis, entry.group) == (None, (), None)
        assert CatalogEntry("one", H1, ("1",), group=None) == entry

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            (((0,), (1,)), {}, "missing .*argument: 'rhs'"),
            (((0,), (1,), (0,), (1,)), {}, "positional arguments"),
            (((0,), (1,), (0,)), {"extra": 1}, "unexpected keyword argument 'extra'"),
            (((0,), (1,), (0,)), {"index": (1,)}, "multiple values for argument 'index'"),
        ],
        ids=["missing", "extra", "unknown", "duplicate"],
    )
    def test_a_wrong_argument_list_is_a_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            Witness(*args, **kwargs)

    def test_post_init_validation_still_raises(self):
        with pytest.raises(ValueError, match="witness exactly when it fails"):
            CheckEntry("a", True, W1)
        with pytest.raises(ValueError, match="witness exactly when it fails"):
            CheckEntry("a", passed=False)
        with pytest.raises(DimensionMismatch, match="multiplication tensor shape"):
            HomAlgebra(2, C1, (1,), R1)
        with pytest.raises(ValueError, match="cocycle side"):
            TwoCocycle(H1.bialgebra, R1, side="middle")

    def test_types_with_equal_fields_are_unequal(self):
        algebra, coalgebra = HomAlgebra(1, C1, R1, R1), HomCoalgebra(1, R1, R1, R1)
        assert algebra != coalgebra and coalgebra != algebra
        assert algebra == H1.algebra and algebra != HomAlgebra(1, C1, R1, rows(((-1,),)))


# ---------------------------------------------------------------------------
# sparse views of the domain types

VIEW_ENTRIES = ("one", "ax1", "kz2", "sweedler_hom", *(f"cyclic:{n}" for n in range(2, 7)), "s3_inner")


def as_dense(table):
    """A view with every sparse vector made dense, so vector lengths count too."""
    if isinstance(table, Sparse):
        return dense(table)
    if isinstance(table, tuple):
        return tuple(as_dense(x) for x in table)
    return table


POWERS = (1, -1, 2, -2, 3, -3, 4, -4)


def hopf_views(H):
    """Every view of a Hopf object and of its algebra and coalgebra, by name."""
    A, C = H.algebra, H.coalgebra
    names = {
        A: ("mul_cells", "mul_map"),
        C: ("comul_rows", "comul_op_rows", "comul_terms"),
        H: ("antipode_rows", "antipode_inverse"),
    }
    views = {(type(obj).__name__, name): getattr(obj, name) for obj, ns in names.items() for name in ns}
    views.update({(type(x).__name__, f"power({k})"): x.power(k) for x in (A, C) for k in POWERS})
    return views


def dense_power(alpha, k):
    """``alpha^k`` for a nonzero ``k`` of the dense matrix ``alpha``, by the dense references."""
    return reduce(dense_compose, [alpha if k > 0 else dense_inverse(alpha)] * abs(k))


def flat_rows(t):
    """A rank-3 tensor as the rows of the map ``e_i -> sum t[i][j][k] e_j (x) e_k``."""
    return rows(tuple(tuple(c for row in plane for c in row) for plane in t))


def dense_terms(t):
    """The nonzero ``(j, k, t[i][j][k])`` of each plane ``t[i]`` of a rank-3 tensor, row-major."""
    return tuple(
        tuple((j, k, c) for j, row in enumerate(plane) for k, c in enumerate(row) if c)
        for plane in t
    )


def hopf_conversions(H):
    """The conversions of the dense tensors that the views of ``hopf_views`` replace."""
    mul, comul, antipode = (dense_field(H, f) for f in ("mul", "comul", "antipode"))
    co_opposite = tuple(transpose(plane) for plane in comul)
    powers = {f"power({k})": rows(dense_power(dense_rows(H.alpha), k)) for k in POWERS}
    return {
        **{("HomAlgebra", name): power for name, power in powers.items()},
        **{("HomCoalgebra", name): power for name, power in powers.items()},
        ("HomHopfAlgebra", "antipode_inverse"): rows(dense_inverse(antipode)),
        ("HomAlgebra", "mul_cells"): cells(mul),
        ("HomAlgebra", "mul_map"): rows(tuple(row for plane in mul for row in plane)),
        ("HomCoalgebra", "comul_rows"): flat_rows(comul),
        ("HomCoalgebra", "comul_op_rows"): flat_rows(co_opposite),
        ("HomCoalgebra", "comul_terms"): dense_terms(comul),
        ("HomHopfAlgebra", "antipode_rows"): rows(antipode),
    }


def objects_of(name):
    """A catalog entry's Hopf object, its double and its dual."""
    h = get_entry(name).hopf
    return {"entry": h, "double": drinfeld_double(h), "dual": dual(h)}


@pytest.mark.parametrize("name", VIEW_ENTRIES)
class TestViews:
    def test_each_view_equals_the_conversion_it_replaces(self, name):
        for H in objects_of(name).values():
            views, expected = hopf_views(H), hopf_conversions(H)
            assert views.keys() == expected.keys()
            for key, view in views.items():
                assert as_dense(view) == as_dense(expected[key]), key

    def test_views_are_built_once_and_shared(self, name):
        H = objects_of(name)["double"]
        A = H.algebra
        assert A.mul_cells is A.mul_cells and algebra_of(H).mul_cells is A.mul_cells
        assert coalgebra_of(H).comul_rows is bialgebra_of(H).coalgebra.comul_rows
        C, B = H.coalgebra, H.bialgebra
        assert H.alpha is A.alpha and B.alpha is A.alpha
        assert A.power(1) is A.alpha and C.power(1) is C.alpha
        assert A.power(-1) is A.alpha_inverse and C.power(-1) is C.alpha_inverse
        for k in POWERS:
            assert A.power(k) is A.power(k) and C.power(k) is C.power(k)
            assert H.power(k) is A.power(k) and B.power(k) is A.power(k)
        assert H.antipode_inverse is H.antipode_inverse
        # the flattened map reuses the cells' sparse vectors
        n = A.dim
        assert all(A.mul_map[i * n + j] is A.mul_cells[i][j] for i in range(n) for j in range(n))

    def test_reading_views_changes_no_equality_hash_or_repr(self, name):
        for H in objects_of(name).values():
            objects = (H, H.bialgebra, H.algebra, H.coalgebra)
            before = [(hash(x), repr(x)) for x in objects]
            twin = replaced(H, bialgebra=replaced(H.bialgebra))
            hopf_views(H)
            assert [(hash(x), repr(x)) for x in objects] == before
            assert H == twin and twin == H and hash(H) == hash(twin)
            assert "mul_map" not in replaced(H.algebra).__dict__
            assert H.algebra.__match_args__ == ("dim", "mul_cells", "unit", "alpha")
            assert H.coalgebra.__match_args__ == ("dim", "comul_rows", "counit", "alpha")

    def test_opposites_are_views_and_involutions(self, name):
        for H in objects_of(name).values():
            A, C, n = H.algebra, H.coalgebra, H.dim
            assert A.op is A.op and C.op is C.op
            assert A.op.op == A and C.op.op == C
            assert opposite(opposite(H)) == H and co_opposite(co_opposite(H)) == H
            assert opposite(H).algebra is A.op and co_opposite(H).coalgebra is C.op
            mul, mul_op = dense_field(A, "mul"), dense_field(A.op, "mul")
            assert all(mul_op[i][j] == mul[j][i] for i in range(n) for j in range(n))
            assert as_dense(C.op.comul_rows) == as_dense(C.comul_op_rows)
            assert "op" not in A.__match_args__ + C.__match_args__

    def test_structure_map_inverse_is_kept(self, name):
        for H in objects_of(name).values():
            for obj in (H.algebra, H.coalgebra):
                assert compose(obj.alpha, obj.alpha_inverse) == basis(H.dim)
                assert replaced(obj).alpha_inverse == obj.alpha_inverse

    def test_block_views(self, name):
        entry, h = get_entry(name), get_entry(name).hopf
        pairing = evaluation_pairing(h)
        sigma, eta = canonical_cocycles(h)
        for form in (pairing, sigma, eta):
            gram = form.gram
            assert as_dense(form.form) == tuple(tuple((g,) for g in row) for row in dense_rows(gram))
        r = canonical_r_matrix(h)
        assert dense(r.vector) == tuple(c for row in dense_rows(r.entries) for c in row)
        if entry.action is not None:
            act, co = entry.action, entry.coaction
            dense_act, dense_coact = dense_field(act, "act"), dense_field(co, "coact")
            assert as_dense(co.coact_rows) == as_dense(flat_rows(dense_coact))
            assert co.coact_terms == dense_terms(dense_coact)
            # e^j > e_g is the sum of coact[g][g0][j] e_g0, and <e^j < e_g, e_a> is
            # the e_j-coefficient of e_g . alpha^-2(e_a)
            mp = dual_matched_pair(h, entry.partner, act, co, check=False)
            na, nh = h.dim, entry.partner.dim
            acted = [dense_compose(dense_power(dense_rows(h.alpha), -2), plane) for plane in dense_act]
            left = [[[dense_coact[g][g0][j] for g0 in range(nh)] for g in range(nh)] for j in range(na)]
            right = [[[acted[g][a][j] for a in range(na)] for g in range(nh)] for j in range(na)]
            assert as_dense(mp.left_cells) == as_dense(tuple(map(rows, left)))
            assert as_dense(mp.right_cells) == as_dense(tuple(map(rows, right)))


@pytest.mark.parametrize("name", VIEW_ENTRIES)
def test_co_opposite_rows_are_the_flip_of_the_coproduct(name):
    """``comul_op_rows`` swaps the legs of each ``delta(e_i)`` in place of
    composing with the n^2-row flip, on a catalog entry and its two doubles."""
    h = get_entry(name).hopf
    for C in (h.coalgebra, drinfeld_double(h).coalgebra, drinfeld_double_tilde(h).coalgebra):
        n = C.dim
        assert as_dense(C.comul_op_rows) == as_dense(compose(C.comul_rows, flip(n, n)))


def test_thm26_golden_gate_still_matches_after_views_are_read():
    """``verify thm2.6`` compares the parsed carrier with the catalog's by ``==``."""
    ax1 = get_entry("ax1")
    act = read(write(bundle_of_entry(ax1))).module_action()
    check_module_algebra(act)  # reads the views of the action, its actor and its carrier
    run_hopf_suite(act.carrier)
    assert act.carrier == ax1.hopf and act.actor == ax1.partner
    assert hash(act.carrier) == hash(ax1.hopf)
