"""Definition files: round trips, canonical form, parse errors."""

import pytest

from homhopf.catalog import get_entry
from homhopf.constructions import (
    drinfeld_double,
    drinfeld_double_tilde,
    dual,
    heisenberg_double,
)
from homhopf.errors import DuplicateEntry, ParseError, RangeError
from homhopf.fileformat import (
    AlgebraFile,
    SCHEMA_VERSION,
    bundle_of_entry,
    object_record,
    parse,
    serialize,
)

CATALOG = ["one", "ax1", "kz2", "sweedler_hom", "cyclic:2", "cyclic:5", "s3_inner"]


class TestRoundTrip:
    @pytest.mark.parametrize("name", CATALOG)
    def test_catalog_entries(self, name):
        bundle = bundle_of_entry(get_entry(name))
        assert parse(serialize(bundle)) == bundle

    def test_serialization_is_stable(self):
        bundle = bundle_of_entry(get_entry("sweedler_hom"))
        assert serialize(bundle) == serialize(parse(serialize(bundle)))

    @pytest.mark.parametrize("name", ["ax1", "cyclic:3"])
    def test_construction_outputs(self, name):
        h = get_entry(name).hopf
        for label, obj in [
            ("double", drinfeld_double(h)),
            ("dual", dual(h)),
            ("tilde", drinfeld_double_tilde(h)),
            ("heisenberg", heisenberg_double(h)),
        ]:
            bundle = AlgebraFile(SCHEMA_VERSION, (object_record(label, obj),), ())
            assert parse(serialize(bundle)) == bundle

    def test_realized_objects_survive(self):
        entry = get_entry("sweedler_hom")
        bundle = parse(serialize(bundle_of_entry(entry)))
        assert bundle.object().hom_hopf() == entry.hopf
        assert bundle.rmatrix().entries == entry.rmatrix.entries

    def test_realized_blocks_survive(self):
        entry = get_entry("ax1")
        bundle = parse(serialize(bundle_of_entry(entry)))
        act = bundle.module_action()
        co = bundle.comodule_coaction()
        assert act.act == entry.action.act
        assert co.coact == entry.coaction.coact


GOOD = """homhopf 1
char 0
object a
dim 2
basis 1 x
mul 0 0 0 1
mul 0 1 1 -1
mul 1 0 1 -1
comul 0 0 0 1
comul 1 0 1 -1
comul 1 1 0 -1
alpha 0 0 1
alpha 1 1 -1
antipode 0 0 1
antipode 1 1 -1
unit 0 1
counit 0 1
end
"""


class TestParsing:
    def test_good_file(self):
        bundle = parse(GOOD)
        assert bundle.object().hom_hopf() == get_entry("ax1").hopf

    def test_comments_and_blank_lines(self):
        text = GOOD.replace("mul 0 0 0 1", "mul 0 0 0 1  # unit square\n")
        assert parse(text).object().mul == parse(GOOD).object().mul

    def test_index_out_of_range(self):
        bad = GOOD.replace("mul 0 1 1 -1", "mul 0 5 1 -1")
        with pytest.raises(RangeError) as err:
            parse(bad)
        assert err.value.line == 7
        assert err.value.column == 7

    def test_zero_denominator_scalar(self):
        bad = GOOD.replace("alpha 1 1 -1", "alpha 1 1 1/0")
        with pytest.raises(ParseError) as err:
            parse(bad)
        assert "denominator" in str(err.value)
        assert err.value.line == 13

    def test_duplicate_entry(self):
        bad = GOOD.replace("mul 0 1 1 -1", "mul 0 0 0 2")
        with pytest.raises(DuplicateEntry):
            parse(bad)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse("object a\ndim 1\nend\n")

    def test_wrong_characteristic(self):
        with pytest.raises(ParseError):
            parse("homhopf 1\nchar 2\n")

    def test_unclosed_object(self):
        with pytest.raises(ParseError):
            parse("homhopf 1\nchar 0\nobject a\ndim 1\nalpha 0 0 1\n")

    def test_unknown_section(self):
        with pytest.raises(ParseError) as err:
            parse("homhopf 1\nchar 0\nwidget w\nend\n")
        assert err.value.line == 3

    def test_block_references_unknown_object(self):
        bad = GOOD + "rmatrix r missing\nend\n"
        with pytest.raises(ParseError):
            parse(bad)

    def test_basis_length_mismatch(self):
        bad = GOOD.replace("basis 1 x", "basis 1 x y")
        with pytest.raises(ParseError):
            parse(bad)

    def test_declared_dim_over_the_limit(self, monkeypatch):
        from homhopf import fileformat

        monkeypatch.setattr(fileformat, "MAX_DIM", 3)
        head = "homhopf 1\nchar 0\nobject big\ndim {}\nalpha 0 0 1\nend\n"
        assert parse(head.format(3)).object().dim == 3
        assert parse(head.format("003")).object().dim == 3
        for declared in ("4", "9" * 5000):
            with pytest.raises(ParseError, match="exceeds the limit"):
                parse(head.format(declared))
        for malformed in ("0", "x", "\u00b2"):
            with pytest.raises(ParseError, match="positive integer"):
                parse(head.format(malformed))

    def test_declared_dims_together_over_the_limit(self, monkeypatch):
        from homhopf import fileformat

        monkeypatch.setattr(fileformat, "MAX_DIM", 3)
        head = "homhopf 1\nchar 0\n"
        obj = "object {}\ndim {}\nalpha 0 0 1\nend\n"
        assert parse(head + obj.format("a", 3)).object().dim == 3
        # the sum of dim^3 may reach MAX_DIM^3 = 27: 8 + 8 + 8 + 1 + 1 + 1
        small = "".join(obj.format(f"o{i}", d) for i, d in enumerate((2, 2, 2, 1, 1, 1)))
        assert len(parse(head + small).objects) == 6
        for dims in ((3, 3), (3, 1), (1, 3)):
            text = head + "".join(obj.format(f"o{i}", d) for i, d in enumerate(dims))
            with pytest.raises(ParseError, match="sum of dim") as err:
                parse(text)
            # refused at the second object's dim line, before its tensors exist
            assert (err.value.line, err.value.column) == (8, 5)

    def test_not_utf8(self):
        with pytest.raises(ParseError):
            parse(b"\xff\xfe homhopf")

    @pytest.mark.parametrize(
        "accessor, kind",
        [
            ("module_action", "action"),
            ("comodule_coaction", "coaction"),
            ("pairing", "pairing"),
            ("cocycle", "cocycle"),
            ("rmatrix", "rmatrix"),
        ],
    )
    def test_missing_block(self, accessor, kind):
        bundle = parse(GOOD)
        with pytest.raises(ParseError, match=f"^file defines no {kind} block$"):
            getattr(bundle, accessor)()
