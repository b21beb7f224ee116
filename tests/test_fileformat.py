"""Definition files: round trips, canonical form, parse errors, and a lock
on what ``read`` does with a thousand mutated files.

``algread`` reads the files and ``algfile`` writes them; ``fileformat``'s
dense records (the benchmark's input generator relabels them) are read and
written through them."""

import hashlib
import importlib.util
import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from conftest import dense_field
from homhopf import fileformat
from homhopf.algfile import (
    SCHEMA_VERSION,
    AlgebraFile,
    BlockRecord,
    bundle_of_entry,
    object_record,
    write,
)
from homhopf.algread import read
from homhopf.catalog import get_entry
from homhopf.constructions import (
    drinfeld_double,
    drinfeld_double_tilde,
    dual,
    heisenberg_double,
)
from homhopf.errors import DuplicateEntry, ParseError, RangeError

CATALOG = ["one", "ax1", "kz2", "sweedler_hom", "cyclic:2", "cyclic:5", "s3_inner"]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def relabel_bundle(monkeypatch):
    """``relabel_bundle`` of the benchmark's input generator, ``perfbench/inputs.py``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # it imports its sibling ``workloads``
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.relabel_bundle


def as_tables(bundle) -> AlgebraFile:
    """The ``algfile`` bundle of the tables of a dense ``fileformat`` bundle:
    each object record's ``tables``, and each block record's fields by name."""
    fields = BlockRecord.__match_args__
    blocks = tuple(BlockRecord(*(getattr(b, f) for f in fields)) for b in bundle.blocks)
    return AlgebraFile(bundle.schema_version, tuple(r.tables for r in bundle.objects), blocks)


class TestRoundTrip:
    @pytest.mark.parametrize("name", [*CATALOG, "relabelled sweedler_hom", "relabelled s3_inner"])
    def test_catalog_entries(self, name, relabel_bundle):
        """An entry's dense bundle, as the benchmark's input generator writes
        it (for a relabelled one, after ``dataclasses.replace``), serializes to
        the bytes the CLI's writer makes of the same tables.  ``parse`` reads
        them back into the dense bundle, and ``read`` into those tables and
        objects equal to the bundle's, by ``==`` and by ``hash``."""
        entry = get_entry(name.split()[-1])
        dense = fileformat.bundle_of_entry(entry)
        if name in CATALOG:
            assert as_tables(dense) == bundle_of_entry(entry)
        else:
            dense = relabel_bundle(dense, random.Random(f"3:{name}"))
        tables, data = as_tables(dense), fileformat.serialize(dense)
        assert data == write(tables)
        assert fileformat.parse(data) == dense
        back = read(data)
        assert back == tables and hash(back) == hash(tables)
        for got, want in zip(back.objects, dense.objects):
            assert got.hom_hopf() == want.hom_hopf() and hash(got.hom_hopf()) == hash(want.hom_hopf())
        if dense.blocks_of("action"):
            assert back.module_action() == dense.module_action()
            assert back.comodule_coaction() == dense.comodule_coaction()
        if name in CATALOG:
            assert back.object().hom_hopf() == entry.hopf
            assert hash(back.object().hom_hopf()) == hash(entry.hopf)

    def test_serialization_is_stable(self):
        bundle = fileformat.bundle_of_entry(get_entry("sweedler_hom"))
        data = fileformat.serialize(bundle)
        assert data == fileformat.serialize(fileformat.parse(data)) == write(read(data))

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
            assert read(write(bundle)) == bundle

    def test_realized_objects_survive(self):
        entry = get_entry("sweedler_hom")
        bundle = read(write(bundle_of_entry(entry)))
        assert bundle.object().hom_hopf() == entry.hopf
        assert bundle.rmatrix().entries == entry.rmatrix.entries

    def test_realized_blocks_survive(self):
        entry = get_entry("ax1")
        bundle = read(write(bundle_of_entry(entry)))
        act = bundle.module_action()
        co = bundle.comodule_coaction()
        assert act.act_cells == entry.action.act_cells
        assert co.coact_rows == entry.coaction.coact_rows

    def test_block_shapes_follow_the_named_objects(self):
        """Each block kind takes each index bound from the object it names."""
        bundle = read(write(_mixed_bundle()))
        act = dense_field(bundle.module_action(), "act")
        co = dense_field(bundle.comodule_coaction(), "coact")
        assert (len(act), len(act[0]), len(act[0][0])) == (3, 4, 4)
        assert (len(co), len(co[0]), len(co[0][0])) == (4, 4, 3)
        assert len(bundle.cocycle().gram) == 3 and bundle.cocycle().side == "left"
        assert len(bundle.rmatrix().entries) == 4
        (block,) = bundle.blocks_of("action")
        assert all(act[h][m][k] == v for (h, m, k), v in block.entries)


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
        bundle = read(GOOD)
        assert bundle.object().hom_hopf() == get_entry("ax1").hopf

    def test_comments_and_blank_lines(self):
        text = GOOD.replace("mul 0 0 0 1", "mul 0 0 0 1  # unit square\n")
        assert read(text).object().mul_cells == read(GOOD).object().mul_cells

    def test_index_out_of_range(self):
        bad = GOOD.replace("mul 0 1 1 -1", "mul 0 5 1 -1")
        with pytest.raises(RangeError) as err:
            read(bad)
        assert err.value.line == 7
        assert err.value.column == 7

    @pytest.mark.parametrize(
        "old, new, column",
        [
            ("mul 0 1 1 -1", "mul +0 1 1 -1", 5),
            ("mul 0 1 1 -1", "mul -0 1 1 -1", 5),
            ("mul 0 1 1 -1", "mul 0 0_1 1 -1", 7),
            ("mul 0 1 1 -1", "mul 0 \u0661 1 -1", 7),
            ("mul 0 1 1 -1", "mul 0 1 1 +1", 11),
            ("mul 0 1 1 -1", "mul 0 1 1 -1_0/1_0", 11),
            ("mul 0 1 1 -1", "mul 0 1 1 -\u0661", 11),
            ("homhopf 1", "homhopf +1", 9),
            ("homhopf 1", "homhopf \u0661", 9),
        ],
    )
    def test_numbers_are_ascii_digits(self, old, new, column):
        """Indices and the schema version are ASCII digits, a scalar part may
        also start with '-': spellings that ``write`` never writes are refused."""
        with pytest.raises(ParseError) as err:
            read(GOOD.replace(old, new))
        assert err.value.column == column

    def test_zero_denominator_scalar(self):
        bad = GOOD.replace("alpha 1 1 -1", "alpha 1 1 1/0")
        with pytest.raises(ParseError) as err:
            read(bad)
        assert "denominator" in str(err.value)
        assert err.value.line == 13

    def test_duplicate_entry(self):
        bad = GOOD.replace("mul 0 1 1 -1", "mul 0 0 0 2")
        with pytest.raises(DuplicateEntry):
            read(bad)

    @pytest.mark.parametrize(
        "bad, line",
        [
            (GOOD.replace("mul 0 1 1 -1", "mul 0 1 1 0\nmul 0 1 1 -1"), 8),
            (GOOD + "rmatrix r a\nentry 1 1 0\nentry 1 1 1\nend\n", 21),
        ],
        ids=["object", "block"],
    )
    def test_duplicate_after_a_zero_entry(self, bad, line):
        """A repeated index is an error whatever the first value was."""
        with pytest.raises(DuplicateEntry) as err:
            read(bad)
        assert (err.value.line, err.value.column) == (line, 1)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            read("object a\ndim 1\nend\n")

    def test_wrong_characteristic(self):
        with pytest.raises(ParseError):
            read("homhopf 1\nchar 2\n")

    def test_unclosed_object(self):
        with pytest.raises(ParseError):
            read("homhopf 1\nchar 0\nobject a\ndim 1\nalpha 0 0 1\n")

    def test_unknown_section(self):
        with pytest.raises(ParseError) as err:
            read("homhopf 1\nchar 0\nwidget w\nend\n")
        assert err.value.line == 3

    def test_block_references_unknown_object(self):
        bad = GOOD + "rmatrix r missing\nend\n"
        with pytest.raises(ParseError):
            read(bad)

    def test_basis_length_mismatch(self):
        bad = GOOD.replace("basis 1 x", "basis 1 x y")
        with pytest.raises(ParseError):
            read(bad)

    def test_declared_dim_over_the_limit(self, monkeypatch):
        from homhopf import algread

        monkeypatch.setattr(algread, "MAX_DIM", 3)
        head = "homhopf 1\nchar 0\nobject big\ndim {}\nalpha 0 0 1\nend\n"
        assert read(head.format(3)).object().dim == 3
        assert read(head.format("003")).object().dim == 3
        for declared in ("4", "9" * 5000):
            with pytest.raises(ParseError, match="exceeds the limit"):
                read(head.format(declared))
        for malformed in ("0", "x", "\u00b2"):
            with pytest.raises(ParseError, match="positive integer"):
                read(head.format(malformed))

    def test_declared_dims_together_over_the_limit(self, monkeypatch):
        from homhopf import algread

        monkeypatch.setattr(algread, "MAX_DIM", 3)
        head = "homhopf 1\nchar 0\n"
        obj = "object {}\ndim {}\nalpha 0 0 1\nend\n"
        assert read(head + obj.format("a", 3)).object().dim == 3
        # the sum of dim^3 may reach MAX_DIM^3 = 27: 8 + 8 + 8 + 1 + 1 + 1
        small = "".join(obj.format(f"o{i}", d) for i, d in enumerate((2, 2, 2, 1, 1, 1)))
        assert len(read(head + small).objects) == 6
        for dims in ((3, 3), (3, 1), (1, 3)):
            text = head + "".join(obj.format(f"o{i}", d) for i, d in enumerate(dims))
            with pytest.raises(ParseError, match="sum of dim") as err:
                read(text)
            # refused at the second object's dim line, before its tensors exist
            assert (err.value.line, err.value.column) == (8, 5)

    def test_block_entries_together_over_the_limit(self, monkeypatch):
        from homhopf import algread

        monkeypatch.setattr(algread, "MAX_DIM", 3)
        head = "homhopf 1\nchar 0\nobject a\ndim 3\nalpha 0 0 1\nalpha 1 1 1\nalpha 2 2 1\nend\n"
        cells = [f"entry {h} {m} {k} 1\n" for h, m, k in product(range(3), repeat=3)]

        def actions(counts):
            blocks = (f"action act{i} a a\n" + "".join(cells[:c]) + "end\n" for i, c in enumerate(counts))
            return head + "".join(blocks)

        # the blocks of one file may hold MAX_DIM^3 = 27 entries together
        assert len(read(actions((27,))).blocks) == 1
        assert len(read(actions((9, 9, 9))).blocks) == 3
        for counts in ((27, 1), (10, 10, 8), (1, 27), (27,) * 5):
            text = actions(counts)
            with pytest.raises(ParseError, match=r"^block entries exceed the limit of 3\^3") as err:
                read(text)
            # refused at the 28th entry line
            lines = [n for n, line in enumerate(text.splitlines(), 1) if line.startswith("entry")]
            assert (err.value.line, err.value.column) == (lines[27], 1)

    def test_not_utf8(self):
        with pytest.raises(ParseError):
            read(b"\xff\xfe homhopf")

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
        bundle = read(GOOD)
        with pytest.raises(ParseError, match=f"^file defines no {kind} block$"):
            getattr(bundle, accessor)()


# ---------------------------------------------------------------------------
# Behaviour lock: the outcome of parsing about a thousand mutated exports.
#
# ``parse_outcomes.json`` maps each seeded case to a short digest of what
# ``read`` did with it: the exception type, message, line and column, or
# the sha256 of ``write(read(text))``.  Any change to an error, its
# position or a parsed bundle shows up here.  The fixture is written by
#
#     PYTHONPATH=src python tests/test_fileformat.py
#
# and is only regenerated when a parse outcome change is intended.

OUTCOMES = Path(__file__).with_name("parse_outcomes.json")
MUTATION_CASES = 1000


def _mixed_bundle() -> AlgebraFile:
    """Two objects of different dims (4 and 3) and one block of every kind,
    so a bound taken from the wrong object shows."""
    big, small = "sweedler", "cyc3"
    objects = (
        object_record(big, get_entry("sweedler_hom").hopf),
        object_record(small, get_entry("cyclic:3").hopf),
    )

    def entries(shape):
        cells = [idx for idx in product(*map(range, shape)) if sum(idx) % 3 == 0]
        return tuple((idx, Fraction(sum(idx) + 1, len(idx))) for idx in cells)

    blocks = (
        BlockRecord("action", "act", (small, big), entries((3, 4, 4))),
        BlockRecord("coaction", "coact", (small, big), entries((4, 4, 3))),
        BlockRecord("pairing", "pair", (big, small), entries((4, 3))),
        BlockRecord("cocycle", "sigma", (small, "left"), entries((3, 3))),
        BlockRecord("rmatrix", "r", (big,), entries((4, 4))),
    )
    return AlgebraFile(SCHEMA_VERSION, objects, blocks)


def _mutation_sources() -> dict[str, list[str]]:
    texts = {name: write(bundle_of_entry(get_entry(name))) for name in CATALOG}
    texts["mixed"] = write(_mixed_bundle())
    return {name: data.decode().splitlines() for name, data in texts.items()}


_TOKENS = (
    "0", "1", "2", "3", "4", "-1", "1/2", "-3/4", "2/4", "1/0", "-0", "+1", "1_0", "007",
    "x", "1.5", "99", "", "end", "entry", "mul", "dim", "left", "right", "object",
)
_LINES = (
    "end", "", "   ", "# note", "object extra", "dim 2", "dim 0", "basis a b",
    "entry 0 0 1", "entry 0 0 0 1", "mul 0 0 0 0", "unit 0 1/2", "alpha 0 0 1",
    "rmatrix r2 {main}", "cocycle c {main} left", "cocycle c {main} up",
    "pairing p {main} {main}", "action a {main} {main}", "coaction c {main} {main}",
    "widget w", "homhopf 1", "char 0",
)


def _retokenise(rng: random.Random, line: str) -> str:
    toks = line.split()
    op = rng.randrange(4)
    i = rng.randrange(len(toks) + (op == 2)) if toks else 0
    if op == 0 and toks:
        toks[i] = rng.choice(_TOKENS)
    elif op == 1 and toks:
        del toks[i]
    elif op == 2:
        toks.insert(i, rng.choice(_TOKENS))
    elif toks:
        j = rng.randrange(len(toks))
        toks[i], toks[j] = toks[j], toks[i]
    sep = rng.choice((" ", " ", "  ", "\t"))
    return rng.choice(("", "", " ")) + sep.join(toks)


def mutation_cases():
    """``(case id, text)`` for each seeded mutation of a catalog export:
    one to three lines deleted, duplicated, retokenised or inserted."""
    sources = _mutation_sources()
    names = sorted(sources)
    for seed in range(MUTATION_CASES):
        rng = random.Random(seed)
        name = names[seed % len(names)]
        lines = list(sources[name])
        main = lines[2].split()[1]
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            op = rng.randrange(4)
            at = rng.randrange(len(lines)) if lines else 0
            if op == 0 and lines:
                del lines[at]
            elif op == 1 and lines:
                lines.insert(rng.randrange(len(lines) + 1), lines[at])
            elif op == 2 and lines:
                lines[at] = _retokenise(rng, lines[at])
            else:
                other = sources[rng.choice(names)]
                extra = rng.choice(other) if rng.random() < 0.5 else rng.choice(_LINES)
                lines.insert(rng.randrange(len(lines) + 1), extra.format(main=main))
        yield f"{seed:04d} {name}", "\n".join(lines) + "\n"


def parse_outcome(text: str) -> str:
    """What ``read`` does with ``text``: the error it raises or the
    canonical bytes of the bundle it returns."""
    try:
        data = write(read(text))
    except Exception as exc:  # any exception type is part of the outcome
        line, column = getattr(exc, "line", None), getattr(exc, "column", None)
        return f"{type(exc).__name__}: {exc} @ {line}:{column}"
    return "ok " + hashlib.sha256(data).hexdigest()


def _digest(outcome: str) -> str:
    return hashlib.sha256(outcome.encode()).hexdigest()[:16]


def test_parse_outcomes_are_locked():
    golden = json.loads(OUTCOMES.read_text())
    outcomes = {key: parse_outcome(text) for key, text in mutation_cases()}
    assert sorted(golden) == sorted(outcomes)
    changed = {key: out for key, out in outcomes.items() if _digest(out) != golden[key]}
    assert not changed


if __name__ == "__main__":
    locked = {key: _digest(parse_outcome(text)) for key, text in mutation_cases()}
    OUTCOMES.write_text(json.dumps(locked, indent=0, sort_keys=True) + "\n")
