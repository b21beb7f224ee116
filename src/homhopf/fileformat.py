"""The definition-file format: parsing, validation, canonical serialization.

A file is UTF-8 text.  The first line is ``homhopf <schema-version>`` and the
second ``char 0`` (only characteristic zero is supported).  The rest is a
sequence of sections, each closed by ``end``:

    object <name>
    dim <n>
    basis <label> ...
    mul <i> <j> <k> <p/q>        e_i . e_j gets p/q times e_k
    comul <i> <j> <k> <p/q>      delta(e_i) gets p/q times e_j (x) e_k
    alpha <i> <j> <p/q>
    antipode <i> <j> <p/q>
    unit <i> <p/q>
    counit <i> <p/q>
    end

    action <name> <actor-object> <carrier-object>      entry h m m' p/q
    coaction <name> <coactor-object> <carrier-object>  entry m m' c p/q
    pairing <name> <left-object> <right-object>        entry i j p/q
    cocycle <name> <host-object> <left|right>          entry i j p/q
    rmatrix <name> <host-object>                       entry i j p/q

Unspecified entries are zero; a repeated index tuple is an error whatever
its values, zero included (there is no implicit summation); every index is
validated against the declared dimensions; scalars are exact rationals ``p``
or ``p/q``.  Serialization is
canonical: sections in the order above, entries sorted by index tuple, zero
entries omitted, fractions reduced, so equal objects produce byte-identical
files and parsing a serialized bundle reproduces it exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DuplicateEntry, ParseError, RangeError
from .exactlin import (
    Matrix,
    Tensor3,
    Vector,
    cells,
    dense_cells,
    flatten_pair,
    format_scalar,
    matrix_from_entries,
    nonzeros,
    pair_cells,
    parse_scalar,
    rows,
    rows_from_entries,
    vector_from_entries,
)
from .structures import (
    MAX_DIM,
    ComoduleCoaction,
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopfAlgebra,
    ModuleAction,
    PairingForm,
    RMatrix,
    TwoCocycle,
)

SCHEMA_VERSION = 1

# The declared ``dim`` is checked against ``MAX_DIM`` before anything is
# allocated.  The objects of one file together may declare at most MAX_DIM^3
# (the sum of dim^3), so a file holds no more than one largest object's tensors.

# The file records stay dataclasses of dense fields, unlike the
# ``structures.Record`` value types: the benchmark's input generator
# (``perfbench/inputs.py``) derives variant files from them with
# ``dataclasses.replace``.  An object a record builds converts its dense
# fields to its tables.


@dataclass(frozen=True)
class ObjectRecord:
    name: str
    dim: int
    basis: tuple[str, ...]
    alpha: Matrix
    mul: Tensor3 | None = None
    unit: Vector | None = None
    comul: Tensor3 | None = None
    counit: Vector | None = None
    antipode: Matrix | None = None

    def hom_algebra(self) -> HomAlgebra:
        if self.mul is None or self.unit is None:
            raise ParseError(f"object {self.name!r} has no algebra structure")
        return HomAlgebra(self.dim, cells(self.mul), self.unit, self.alpha)

    def hom_coalgebra(self, alpha_inverse: Matrix | None = None) -> HomCoalgebra:
        """The coalgebra, with the inverse of its structure map if it is known."""
        if self.comul is None or self.counit is None:
            raise ParseError(f"object {self.name!r} has no coalgebra structure")
        comul_rows = rows(map(flatten_pair, self.comul))
        return HomCoalgebra(self.dim, comul_rows, self.counit, self.alpha, alpha_inverse=alpha_inverse)

    def hom_bialgebra(self) -> HomBialgebra:
        algebra = self.hom_algebra()
        return HomBialgebra(algebra, self.hom_coalgebra(algebra.alpha_inverse))

    def hom_hopf(self, bialgebra: HomBialgebra | None = None) -> HomHopfAlgebra:
        """The Hopf object, on ``bialgebra`` if given (built from this record)."""
        if self.antipode is None:
            raise ParseError(f"object {self.name!r} has no antipode")
        return HomHopfAlgebra(bialgebra or self.hom_bialgebra(), rows(self.antipode))


@dataclass(frozen=True)
class BlockRecord:
    kind: str
    name: str
    refs: tuple[str, ...]
    entries: tuple[tuple[tuple[int, ...], Fraction], ...]


# For each block kind, the position in the block's object references of the
# object whose dim bounds each entry index: an action entry ``h m m'`` runs
# over (actor, carrier, carrier), a coaction entry ``m m' c`` over (carrier,
# carrier, coactor).  A block names max(positions) + 1 objects; a cocycle
# also names its side.
_BLOCK_POSITIONS = {
    "action": (0, 1, 1),
    "coaction": (1, 1, 0),
    "pairing": (0, 1),
    "cocycle": (0, 0),
    "rmatrix": (0, 0),
}


@dataclass(frozen=True)
class AlgebraFile:
    schema_version: int
    objects: tuple[ObjectRecord, ...] = ()
    blocks: tuple[BlockRecord, ...] = ()

    @property
    def name(self) -> str:
        return self.objects[0].name if self.objects else ""

    @property
    def dim(self) -> int:
        return self.objects[0].dim if self.objects else 0

    def object(self, name: str | None = None) -> ObjectRecord:
        if name is None:
            if not self.objects:
                raise ParseError("file defines no objects")
            return self.objects[0]
        for rec in self.objects:
            if rec.name == name:
                return rec
        raise ParseError(f"no object named {name!r}")

    def blocks_of(self, kind: str) -> tuple[BlockRecord, ...]:
        return tuple(b for b in self.blocks if b.kind == kind)

    def _block(self, kind: str, block: BlockRecord | None):
        """``block`` (by default the first of ``kind``), the objects it names
        and its entries as a dense matrix or the rows of a rank-3 tensor."""
        if block is None:
            blocks = self.blocks_of(kind)
            if not blocks:
                raise ParseError(f"file defines no {kind} block")
            block = blocks[0]
        positions = _BLOCK_POSITIONS[kind]
        objs = tuple(self.object(ref) for ref in block.refs[: max(positions) + 1])
        shape = tuple(objs[p].dim for p in positions)
        entries = dict(block.entries)
        if len(shape) == 3:
            return block, objs, rows_from_entries(shape, entries)
        return block, objs, matrix_from_entries(*shape, entries)

    def module_action(self, block: BlockRecord | None = None) -> ModuleAction:
        _, (actor, carrier), act = self._block("action", block)
        return ModuleAction(_richest(actor), _richest(carrier), pair_cells(act, carrier.dim))

    def comodule_coaction(self, block: BlockRecord | None = None) -> ComoduleCoaction:
        _, (coactor, carrier), coact = self._block("coaction", block)
        return ComoduleCoaction(_richest(coactor), _richest(carrier), coact)

    def pairing(self, block: BlockRecord | None = None) -> PairingForm:
        _, (left, right), gram = self._block("pairing", block)
        return PairingForm(left.hom_hopf(), right.hom_hopf(), gram)

    def cocycle(self, block: BlockRecord | None = None) -> TwoCocycle:
        block, (host,), gram = self._block("cocycle", block)
        return TwoCocycle(host.hom_bialgebra(), gram, block.refs[1])

    def rmatrix(self, block: BlockRecord | None = None) -> RMatrix:
        _, (host,), entries = self._block("rmatrix", block)
        return RMatrix(host.hom_bialgebra(), entries)


def _richest(rec: ObjectRecord):
    """The most structured realization an object record supports."""
    if rec.antipode is not None and rec.mul is not None and rec.comul is not None:
        return rec.hom_hopf()
    if rec.mul is not None and rec.comul is not None:
        return rec.hom_bialgebra()
    if rec.mul is not None:
        return rec.hom_algebra()
    return rec.hom_coalgebra()


# ---------------------------------------------------------------------------
# parsing

_ENTRY_ARITY = {"mul": 3, "comul": 3, "alpha": 2, "antipode": 2, "unit": 1, "counit": 1}


def _tensor(dim: int, entries: dict) -> Tensor3:
    """The dense rank-3 tensor of dimension ``dim`` with the nonzero ``entries``, its zero rows shared."""
    return dense_cells(pair_cells(rows_from_entries((dim,) * 3, entries), dim))


def _lines(text: str):
    """``(lineno, text, tokens)`` for each line holding a token, comments cut."""
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0]
        tokens = line.split()
        if tokens:
            yield lineno, line, tokens


def _token_column(text: str, index: int) -> int:
    """The 1-based column of token ``index`` of ``text``, or one past its end."""
    starts = [m.start() + 1 for m in re.finditer(r"\S+", text)]
    return starts[index] if index < len(starts) else len(text) + 1


def _natural(token: str) -> int:
    """An index or the schema version: ASCII digits only (``int`` also takes ``+``, ``_``)."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(token)
    return int(token)


def parse(data: bytes | str) -> AlgebraFile:
    """Parse and fully validate a definition file."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from None
    stream = _lines(data)

    def fail(message, line, token, error=ParseError):
        raise error(message, line[0], _token_column(line[1], token))

    def body(section: str, start: int):
        """The lines of the section opened on line ``start``, up to its ``end``."""
        for line in stream:
            if line[2][0] == "end":
                return
            yield line
        raise ParseError(f"{section} not closed by 'end'", start, 1)

    def entry(line, bounds, table, takes: str, duplicate: str) -> None:
        """Read ``<keyword> <index>... <scalar>`` into ``table``, zero values
        included, so a repeated index is refused whatever its first value."""
        toks = line[2]
        if len(toks) != len(bounds) + 2:
            fail(f"{takes} {len(bounds)} indices and one scalar", line, 0)
        idx = []
        for t, bound in enumerate(bounds, 1):
            try:
                i = _natural(toks[t])
            except ValueError:
                fail(f"bad index {toks[t]!r}", line, t)
            if not 0 <= i < bound:
                fail(f"index {i} out of range for dimension {bound}", line, t, RangeError)
            idx.append(i)
        try:
            value = parse_scalar(toks[-1])
        except ValueError as exc:
            fail(str(exc), line, len(bounds) + 1)
        idx = tuple(idx)
        if idx in table:
            raise DuplicateEntry(f"{duplicate} at {idx}", line[0], 1)
        table[idx] = value

    header = next(stream, None)
    if header is None:
        raise ParseError("empty file")
    toks = header[2]
    if len(toks) != 2 or toks[0] != "homhopf":
        fail("expected header 'homhopf <schema-version>'", header, 0)
    try:
        version = _natural(toks[1])
    except ValueError:
        fail(f"bad schema version {toks[1]!r}", header, 1)
    if version != SCHEMA_VERSION:
        fail(f"unsupported schema version {version}", header, 1)
    char = next(stream, None)
    if char is None:
        raise ParseError("missing 'char 0' line")
    if char[2] != ["char", "0"]:
        fail("expected 'char 0' (only characteristic zero is supported)", char, 0)

    objects: list[ObjectRecord] = []
    blocks: list[BlockRecord] = []
    dims: dict[str, int] = {}
    declared = 0  # the sum of dim^3 over the objects so far

    for line in stream:
        lineno, _, (head, *args) = line
        if head == "object":
            if len(args) != 1:
                fail("expected 'object <name>'", line, 0)
            name = args[0]
            if name in dims:
                raise DuplicateEntry(f"object {name!r} defined twice", lineno, 1)
            dim = basis = None
            tables: dict[str, dict] = {key: {} for key in _ENTRY_ARITY}
            for item in body(f"object {name!r}", lineno):
                key, *values = item[2]
                if key == "dim":
                    if dim is not None:
                        raise DuplicateEntry("dim declared twice", item[0], 1)
                    digits = values[0].lstrip("0") if len(values) == 1 else ""
                    if not (digits.isascii() and digits.isdigit()):
                        fail("expected 'dim <positive integer>'", item, 1)
                    # compare lengths first: int() refuses strings of thousands of digits
                    if len(digits) > len(str(MAX_DIM)) or int(digits) > MAX_DIM:
                        fail(f"declared dim exceeds the limit of {MAX_DIM}", item, 1)
                    dim = int(digits)
                    declared += dim**3
                    if declared > MAX_DIM**3:
                        fail(f"sum of dim^3 exceeds the limit of {MAX_DIM}^3", item, 1)
                elif key == "basis":
                    if basis is not None:
                        raise DuplicateEntry("basis declared twice", item[0], 1)
                    basis = tuple(values)
                elif key not in _ENTRY_ARITY:
                    fail(f"unknown object line {key!r}", item, 0)
                elif dim is None:
                    fail("dim must be declared before entries", item, 0)
                else:
                    bounds = (dim,) * _ENTRY_ARITY[key]
                    entry(item, bounds, tables[key], f"'{key}' takes", f"duplicate {key} entry")
            if dim is None:
                raise ParseError(f"object {name!r} has no dim", lineno, 1)
            if basis is None:
                basis = tuple(f"e{i}" for i in range(dim))
            if len(basis) != dim:
                raise ParseError(
                    f"object {name!r} basis has {len(basis)} labels for dim {dim}", lineno, 1
                )
            nz = {key: {idx: v for idx, v in table.items() if v} for key, table in tables.items()}
            if not nz["alpha"]:
                raise ParseError(f"object {name!r} has no structure map", lineno, 1)
            algebra = nz["mul"] or nz["unit"]
            coalgebra = nz["comul"] or nz["counit"]
            record = ObjectRecord(
                name,
                dim,
                basis,
                matrix_from_entries(dim, dim, nz["alpha"]),
                mul=_tensor(dim, nz["mul"]) if algebra else None,
                unit=vector_from_entries(dim, {i: v for (i,), v in nz["unit"].items()})
                if algebra
                else None,
                comul=_tensor(dim, nz["comul"]) if coalgebra else None,
                counit=vector_from_entries(dim, {i: v for (i,), v in nz["counit"].items()})
                if coalgebra
                else None,
                antipode=matrix_from_entries(dim, dim, nz["antipode"]) if nz["antipode"] else None,
            )
            objects.append(record)
            dims[name] = dim
        elif head in _BLOCK_POSITIONS:
            positions = _BLOCK_POSITIONS[head]
            named = max(positions) + 1
            wanted = named + (head == "cocycle")
            if len(args) != 1 + wanted:
                fail(f"'{head}' header takes a name and {wanted} arguments", line, 0)
            name, refs = args[0], tuple(args[1:])
            if head == "cocycle" and refs[1] not in ("left", "right"):
                fail("cocycle side must be 'left' or 'right'", line, 3)
            for t, ref in enumerate(refs[:named], 2):
                if ref not in dims:
                    fail(f"unknown object {ref!r}", line, t)
            bounds = tuple(dims[refs[p]] for p in positions)
            table: dict = {}
            for item in body(f"{head} block {name!r}", lineno):
                if item[2][0] != "entry":
                    fail(f"expected 'entry' or 'end' in {head} block", item, 0)
                entry(item, bounds, table, f"'{head}' entries take", "duplicate entry")
            entries = tuple(sorted((idx, v) for idx, v in table.items() if v))
            blocks.append(BlockRecord(head, name, refs, entries))
        else:
            fail(f"unknown section {head!r}", line, 0)

    return AlgebraFile(version, tuple(objects), tuple(blocks))


# ---------------------------------------------------------------------------
# serialization


def _emit_entries(lines, keyword, indexed):
    for idx, value in indexed:
        if value:
            lines.append(f"{keyword} {' '.join(str(i) for i in idx)} {format_scalar(value)}")


def _items(dense) -> list[tuple[tuple[int, ...], Fraction]]:
    """The nonzero entries of a vector, matrix or rank-3 tensor with their
    index tuples, in sorted (row-major) order."""
    if dense and isinstance(dense[0], tuple):
        return [((i, *idx), c) for i, sub in enumerate(dense) for idx, c in _items(sub)]
    return [((i,), c) for i, c in nonzeros(dense)]


def serialize(file: AlgebraFile) -> bytes:
    """Canonical text form: fixed section order, sorted entries, reduced
    fractions.  Parsing the output reproduces ``file`` exactly."""
    lines = [f"homhopf {file.schema_version}", "char 0"]
    for rec in file.objects:
        lines.append(f"object {rec.name}")
        lines.append(f"dim {rec.dim}")
        lines.append("basis " + " ".join(rec.basis))
        for keyword in ("mul", "comul", "alpha", "antipode", "unit", "counit"):
            dense = getattr(rec, keyword)
            if dense is not None:
                _emit_entries(lines, keyword, _items(dense))
        lines.append("end")
    for block in file.blocks:
        lines.append(f"{block.kind} {block.name} {' '.join(block.refs)}")
        _emit_entries(lines, "entry", block.entries)
        lines.append("end")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# building records from structures


def object_record(name: str, obj, basis: tuple[str, ...] | None = None) -> ObjectRecord:
    """Wrap a structure object into a serializable record."""
    dim = obj.dim
    if basis is None:
        basis = tuple(f"e{i}" for i in range(dim))
    mul = unit = comul = counit = antipode = None
    if isinstance(obj, (HomAlgebra, HomBialgebra, HomHopfAlgebra)):
        mul, unit = obj.mul, obj.unit
    if isinstance(obj, (HomCoalgebra, HomBialgebra, HomHopfAlgebra)):
        comul, counit = obj.comul, obj.counit
    if isinstance(obj, HomHopfAlgebra):
        antipode = obj.antipode
    return ObjectRecord(name, dim, basis, obj.alpha, mul, unit, comul, counit, antipode)


def block_record(kind: str, name: str, refs: tuple[str, ...], dense) -> BlockRecord:
    return BlockRecord(kind, name, refs, tuple(_items(dense)))


def bundle_of_entry(entry) -> AlgebraFile:
    """The canonical file bundle for a catalog entry."""
    objects = [object_record(_safe_name(entry.name), entry.hopf, entry.basis)]
    blocks: list[BlockRecord] = []
    main = objects[0].name
    if entry.partner is not None:
        partner_name = main + "_partner"
        objects.append(object_record(partner_name, entry.partner, entry.partner_basis))
        if entry.action is not None:
            blocks.append(block_record("action", "act", (partner_name, main), entry.action.act))
        if entry.coaction is not None:
            blocks.append(
                block_record("coaction", "coact", (main, partner_name), entry.coaction.coact)
            )
    if entry.rmatrix is not None:
        blocks.append(block_record("rmatrix", "r", (main,), entry.rmatrix.entries))
    return AlgebraFile(SCHEMA_VERSION, tuple(objects), tuple(blocks))


def _safe_name(name: str) -> str:
    return name.replace(":", "")
