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

Unspecified entries are zero; a repeated index tuple is an error (there is no
implicit summation); every index is validated against the declared
dimensions; scalars are exact rationals ``p`` or ``p/q``.  Serialization is
canonical: sections in the order above, entries sorted by index tuple, zero
entries omitted, fractions reduced, so equal objects produce byte-identical
files and parsing a serialized bundle reproduces it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DuplicateEntry, ParseError, RangeError
from .exactlin import (
    Matrix,
    Tensor3,
    Vector,
    format_scalar,
    matrix_from_entries,
    nonzeros,
    parse_scalar,
    tensor3_from_entries,
    vector_from_entries,
)
from .structures import (
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

# Largest accepted ``dim``: an object of dimension n is held as dense n^3
# tensors, so the declared size is checked before anything is allocated.
# The objects of one file together may declare at most MAX_DIM^3 (the sum
# of dim^3), so a file holds no more than one largest object's tensors.
# The largest object the catalog or the constructions produce is 36-dim.
MAX_DIM = 128


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
        return HomAlgebra(self.dim, self.mul, self.unit, self.alpha)

    def hom_coalgebra(self) -> HomCoalgebra:
        if self.comul is None or self.counit is None:
            raise ParseError(f"object {self.name!r} has no coalgebra structure")
        return HomCoalgebra(self.dim, self.comul, self.counit, self.alpha)

    def hom_bialgebra(self) -> HomBialgebra:
        return HomBialgebra(self.hom_algebra(), self.hom_coalgebra())

    def hom_hopf(self, bialgebra: HomBialgebra | None = None) -> HomHopfAlgebra:
        """The Hopf object, on ``bialgebra`` if given (built from this record)."""
        if self.antipode is None:
            raise ParseError(f"object {self.name!r} has no antipode")
        return HomHopfAlgebra(bialgebra or self.hom_bialgebra(), self.antipode)


@dataclass(frozen=True)
class BlockRecord:
    kind: str
    name: str
    refs: tuple[str, ...]
    entries: tuple[tuple[tuple[int, ...], Fraction], ...]


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

    def _first_block(self, kind: str) -> BlockRecord:
        blocks = self.blocks_of(kind)
        if not blocks:
            raise ParseError(f"file defines no {kind} block")
        return blocks[0]

    def module_action(self, block: BlockRecord | None = None) -> ModuleAction:
        block = block or self._first_block("action")
        actor = self.object(block.refs[0])
        carrier = self.object(block.refs[1])
        act = tensor3_from_entries(
            (actor.dim, carrier.dim, carrier.dim), {idx: v for idx, v in block.entries}
        )
        return ModuleAction(_richest(actor), _richest(carrier), act)

    def comodule_coaction(self, block: BlockRecord | None = None) -> ComoduleCoaction:
        block = block or self._first_block("coaction")
        coactor = self.object(block.refs[0])
        carrier = self.object(block.refs[1])
        coact = tensor3_from_entries(
            (carrier.dim, carrier.dim, coactor.dim), {idx: v for idx, v in block.entries}
        )
        return ComoduleCoaction(_richest(coactor), _richest(carrier), coact)

    def pairing(self, block: BlockRecord | None = None) -> PairingForm:
        block = block or self._first_block("pairing")
        left = self.object(block.refs[0]).hom_hopf()
        right = self.object(block.refs[1]).hom_hopf()
        gram = matrix_from_entries(
            left.dim, right.dim, {(i, j): v for (i, j), v in block.entries}
        )
        return PairingForm(left, right, gram)

    def cocycle(self, block: BlockRecord | None = None) -> TwoCocycle:
        block = block or self._first_block("cocycle")
        host = self.object(block.refs[0]).hom_bialgebra()
        gram = matrix_from_entries(
            host.dim, host.dim, {(i, j): v for (i, j), v in block.entries}
        )
        return TwoCocycle(host, gram, block.refs[1])

    def rmatrix(self, block: BlockRecord | None = None) -> RMatrix:
        block = block or self._first_block("rmatrix")
        host = self.object(block.refs[0]).hom_bialgebra()
        entries = matrix_from_entries(
            host.dim, host.dim, {(i, j): v for (i, j), v in block.entries}
        )
        return RMatrix(host, entries)


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

_BLOCK_ARITY = {"action": 3, "coaction": 3, "pairing": 3, "cocycle": 3, "rmatrix": 2}
_OBJ_SECTIONS = {"mul": 3, "comul": 3, "alpha": 2, "antipode": 2, "unit": 1, "counit": 1}


class _Cursor:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next_tokens(self):
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            stripped = line.split("#", 1)[0]
            if stripped.strip():
                yield self.pos, stripped


def _token_column(line_text: str, token_index: int) -> int:
    col = 0
    seen = 0
    i = 0
    text = line_text.split("#", 1)[0]
    while i < len(text):
        if not text[i].isspace():
            start = i
            while i < len(text) and not text[i].isspace():
                i += 1
            if seen == token_index:
                return start + 1
            seen += 1
        else:
            i += 1
    return len(line_text) + 1


def parse(data: bytes | str) -> AlgebraFile:
    """Parse and fully validate a definition file."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from None
    else:
        text = data

    cursor = _Cursor(text)
    stream = cursor.next_tokens()

    def fail(message, lineno, tokens_line, token_index):
        raise ParseError(message, lineno, _token_column(tokens_line, token_index))

    try:
        lineno, line = next(stream)
    except StopIteration:
        raise ParseError("empty file") from None
    toks = line.split()
    if len(toks) != 2 or toks[0] != "homhopf":
        fail("expected header 'homhopf <schema-version>'", lineno, line, 0)
    try:
        version = int(toks[1])
    except ValueError:
        fail(f"bad schema version {toks[1]!r}", lineno, line, 1)
    if version != SCHEMA_VERSION:
        fail(f"unsupported schema version {version}", lineno, line, 1)

    try:
        lineno, line = next(stream)
    except StopIteration:
        raise ParseError("missing 'char 0' line") from None
    toks = line.split()
    if toks != ["char", "0"]:
        fail("expected 'char 0' (only characteristic zero is supported)", lineno, line, 0)

    objects: list[ObjectRecord] = []
    blocks: list[BlockRecord] = []
    dims: dict[str, int] = {}
    declared = 0  # the sum of dim^3 over the objects so far

    def parse_scalar_tok(tok, lineno, line, ti) -> Fraction:
        try:
            return parse_scalar(tok)
        except ValueError as exc:
            raise ParseError(str(exc), lineno, _token_column(line, ti)) from None

    def parse_index(tok, bound, lineno, line, ti) -> int:
        try:
            idx = int(tok)
        except ValueError:
            fail(f"bad index {tok!r}", lineno, line, ti)
        if not (0 <= idx < bound):
            raise RangeError(
                f"index {idx} out of range for dimension {bound}",
                lineno,
                _token_column(line, ti),
            )
        return idx

    for lineno, line in stream:
        toks = line.split()
        head = toks[0]
        if head == "object":
            if len(toks) != 2:
                fail("expected 'object <name>'", lineno, line, 0)
            name = toks[1]
            if name in dims:
                raise DuplicateEntry(f"object {name!r} defined twice", lineno, 1)
            dim = None
            basis: tuple[str, ...] | None = None
            sparse: dict[str, dict[tuple[int, ...], Fraction]] = {
                key: {} for key in _OBJ_SECTIONS
            }
            closed = False
            for lineno2, line2 in stream:
                toks2 = line2.split()
                head2 = toks2[0]
                if head2 == "end":
                    closed = True
                    break
                if head2 == "dim":
                    if dim is not None:
                        raise DuplicateEntry("dim declared twice", lineno2, 1)
                    text = toks2[1].lstrip("0") if len(toks2) == 2 else ""
                    if not (text.isascii() and text.isdigit()):
                        fail("expected 'dim <positive integer>'", lineno2, line2, 1)
                    # compare lengths first: int() refuses strings of thousands of digits
                    if len(text) > len(str(MAX_DIM)) or int(text) > MAX_DIM:
                        fail(f"declared dim exceeds the limit of {MAX_DIM}", lineno2, line2, 1)
                    dim = int(text)
                    declared += dim**3
                    if declared > MAX_DIM**3:
                        fail(f"sum of dim^3 exceeds the limit of {MAX_DIM}^3", lineno2, line2, 1)
                    continue
                if head2 == "basis":
                    if basis is not None:
                        raise DuplicateEntry("basis declared twice", lineno2, 1)
                    basis = tuple(toks2[1:])
                    continue
                if head2 not in _OBJ_SECTIONS:
                    fail(f"unknown object line {head2!r}", lineno2, line2, 0)
                if dim is None:
                    fail("dim must be declared before entries", lineno2, line2, 0)
                arity = _OBJ_SECTIONS[head2]
                if len(toks2) != arity + 2:
                    fail(
                        f"'{head2}' takes {arity} indices and one scalar",
                        lineno2,
                        line2,
                        0,
                    )
                idx = tuple(
                    parse_index(toks2[1 + t], dim, lineno2, line2, 1 + t)
                    for t in range(arity)
                )
                value = parse_scalar_tok(toks2[-1], lineno2, line2, arity + 1)
                if idx in sparse[head2]:
                    raise DuplicateEntry(
                        f"duplicate {head2} entry at {idx}", lineno2, 1
                    )
                if value:
                    sparse[head2][idx] = value
            if not closed:
                raise ParseError(f"object {name!r} not closed by 'end'", lineno, 1)
            if dim is None:
                raise ParseError(f"object {name!r} has no dim", lineno, 1)
            if basis is None:
                basis = tuple(f"e{i}" for i in range(dim))
            if len(basis) != dim:
                raise ParseError(
                    f"object {name!r} basis has {len(basis)} labels for dim {dim}",
                    lineno,
                    1,
                )
            if not sparse["alpha"]:
                raise ParseError(f"object {name!r} has no structure map", lineno, 1)
            has_algebra = bool(sparse["mul"]) or bool(sparse["unit"])
            has_coalgebra = bool(sparse["comul"]) or bool(sparse["counit"])
            record = ObjectRecord(
                name,
                dim,
                basis,
                matrix_from_entries(dim, dim, sparse["alpha"]),
                mul=tensor3_from_entries((dim, dim, dim), sparse["mul"])
                if has_algebra
                else None,
                unit=vector_from_entries(dim, {i: v for (i,), v in sparse["unit"].items()})
                if has_algebra
                else None,
                comul=tensor3_from_entries((dim, dim, dim), sparse["comul"])
                if has_coalgebra
                else None,
                counit=vector_from_entries(dim, {i: v for (i,), v in sparse["counit"].items()})
                if has_coalgebra
                else None,
                antipode=matrix_from_entries(dim, dim, sparse["antipode"])
                if sparse["antipode"]
                else None,
            )
            objects.append(record)
            dims[name] = dim
            continue
        if head in _BLOCK_ARITY:
            want = _BLOCK_ARITY[head]
            if len(toks) != want + 1:
                fail(f"'{head}' header takes a name and {want - 1} arguments", lineno, line, 0)
            name = toks[1]
            refs = tuple(toks[2:])
            if head == "cocycle":
                if refs[1] not in ("left", "right"):
                    fail("cocycle side must be 'left' or 'right'", lineno, line, 3)
                ref_objs = refs[:1]
            else:
                ref_objs = refs
            for ti, ref in enumerate(ref_objs):
                if ref not in dims:
                    fail(f"unknown object {ref!r}", lineno, line, 2 + ti)
            if head == "action":
                bounds = (dims[refs[0]], dims[refs[1]], dims[refs[1]])
            elif head == "coaction":
                bounds = (dims[refs[1]], dims[refs[1]], dims[refs[0]])
            elif head == "pairing":
                bounds = (dims[refs[0]], dims[refs[1]])
            else:
                bounds = (dims[refs[0]], dims[refs[0]])
            entries: dict[tuple[int, ...], Fraction] = {}
            closed = False
            for lineno2, line2 in stream:
                toks2 = line2.split()
                if toks2[0] == "end":
                    closed = True
                    break
                if toks2[0] != "entry":
                    fail(f"expected 'entry' or 'end' in {head} block", lineno2, line2, 0)
                if len(toks2) != len(bounds) + 2:
                    fail(
                        f"'{head}' entries take {len(bounds)} indices and one scalar",
                        lineno2,
                        line2,
                        0,
                    )
                idx = tuple(
                    parse_index(toks2[1 + t], bounds[t], lineno2, line2, 1 + t)
                    for t in range(len(bounds))
                )
                value = parse_scalar_tok(toks2[-1], lineno2, line2, len(bounds) + 1)
                if idx in entries:
                    raise DuplicateEntry(f"duplicate entry at {idx}", lineno2, 1)
                if value:
                    entries[idx] = value
            if not closed:
                raise ParseError(f"{head} block {name!r} not closed by 'end'", lineno, 1)
            blocks.append(
                BlockRecord(head, name, refs, tuple(sorted(entries.items())))
            )
            continue
        fail(f"unknown section {head!r}", lineno, line, 0)

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
