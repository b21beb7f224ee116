"""The definition-file format: reading, validation, canonical writing.

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
or ``p/q``.  Writing is canonical: sections in the order above, entries
sorted by index tuple, zero entries omitted, fractions reduced, so equal
objects produce byte-identical files and ``read(write(x)) == x`` exactly.

``read`` puts the entries straight into the sparse tables the domain
objects take (``mul_cells``, ``comul_rows``, the rows of ``alpha`` and of
the antipode, a block's sorted entries), and ``write`` emits them from those
tables, so neither makes a dense tensor or matrix.  A record keeps the
``unit`` and ``counit`` lines as sparse vectors; ``hom_algebra`` and
``hom_coalgebra`` make them the maps ``eta: k -> A`` and ``eps: C -> k``,
and ``object_record`` takes them back from the maps.  The records are
``structures.Record`` value types.
"""

from __future__ import annotations

import re
from functools import cached_property

from .errors import DuplicateEntry, ParseError, RangeError
from .exactlin import (
    Scalar, Sparse, SparseMatrix, SparseTensor3, format_scalar, pair_cells, parse_scalar,
    rows_from_entries, transpose_rows,
)
from .structures import (
    MAX_DIM, ComoduleCoaction, HomAlgebra, HomBialgebra, HomCoalgebra, HomHopfAlgebra,
    ModuleAction, PairingForm, Record, RMatrix, TwoCocycle, algebra_of, coalgebra_of,
)

SCHEMA_VERSION = 1

# The declared ``dim`` is checked against ``MAX_DIM`` before anything is
# allocated.  An object holds at most as many entries as its tables have cells
# (indices are range-checked and never repeated), and the objects of one file
# together may declare at most MAX_DIM^3 (the sum of dim^3).  The entries of
# all the blocks of one file count against one more budget of MAX_DIM^3, so a
# file holds at most 7 * MAX_DIM^3 entries (two tables of n^3 cells, two of
# n^2 and two of n per object, and the blocks).


class ObjectRecord(Record):
    """An object of a file, and the structures it realizes from its tables
    ``mul_cells``, ``unit``, ``comul_rows``, ``counit`` and ``antipode_rows``
    (``None`` where the object has no such structure), its ``dim``, the rows
    ``alpha`` of its structure map and its ``name``."""

    name: str
    dim: int
    basis: tuple[str, ...]
    alpha: SparseMatrix
    mul_cells: SparseTensor3 | None = None
    unit: Sparse | None = None
    comul_rows: SparseMatrix | None = None
    counit: Sparse | None = None
    antipode_rows: SparseMatrix | None = None

    def hom_algebra(self) -> HomAlgebra:
        if self.mul_cells is None or self.unit is None:
            raise ParseError(f"object {self.name!r} has no algebra structure")
        return HomAlgebra(self.dim, self.mul_cells, (self.unit,), self.alpha)

    def hom_coalgebra(self, alpha_inverse: SparseMatrix | None = None) -> HomCoalgebra:
        """The coalgebra, with the inverse of its structure map if it is known."""
        if self.comul_rows is None or self.counit is None:
            raise ParseError(f"object {self.name!r} has no coalgebra structure")
        counit = transpose_rows((self.counit,))
        return HomCoalgebra(self.dim, self.comul_rows, counit, self.alpha, alpha_inverse=alpha_inverse)

    def hom_bialgebra(self) -> HomBialgebra:
        """The bialgebra, built once and kept with the record, as ``hom_hopf()``
        is: every block naming the object shares them."""
        return self._bialgebra

    def hom_hopf(self) -> HomHopfAlgebra:
        return self._hopf

    @cached_property
    def _bialgebra(self) -> HomBialgebra:
        algebra = self.hom_algebra()
        return HomBialgebra(algebra, self.hom_coalgebra(algebra.alpha_inverse))

    @cached_property
    def _hopf(self) -> HomHopfAlgebra:
        if self.antipode_rows is None:
            raise ParseError(f"object {self.name!r} has no antipode")
        return HomHopfAlgebra(self.hom_bialgebra(), self.antipode_rows)


class BlockRecord(Record):
    kind: str
    name: str
    refs: tuple[str, ...]
    entries: tuple[tuple[tuple[int, ...], Scalar], ...]


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


class Sections:
    """A bundle's objects and blocks by name and kind, and the structures
    its blocks realize, read from its ``objects`` and ``blocks``: an action
    or a coaction on the Hom-Hopf objects it names (the bicrossproduct data),
    a pairing of two Hom-Hopf objects, a cocycle or an R-matrix on a
    Hom-bialgebra."""

    def object(self, name: str | None = None):
        if name is None:
            if not self.objects:
                raise ParseError("file defines no objects")
            return self.objects[0]
        for rec in self.objects:
            if rec.name == name:
                return rec
        raise ParseError(f"no object named {name!r}")

    def blocks_of(self, kind: str) -> tuple:
        return tuple(b for b in self.blocks if b.kind == kind)

    def _block(self, kind: str, block):
        """``block`` (by default the first of ``kind``), the objects it names
        and its entries as the rows of a matrix or of a rank-3 tensor."""
        if block is None:
            blocks = self.blocks_of(kind)
            if not blocks:
                raise ParseError(f"file defines no {kind} block")
            block = blocks[0]
        positions = _BLOCK_POSITIONS[kind]
        objs = tuple(self.object(ref) for ref in block.refs[: max(positions) + 1])
        shape = tuple(objs[p].dim for p in positions)
        return block, objs, rows_from_entries(shape, dict(block.entries))

    def module_action(self, block=None) -> ModuleAction:
        _, (actor, carrier), act = self._block("action", block)
        return ModuleAction(actor.hom_hopf(), carrier.hom_hopf(), pair_cells(act, carrier.dim))

    def comodule_coaction(self, block=None) -> ComoduleCoaction:
        _, (coactor, carrier), coact = self._block("coaction", block)
        return ComoduleCoaction(coactor.hom_hopf(), carrier.hom_hopf(), coact)

    def pairing(self, block=None) -> PairingForm:
        _, (left, right), gram = self._block("pairing", block)
        return PairingForm(left.hom_hopf(), right.hom_hopf(), gram)

    def cocycle(self, block=None) -> TwoCocycle:
        block, (host,), gram = self._block("cocycle", block)
        return TwoCocycle(host.hom_bialgebra(), gram, block.refs[1])

    def rmatrix(self, block=None) -> RMatrix:
        _, (host,), entries = self._block("rmatrix", block)
        return RMatrix(host.hom_bialgebra(), entries)


class AlgebraFile(Sections, Record):
    schema_version: int
    objects: tuple[ObjectRecord, ...] = ()
    blocks: tuple[BlockRecord, ...] = ()


# ---------------------------------------------------------------------------
# reading

_ENTRY_ARITY = {"mul": 3, "comul": 3, "alpha": 2, "antipode": 2, "unit": 1, "counit": 1}


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


def read(data: bytes | str) -> AlgebraFile:
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
    block_entries = 0  # the entries of every block so far

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
            cube = (dim,) * 3
            unit, counit = (
                rows_from_entries((1, dim), {(0, i): v for (i,), v in nz[key].items()})[0]
                for key in ("unit", "counit")
            )
            record = ObjectRecord(
                name, dim, basis, rows_from_entries((dim, dim), nz["alpha"]),
                pair_cells(rows_from_entries(cube, nz["mul"]), dim) if algebra else None,
                unit if algebra else None,
                rows_from_entries(cube, nz["comul"]) if coalgebra else None,
                counit if coalgebra else None,
                rows_from_entries((dim, dim), nz["antipode"]) if nz["antipode"] else None,
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
                block_entries += 1
                if block_entries > MAX_DIM**3:
                    fail(f"block entries exceed the limit of {MAX_DIM}^3", item, 0)
                entry(item, bounds, table, f"'{head}' entries take", "duplicate entry")
            entries = tuple(sorted((idx, v) for idx, v in table.items() if v))
            blocks.append(BlockRecord(head, name, refs, entries))
        else:
            fail(f"unknown section {head!r}", line, 0)

    return AlgebraFile(version, tuple(objects), tuple(blocks))


# ---------------------------------------------------------------------------
# writing


def _entries(table, index=()) -> list:
    """The nonzero entries of a dense vector, matrix or rank-3 tensor, or of a
    sparse vector, rows or cells, with their index tuples, in sorted order
    (the dense ones are a ``fileformat`` record's)."""
    if isinstance(table, dict):
        return [((*index, i), c) for i, c in sorted(table.items()) if c]
    if table and isinstance(table[0], (tuple, dict)):
        return [e for i, sub in enumerate(table) if sub for e in _entries(sub, (*index, i))]
    return [((*index, i), c) for i, c in enumerate(table) if c]


def _emit(lines: list[str], keyword: str, entries) -> None:
    lines.extend(
        f"{keyword} {' '.join(map(str, idx))} {format_scalar(c)}" for idx, c in entries if c
    )


def write(file) -> bytes:
    """Canonical text form: fixed section order, sorted entries, reduced
    fractions.  Reading the output reproduces ``file`` exactly."""
    lines = [f"homhopf {file.schema_version}", "char 0"]
    for rec in file.objects:
        n = rec.dim
        lines += (f"object {rec.name}", f"dim {n}", "basis " + " ".join(rec.basis))
        tables = (rec.mul_cells, rec.comul_rows, rec.alpha, rec.antipode_rows, rec.unit, rec.counit)
        for keyword, table in zip(("mul", "comul", "alpha", "antipode", "unit", "counit"), tables):
            if table is not None:
                entries = _entries(table)
                if keyword == "comul":  # a row's pair-space index j * n + k is the pair (j, k)
                    entries = (((i, *divmod(p, n)), c) for (i, p), c in entries)
                _emit(lines, keyword, entries)
        lines.append("end")
    for block in file.blocks:
        lines.append(f"{block.kind} {block.name} {' '.join(block.refs)}")
        _emit(lines, "entry", block.entries)
        lines.append("end")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# records of structures


def object_record(name: str, obj, basis: tuple[str, ...] | None = None) -> ObjectRecord:
    """The record of a structure object, holding its tables."""
    if basis is None:
        basis = tuple(f"e{i}" for i in range(obj.dim))
    mul_cells = unit = comul_rows = counit = None
    if isinstance(obj, (HomAlgebra, HomBialgebra, HomHopfAlgebra)):
        mul_cells, unit = algebra_of(obj).mul_cells, obj.unit[0]
    if isinstance(obj, (HomCoalgebra, HomBialgebra, HomHopfAlgebra)):
        comul_rows, counit = coalgebra_of(obj).comul_rows, transpose_rows(obj.counit)[0]
    antipode_rows = obj.antipode_rows if isinstance(obj, HomHopfAlgebra) else None
    return ObjectRecord(name, obj.dim, basis, obj.alpha, mul_cells, unit, comul_rows, counit, antipode_rows)


def block_record(kind: str, name: str, refs: tuple[str, ...], table) -> BlockRecord:
    """The record of a block whose entries are those of ``table`` (see ``_entries``)."""
    return BlockRecord(kind, name, refs, tuple(_entries(table)))


def bundle_of_entry(entry) -> AlgebraFile:
    """The canonical file bundle for a catalog entry, on the entry's own tables."""
    main = entry.name.replace(":", "")
    objects = [object_record(main, entry.hopf, entry.basis)]
    blocks: list[BlockRecord] = []
    if entry.partner is not None:
        partner = main + "_partner"
        objects.append(object_record(partner, entry.partner, entry.partner_basis))
        if entry.action is not None:
            blocks.append(block_record("action", "act", (partner, main), entry.action.act_cells))
        if entry.coaction is not None:
            coact = pair_cells(entry.coaction.coact_rows, entry.coaction.coactor.dim)
            blocks.append(block_record("coaction", "coact", (main, partner), coact))
    if entry.rmatrix is not None:
        blocks.append(block_record("rmatrix", "r", (main,), entry.rmatrix.entries))
    return AlgebraFile(SCHEMA_VERSION, tuple(objects), tuple(blocks))
