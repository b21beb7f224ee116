"""Reading a definition file, in the format ``algfile`` describes: ``read``
parses and fully validates one into ``algfile`` records.  Only a command
that reads a file imports this module; one on a catalog name never compiles
it.
"""

from __future__ import annotations

import re

from .algfile import _BLOCK_POSITIONS, SCHEMA_VERSION, AlgebraFile, BlockRecord, ObjectRecord
from .errors import DuplicateEntry, ParseError, RangeError
from .exactlin import Scalar, _normal, pair_cells, rows_from_entries
from .structures import MAX_DIM

# The declared ``dim`` is checked against ``MAX_DIM`` before anything is
# allocated.  An object holds at most as many entries as its tables have cells
# (indices are range-checked and never repeated), and the objects of one file
# together may declare at most MAX_DIM^3 (the sum of dim^3).  The entries of
# all the blocks of one file count against one more budget of MAX_DIM^3, so a
# file holds at most 7 * MAX_DIM^3 entries (two tables of n^3 cells, two of
# n^2 and two of n per object, and the blocks).

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


def _integer(text: str) -> int:
    """``int(text)`` for ASCII digits after an optional ``-`` (``int`` also takes ``+``, ``_``)."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_scalar(text: str) -> Scalar:
    """Parse an exact rational written as ``p`` or ``p/q`` (q > 0 after reduction)."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        d = _integer(den)
        if d == 0:
            raise ValueError(f"zero denominator in scalar {text!r}")
        from fractions import Fraction
        return _normal(Fraction(_integer(num), d))
    return _integer(text)


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
