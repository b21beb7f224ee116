"""The definition-file format, its records and its canonical writer; the
reader, ``algread.read``, is a module of its own.

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

``algread.read`` puts the entries straight into the sparse tables the
domain objects take (``mul_cells``, ``comul_rows``, the rows of ``alpha``
and of the antipode, a block's sorted entries), and ``write`` emits them
from those tables, so neither makes a dense tensor or matrix.  Only a
command that reads a file compiles the reader.  A record keeps the ``unit``
and ``counit`` lines as sparse vectors; ``hom_algebra`` and
``hom_coalgebra`` make them the maps ``eta: k -> A`` and ``eps: C -> k``,
and ``object_record`` takes them back from the maps.  The records are
``structures.Record`` value types.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

from .errors import ParseError
from .exactlin import (
    Scalar, Sparse, SparseMatrix, SparseTensor3, format_scalar, pair_cells, rows_from_entries,
    transpose_rows,
)
from .structures import (
    ComoduleCoaction, HomAlgebra, HomBialgebra, HomCoalgebra, HomHopfAlgebra,
    ModuleAction, PairingForm, Record, RMatrix, algebra_of, coalgebra_of,
)

if TYPE_CHECKING:
    from .twist import TwoCocycle

SCHEMA_VERSION = 1


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
        from .twist import TwoCocycle  # here: only a command that twists compiles the twists

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
