"""Definition-file records of dense fields, kept for the benchmark's input
generator: ``perfbench/inputs.py`` relabels the dense fields of a catalog
entry's ``bundle_of_entry`` with ``dataclasses.replace`` and writes it with
``serialize``.  The reader is ``algread``'s, and the writer and the
records' methods are ``algfile``'s; an object record hands ``algfile`` its
tables, the rows of its structure map and its unit and counit as sparse
vectors, made from its dense fields once (``tables``).  No command loads
this module or ``dataclasses``; ROADMAP directions 10 and 11 delete it once
the generator builds ``algfile`` records by constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import algfile
from .algfile import Sections
from .exactlin import (
    Matrix, Scalar, Tensor3, Vector, cells, dense, dense_cells, dense_rows, flatten_pair, pair_cells,
    rows, sparse,
)


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

    @cached_property
    def tables(self) -> algfile.ObjectRecord:
        """The ``algfile`` record of the same object."""
        return algfile.ObjectRecord(
            self.name, self.dim, self.basis, rows(self.alpha),
            None if self.mul is None else cells(self.mul),
            None if self.unit is None else sparse(self.unit),
            None if self.comul is None else rows(map(flatten_pair, self.comul)),
            None if self.counit is None else sparse(self.counit),
            None if self.antipode is None else rows(self.antipode),
        )

    def __getattr__(self, name):
        """``mul_cells``, ``comul_rows``, ``antipode_rows`` and the realized
        structures, read from ``tables``."""
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.tables, name)


@dataclass(frozen=True)
class BlockRecord:
    kind: str
    name: str
    refs: tuple[str, ...]
    entries: tuple[tuple[tuple[int, ...], Scalar], ...]


@dataclass(frozen=True)
class AlgebraFile(Sections):
    schema_version: int
    objects: tuple[ObjectRecord, ...] = ()
    blocks: tuple[BlockRecord, ...] = ()


def _dense(file: algfile.AlgebraFile) -> AlgebraFile:
    """The bundle of dense records of an ``algfile`` bundle."""
    objects = tuple(
        ObjectRecord(
            r.name, r.dim, r.basis, dense_rows(r.alpha),
            r.mul_cells and dense_cells(r.mul_cells),
            None if r.unit is None else dense(r.unit),
            r.comul_rows and dense_cells(pair_cells(r.comul_rows, r.dim)),
            None if r.counit is None else dense(r.counit),
            r.antipode_rows and dense_rows(r.antipode_rows),
        )
        for r in file.objects
    )
    blocks = tuple(BlockRecord(b.kind, b.name, b.refs, b.entries) for b in file.blocks)
    return AlgebraFile(file.schema_version, objects, blocks)


def parse(data: bytes | str) -> AlgebraFile:
    from .algread import read

    return _dense(read(data))


def serialize(file: AlgebraFile) -> bytes:
    return algfile.write(file)


def bundle_of_entry(entry) -> AlgebraFile:
    return _dense(algfile.bundle_of_entry(entry))
