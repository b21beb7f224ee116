"""Exception types shared across the package."""

from __future__ import annotations


class HomHopfError(Exception):
    """Base class for all errors raised by homhopf."""


class DimensionMismatch(HomHopfError):
    """Shapes of operands do not line up."""


class MissingStructure(HomHopfError, TypeError):
    """An object lacks the algebra, coalgebra or bialgebra structure an
    operation needs; also a ``TypeError``, so callers catching that still do."""


class SingularMatrixError(HomHopfError):
    """A matrix that must be invertible is not."""

    def __init__(self, message: str, rank: int | None = None):
        super().__init__(message)
        self.rank = rank


class InvalidParameter(HomHopfError):
    """A construction parameter is out of its allowed range."""


class NotAMorphism(HomHopfError):
    """A map fails a required morphism identity; carries the violated one."""

    def __init__(self, identity: str):
        super().__init__(f"not a morphism: {identity} fails")
        self.identity = identity


class NotAGroup(HomHopfError):
    """A multiplication table is not a group."""


class NotAnAutomorphism(HomHopfError):
    """A permutation does not respect the group table."""


class PreconditionFailed(HomHopfError):
    """A construction precondition check failed; carries the report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class HypothesisFailed(PreconditionFailed):
    """A named theorem hypothesis failed; carries which one and the report."""

    def __init__(self, hypothesis: str, report=None):
        super().__init__(f"hypothesis {hypothesis} fails", report)
        self.hypothesis = hypothesis


class CrossCheckFailed(HomHopfError):
    """A closed-form cross-check disagreed with the generic construction."""


class FileFormatError(HomHopfError):
    """Base class for definition-file problems; carries line/column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.column = column


class ParseError(FileFormatError):
    """Malformed definition file."""


class RangeError(FileFormatError):
    """A sparse index is outside the declared dimension."""


class DuplicateEntry(FileFormatError):
    """The same sparse index appears twice in one block."""
