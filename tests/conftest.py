"""Shared test helpers."""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

from homhopf.cli import main
from homhopf.errors import SingularMatrixError
from homhopf.exactlin import cells, dense, dense_cells, dense_rows, flatten_pair, pair_cells, rows, transpose_rows
from homhopf.structures import HomHopfAlgebra, _require, algebra_of, coalgebra_of, hopf_of_tables


@dataclass(frozen=True)
class CliResult:
    """What one in-process CLI command left: ``output`` is stdout and stderr
    together, in the order they were written."""

    exit_code: int
    stdout: str
    stderr: str
    output: str


class _Tee(io.StringIO):
    """A captured stream that also copies every write to a shared one."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, text: str) -> int:
        self.shared.write(text)
        return super().write(text)


def run_cli(args) -> CliResult:
    """Run ``homhopf`` with ``args`` in this process and capture what it wrote."""
    output = io.StringIO()
    out, err = _Tee(output), _Tee(output)
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(args=list(args), prog_name="homhopf")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return CliResult(code, out.getvalue(), err.getvalue(), output.getvalue())


def replaced(obj, **changes):
    """A new value of the type of ``obj`` with the fields in ``changes``
    replaced, built by its constructor as ``dataclasses.replace`` builds one;
    ``obj.__match_args__`` names the fields of a ``homhopf`` value type."""
    return type(obj)(**{**{f: getattr(obj, f) for f in obj.__match_args__}, **changes})


def hopf_algebra(dim, mul, unit, comul, counit, alpha, antipode) -> HomHopfAlgebra:
    """Assemble a HomHopfAlgebra from the dense tensors ``mul``, ``comul`` and
    ``antipode`` and the dense vectors ``unit`` and ``counit`` (as
    ``dense_field`` gives them), each converted to its table or map once, and
    the rows of its structure map: the tests' dense constructor."""
    _require(len(mul) == dim, "multiplication tensor shape")
    eta, eps = rows((unit,)), rows(tuple((c,) for c in counit))
    return hopf_of_tables(cells(mul), eta, rows(map(flatten_pair, comul)), eps, alpha, rows(antipode))


# The dense tensor of each table, by the name of the tensor: ``mul[i][j][k]`` is
# the ``e_k``-coefficient of ``e_i . e_j``, ``comul[i][j][k]`` the ``e_j (x) e_k``-
# coefficient of ``delta(e_i)``, ``antipode[i]`` is ``S(e_i)``, ``act[h][m][m']``
# the ``e_m'``-coefficient of ``e_h . e_m`` and ``coact[m][m'][c]`` the
# ``e_m' (x) e_c``-coefficient of ``rho(e_m)``; ``unit`` is the unit element
# and ``counit[i]`` is ``counit(e_i)``.
_DENSE = {
    "unit": lambda x: dense(x.unit[0]),
    "counit": lambda x: dense(transpose_rows(x.counit)[0]),
    "mul": lambda x: dense_cells(algebra_of(x).mul_cells),
    "comul": lambda x: dense_cells(pair_cells(coalgebra_of(x).comul_rows, x.dim)),
    "antipode": lambda x: dense_rows(x.antipode_rows),
    "act": lambda x: dense_cells(x.act_cells),
    "coact": lambda x: dense_cells(pair_cells(x.coact_rows, x.coactor.dim)),
}


def dense_field(obj, name: str):
    """The dense tensor or vector ``name`` (``mul``, ``unit``, ``comul``,
    ``counit``, ``antipode``, ``act`` or ``coact``) of the domain object
    ``obj``, made from its table; any other field (``alpha``) is read as it
    is, so the arguments of ``hopf_algebra`` are ``dense_field`` of each of
    its names."""
    return _DENSE[name](obj) if name in _DENSE else getattr(obj, name)


def matrix_from_rows(rows):
    """The dense matrix of the rows ``rows``, each entry an exact scalar: an
    ``int`` when it is integral, else a ``Fraction``."""
    return tuple(
        tuple(q.numerator if q.denominator == 1 else q for q in map(Fraction, row)) for row in rows
    )


def cells_from_entries(shape, entries):
    """The cells of ``tensor3_from_entries(shape, entries)``: an action table."""
    return cells(tensor3_from_entries(shape, entries))


def tensor3_from_entries(shape, entries):
    """The dense rank-3 tensor of ``shape`` whose entries are ``entries``,
    ``{(i, j, k): scalar}``, and zero elsewhere: the tests' dense fixtures."""
    n1, n2, n3 = shape
    return tuple(
        tuple(tuple(entries.get((i, j, k), 0) for k in range(n3)) for j in range(n2))
        for i in range(n1)
    )


def basis_vector(n: int, i: int):
    """The dense ``i``-th standard basis vector of length ``n``."""
    return tuple(1 if j == i else 0 for j in range(n))


def dense_inverse(m):
    """The reference inverse of a dense square matrix: Gauss-Jordan elimination
    on dense rows over the rationals, integral entries as ``int``.  Raises
    ``SingularMatrixError`` with the rank found when there is none."""
    n = len(m)
    a = [list(row) for row in m]
    inv = [list(basis_vector(n, i)) for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv[rank], inv[pivot] = inv[pivot], inv[rank]
        p = Fraction(a[rank][col])
        if p != 1:
            a[rank] = [x / p for x in a[rank]]
            inv[rank] = [x / p for x in inv[rank]]
        for r in range(n):
            if r != rank and a[r][col]:
                c = a[r][col]
                a[r] = [x - c * y for x, y in zip(a[r], a[rank])]
                inv[r] = [x - c * y for x, y in zip(inv[r], inv[rank])]
        rank += 1
    if rank != n:
        raise SingularMatrixError(f"singular matrix: rank {rank} of {n}", rank=rank)
    return matrix_from_rows(inv)


def dense_compose(f, g):
    """The reference row-image composition of two dense matrices: ``f`` first, then ``g``."""
    return tuple(
        tuple(sum((row[k] * g[k][j] for k in range(len(g))), 0) for j in range(len(g[0]))) for row in f
    )
