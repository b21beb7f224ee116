"""Write a workload's input files: seeded relabellings of catalog entries.

Usage: python3 perfbench/inputs.py <out-dir> <seed> [<catalog name> ...]

Run with ``PYTHONPATH=src``.  Always writes ``malformed.alg``.  For a
non-zero seed it also writes ``<name>.alg`` (``:`` dropped) for each catalog
name: the entry's bundle with the ordered basis of every object permuted by
a non-identity permutation drawn from the seed and the name, applied to
every structure constant and to every block (action, coaction, pairing,
cocycle, rmatrix).  The result is isomorphic to the catalog entry, so every
pass/fail verdict is unchanged; only the suite steps that need catalog data
(``CATALOG_ONLY_STEPS``) drop out.  Seed 0 runs the catalog names directly
and writes no relabelled files.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from pathlib import Path

from workloads import MALFORMED

# Which object each index position of a block refers to, as an index into
# the block's refs (see the homhopf.fileformat module docstring).
BLOCK_POSITIONS = {
    "action": (0, 1, 1),
    "coaction": (1, 1, 0),
    "pairing": (0, 1),
    "cocycle": (0, 0),
    "rmatrix": (0, 0),
}


def input_file_name(name: str) -> str:
    return name.replace(":", "") + ".alg"


def _vec(v, s):
    out = [None] * len(v)
    for i, x in enumerate(v):
        out[s[i]] = x
    return tuple(out)


def _mat(m, s, t):
    out = [None] * len(m)
    for i, row in enumerate(m):
        out[s[i]] = _vec(row, t)
    return tuple(out)


def _tensor(x, s, t, u):
    out = [None] * len(x)
    for i, plane in enumerate(x):
        out[s[i]] = _mat(plane, t, u)
    return tuple(out)


def relabel_object(rec, s):
    """``rec`` with basis vector ``e_i`` renamed ``e_{s[i]}`` throughout."""

    def opt(value, fn, *perms):
        return None if value is None else fn(value, *perms)

    return replace(
        rec,
        basis=_vec(rec.basis, s),
        alpha=_mat(rec.alpha, s, s),
        mul=opt(rec.mul, _tensor, s, s, s),
        unit=opt(rec.unit, _vec, s),
        comul=opt(rec.comul, _tensor, s, s, s),
        counit=opt(rec.counit, _vec, s),
        antipode=opt(rec.antipode, _mat, s, s),
    )


def relabel_bundle(bundle, rng: random.Random):
    perms = {}
    for rec in bundle.objects:
        s = list(range(rec.dim))
        while rec.dim > 1 and s == sorted(s):
            rng.shuffle(s)  # never the identity, so no input equals its catalog entry
        perms[rec.name] = s
    objects = tuple(relabel_object(rec, perms[rec.name]) for rec in bundle.objects)
    blocks = []
    for block in bundle.blocks:
        layout = [perms[block.refs[p]] for p in BLOCK_POSITIONS[block.kind]]
        entries = tuple(
            sorted((tuple(s[i] for s, i in zip(layout, idx)), v) for idx, v in block.entries)
        )
        blocks.append(replace(block, entries=entries))
    return replace(bundle, objects=objects, blocks=tuple(blocks))


def write_inputs(out_dir: Path, seed: int, names: list[str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "malformed.alg").write_text(MALFORMED)
    if seed == 0:
        return
    from homhopf.catalog import get_entry
    from homhopf.fileformat import bundle_of_entry, serialize

    for name in names:
        rng = random.Random(f"{seed}:{name}")
        bundle = relabel_bundle(bundle_of_entry(get_entry(name)), rng)
        (out_dir / input_file_name(name)).write_bytes(serialize(bundle))


if __name__ == "__main__":
    write_inputs(Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:])
