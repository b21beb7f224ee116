"""Mirrored laws: the right action of a matched pair and the left comodule
algebra of ``verify prop4.7``.

Behaviour lock.  ``mirrored_outcomes.json`` pins what the mirrored checks
say about seeded single-entry perturbations of two inputs, on ``cyclic:3``
and ``sweedler_hom``:

- the ``right_action`` of the self-bicrossproduct matched pair
  ``dual_matched_pair(h, *self_bicross_data(h))``, checked by
  ``check_matched_pair``: the verdict of each ``matched-pair.right-action.``
  entry, in report order;
- the product of the right cocycle twist of the mirrored double, and the
  coproduct of the mirrored double, checked by
  ``check_left_comodule_algebra`` (the twist, coacted on by the mirrored
  double's coproduct): the first failing index of each entry, or ``None``
  where it passes.

A perturbation adds 1, -1 or 1/2 to one entry, or cancels a nonzero entry
so that a cell empties.  Case 00 of each input is unperturbed.  The
fixture is written by

    PYTHONPATH=src python tests/test_mirrored_laws.py

and is only regenerated when a verdict change is intended.
"""

from __future__ import annotations

import ast
import json
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import homhopf
from conftest import dense_field
from homhopf.bicross import self_bicross_data
from homhopf.catalog import get_entry
from homhopf.constructions import canonical_cocycles, cocycle_twist, drinfeld_double_tilde
from homhopf.exactlin import cells, dense_cells, flatten_pair, rows
from homhopf.matchedpair import MatchedPairData, check_matched_pair, dual_matched_pair
from homhopf.structures import HomAlgebra, HomBialgebra, HomCoalgebra
from homhopf.twist import check_left_comodule_algebra

OUTCOMES = Path(__file__).with_name("mirrored_outcomes.json")
HOSTS = ("cyclic:3", "sweedler_hom")
CASES = 20  # per host and per input, the unperturbed case included
RIGHT_ACTION = "matched-pair.right-action."


@lru_cache(maxsize=None)
def matched_pair(name: str) -> MatchedPairData:
    h = get_entry(name).hopf
    return dual_matched_pair(h, *self_bicross_data(h), check=False)


@lru_cache(maxsize=None)
def right_twist(name: str):
    """The mirrored double and its right cocycle twist."""
    h = get_entry(name).hopf
    tilde = drinfeld_double_tilde(h)
    _, eta = canonical_cocycles(h, double_tilde=tilde)
    return tilde, cocycle_twist(tilde, eta, check=False)


def _perturbed(tensor, rng: random.Random, case: int):
    """``tensor`` with one entry changed, and the changed index; case 0 is ``tensor``."""
    if case == 0:
        return tensor, None
    shape = (len(tensor), len(tensor[0]), len(tensor[0][0]))
    filled = [
        (i, j, k)
        for i in range(shape[0])
        for j in range(shape[1])
        for k in range(shape[2])
        if tensor[i][j][k]
    ]
    if rng.random() < 0.25:
        i, j, k = rng.choice(filled)
        delta = -tensor[i][j][k]
    else:
        i, j, k = (rng.randrange(n) for n in shape)
        delta = rng.choice((1, -1, Fraction(1, 2)))
    cell = list(tensor[i][j])
    cell[k] += delta
    plane = tensor[i][:j] + (tuple(cell),) + tensor[i][j + 1 :]
    return tensor[:i] + (plane,) + tensor[i + 1 :], [i, j, k]


def _left_comodule(algebra, coactor) -> list:
    report = check_left_comodule_algebra(algebra, coactor)
    return [None if c.passed else list(c.witness.index) for c in report.checks]


def mirrored_outcomes() -> dict[str, dict]:
    """Each case's perturbed index and the outcome of the mirrored entries."""
    out = {}
    for name in HOSTS:
        rng = random.Random(f"mirrored {name}")
        mp = matched_pair(name)
        for case in range(CASES):
            action, at = _perturbed(dense_cells(mp.right_cells), rng, case)
            report = check_matched_pair(MatchedPairData(mp.A, mp.H, mp.left_cells, cells(action)))
            verdicts = [c.passed for c in report.checks if c.axiom_id.startswith(RIGHT_ACTION)]
            out[f"{name} right_action {case:02d}"] = {"at": at, "passed": verdicts}
        tilde, twist = right_twist(name)
        for case in range(CASES):
            mul, at = _perturbed(dense_field(twist, "mul"), rng, case)
            algebra = HomAlgebra(twist.dim, cells(mul), twist.unit, twist.alpha)
            out[f"{name} twist_product {case:02d}"] = {
                "at": at,
                "first_failure": _left_comodule(algebra, tilde),
            }
        co = tilde.coalgebra
        for case in range(CASES):
            comul, at = _perturbed(dense_field(co, "comul"), rng, case)
            comul_rows = rows(map(flatten_pair, comul))
            coactor = HomBialgebra(tilde.algebra, HomCoalgebra(co.dim, comul_rows, co.counit, co.alpha))
            out[f"{name} twist_coaction {case:02d}"] = {
                "at": at,
                "first_failure": _left_comodule(twist, coactor),
            }
    return out


def test_mirrored_outcomes_are_locked():
    golden = json.loads(OUTCOMES.read_text())
    outcomes = mirrored_outcomes()
    assert sorted(golden) == sorted(outcomes)
    changed = {key: out for key, out in outcomes.items() if golden[key] != out}
    assert not changed


def test_the_lock_sees_both_verdicts():
    """Every mirrored entry passes on some case and fails on another, so the
    lock would show a flipped verdict of any of them."""
    golden = json.loads(OUTCOMES.read_text())
    checks = {"passed": [], "first_failure": []}
    for out in golden.values():
        field = "passed" if "passed" in out else "first_failure"
        checks[field].append([x is True or x is None for x in out[field]])
    for field, rows in checks.items():
        for column in zip(*rows):
            assert any(column) and not all(column), field


def test_mirrored_ids_come_only_from_prefixes():
    """No ``_sweep`` in the package names a mirrored law itself: a left or
    right-action id is a one-sided id prefixed by ``_prefixed``, so each law
    has one checker."""
    sweeps, mirrored = 0, []
    for path in sorted(Path(homhopf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_sweep":
                sweeps += 1
                for part in ast.walk(node.args[0]):
                    if isinstance(part, ast.Constant) and isinstance(part.value, str):
                        if part.value.startswith("left-") or "right-action" in part.value:
                            mirrored.append((path.stem, part.value))
    assert sweeps > 50 and mirrored == []


if __name__ == "__main__":
    cases = sorted(mirrored_outcomes().items())
    lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(out)}" for key, out in cases)
    OUTCOMES.write_text("{\n" + lines + "\n}\n")
