"""Checker outcomes: the module, comodule, cotwisting, matched-pair,
dual-pair, cocycle and bicrossproduct-hypothesis checkers on seeded
single-entry perturbations.

Behaviour lock.  ``checker_outcomes.json`` pins, for every entry of every
report, the axiom id, the verdict, the first failing index and both witness
sides, as ``test_mutation_witnesses.pin`` writes them.  The inputs are:

- the action of ``kz2`` on ``ax1`` and the self-bicrossproduct actions of
  ``cyclic:3`` and ``sweedler_hom``, under ``check_module``,
  ``check_module_algebra`` and ``check_module_coalgebra``;
- the matching coactions, under ``check_comodule``,
  ``check_comodule_coalgebra`` and ``check_comodule_algebra``, and the
  cotwisting maps they induce, under ``check_cotwisting``;
- the same action-coaction data, under ``bicross_hypotheses``;
- the matched pairs ``dual_matched_pair(h, *self_bicross_data(h))`` of
  ``cyclic:3`` and ``sweedler_hom``, under ``check_matched_pair``;
- the evaluation pairings of ``s3_inner`` and ``sweedler_hom``, under
  ``check_dual_pair``;
- the canonical left and right cocycles of ``sweedler_hom``, under
  ``check_cocycle``.

A perturbation adds 1, -1 or 1/2 to one entry, or cancels a nonzero entry.
Case 00 of each input is unperturbed.  The fixture is written by

    PYTHONPATH=src python tests/test_checker_outcomes.py

and is only regenerated when a verdict or witness change is intended.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from test_mutation_witnesses import pin

from homhopf.catalog import get_entry
from homhopf.constructions import (
    bicross_hypotheses,
    canonical_cocycles,
    comodule_cotwist,
    dual_matched_pair,
    evaluation_pairing,
    self_bicross_data,
)
from homhopf.errors import HomHopfError
from homhopf.exactlin import cells, dense_cells, flatten_pair, rows
from homhopf.structures import (
    ComoduleCoaction,
    MatchedPairData,
    ModuleAction,
    PairingForm,
    TwoCocycle,
    check_cocycle,
    check_comodule,
    check_comodule_algebra,
    check_comodule_coalgebra,
    check_cotwisting,
    check_dual_pair,
    check_matched_pair,
    check_module,
    check_module_algebra,
    check_module_coalgebra,
)

OUTCOMES = Path(__file__).with_name("checker_outcomes.json")
BICROSS_HOSTS = ("ax1", "cyclic:3", "sweedler_hom")
CASES = 20  # per input and per perturbed field, the unperturbed case included


@lru_cache(maxsize=None)
def bicross_data(name: str):
    """``(A, H, action, coaction)``: the catalog's ax1 data, or the
    self-bicrossproduct data of ``name``."""
    entry = get_entry(name)
    if name == "ax1":
        return entry.hopf, entry.partner, entry.action, entry.coaction
    h = entry.hopf
    hop, act, co = self_bicross_data(h)
    return h, hop, act, co


def _indices(value, prefix=()) -> list[tuple[int, ...]]:
    """Every index of the nested tuple ``value``, in row-major order."""
    if not isinstance(value, tuple):
        return [prefix]
    return [idx for i, x in enumerate(value) for idx in _indices(x, prefix + (i,))]


def _at(value, index):
    for i in index:
        value = value[i]
    return value


def _bump(value, index, delta):
    if not index:
        return value + delta
    head, rest = index[0], index[1:]
    return value[:head] + (_bump(value[head], rest, delta),) + value[head + 1 :]


def _perturbed(value, rng: random.Random, case: int):
    """``value`` with one entry changed, and the changed index; case 0 is ``value``."""
    if case == 0:
        return value, None
    every = _indices(value)
    filled = [idx for idx in every if _at(value, idx)]
    if rng.random() < 0.25:
        idx = rng.choice(filled)
        delta = -_at(value, idx)
    else:
        idx = rng.choice(every)
        delta = rng.choice((1, -1, Fraction(1, 2)))
    return _bump(value, idx, delta), list(idx)


def _entries(report) -> list[list]:
    out = []
    for c in report.checks:
        if c.passed:
            out.append([c.axiom_id, True])
        else:
            w = c.witness
            out.append([c.axiom_id, False, list(w.index), pin(w.lhs), pin(w.rhs)])
    return out


def _run(checks) -> dict[str, list]:
    """Each checker's entries, or the error a perturbed input raised."""
    try:
        return {name: _entries(check()) for name, check in checks}
    except HomHopfError as exc:
        return {"error": type(exc).__name__}


def _rows(t):
    """The rows of a dense coaction tensor, a map to the flattened pair space."""
    return rows(map(flatten_pair, t))


def _action_checks(act: ModuleAction):
    return [
        ("check_module", lambda: check_module(act)),
        ("check_module_algebra", lambda: check_module_algebra(act)),
        ("check_module_coalgebra", lambda: check_module_coalgebra(act)),
    ]


def _coaction_checks(co: ComoduleCoaction):
    return [
        ("check_comodule", lambda: check_comodule(co)),
        ("check_comodule_coalgebra", lambda: check_comodule_coalgebra(co)),
        ("check_comodule_algebra", lambda: check_comodule_algebra(co.carrier, co)),
    ]


def _inputs():
    """``(key, value, checks)``: each input, its perturbed field and the
    checkers run on a perturbed copy (``checks(copy)``)."""
    for name in BICROSS_HOSTS:
        A, H, act, co = bicross_data(name)
        yield (
            f"{name} action",
            act.act,
            lambda t, act=act: _action_checks(ModuleAction(act.actor, act.carrier, cells(t))),
        )
        yield (
            f"{name} coaction",
            co.coact,
            lambda t, co=co: _coaction_checks(ComoduleCoaction(co.coactor, co.carrier, _rows(t))),
        )
        phi = comodule_cotwist(co, check=False)
        yield (
            f"{name} cotwisting",
            phi,
            lambda m, co=co: [
                ("check_cotwisting", lambda: check_cotwisting(co.coactor, co.carrier, m))
            ],
        )
        for field in ("act", "coact"):
            source = act.act if field == "act" else co.coact

            def bicross(t, A=A, H=H, act=act, co=co, field=field):
                a = ModuleAction(act.actor, act.carrier, cells(t)) if field == "act" else act
                c = ComoduleCoaction(co.coactor, co.carrier, _rows(t)) if field == "coact" else co
                return [("bicross_hypotheses", lambda: bicross_hypotheses(A, H, a, c))]

            yield f"{name} bicross {field}", source, bicross
    for name in ("cyclic:3", "sweedler_hom"):
        h = get_entry(name).hopf
        mp = dual_matched_pair(h, *self_bicross_data(h), check=False)
        for field in ("left_action", "right_action"):

            def matched(t, mp=mp, field=field):
                left = cells(t) if field == "left_action" else mp.left_cells
                right = cells(t) if field == "right_action" else mp.right_cells
                data = MatchedPairData(mp.A, mp.H, left, right)
                return [("check_matched_pair", lambda: check_matched_pair(data))]

            table = mp.left_cells if field == "left_action" else mp.right_cells
            yield f"{name} matched-pair {field}", dense_cells(table), matched
    for name in ("s3_inner", "sweedler_hom"):
        p = evaluation_pairing(get_entry(name).hopf)
        yield (
            f"{name} dual-pair gram",
            p.gram,
            lambda g, p=p: [
                ("check_dual_pair", lambda: check_dual_pair(PairingForm(p.left, p.right, g)))
            ],
        )
    for sigma in canonical_cocycles(get_entry("sweedler_hom").hopf):
        yield (
            f"sweedler_hom {sigma.side}-cocycle gram",
            sigma.gram,
            lambda g, s=sigma: [
                ("check_cocycle", lambda: check_cocycle(TwoCocycle(s.algebra, g, s.side)))
            ],
        )


def checker_outcomes() -> dict[str, dict]:
    """Each case's perturbed index and the entries of every checker run on it."""
    out = {}
    for key, value, checks in _inputs():
        rng = random.Random(f"checker {key}")
        for case in range(CASES):
            perturbed, at = _perturbed(value, rng, case)
            out[f"{key} {case:02d}"] = {"at": at, **_run(checks(perturbed))}
    return out


def test_checker_outcomes_are_locked():
    golden = json.loads(OUTCOMES.read_text())
    outcomes = checker_outcomes()
    assert sorted(golden) == sorted(outcomes)
    changed = {key: out for key, out in outcomes.items() if golden[key] != out}
    assert not changed


def test_the_lock_pins_witnesses_of_every_checker():
    """Each checker fails somewhere in the lock, so its witnesses are pinned."""
    golden = json.loads(OUTCOMES.read_text())
    failing = {
        checker
        for out in golden.values()
        for checker, entries in out.items()
        if checker not in ("at", "error") and any(not e[1] for e in entries)
    }
    assert failing == {
        "check_module",
        "check_module_algebra",
        "check_module_coalgebra",
        "check_comodule",
        "check_comodule_coalgebra",
        "check_comodule_algebra",
        "check_cotwisting",
        "bicross_hypotheses",
        "check_matched_pair",
        "check_dual_pair",
        "check_cocycle",
    }


if __name__ == "__main__":
    cases = sorted(checker_outcomes().items())
    lines = ",\n".join(f"{json.dumps(key)}: {json.dumps(out)}" for key, out in cases)
    OUTCOMES.write_text("{\n" + lines + "\n}\n")
