"""Theorem-level verification: the suite result types, the table of suites
by their home module, and the ``prop2.19`` suite.

A suite composes constructions with the generic checkers and returns a
SuiteResult: one named CheckReport per step, the verdict and the wall time.
It never trusts construction code: every object it builds goes through the
axiom checkers, and two objects are compared through an identification
``phi: X -> Y`` (``structures.check_morphism``) named in the step note, so a
failed comparison tells a wrong identity from a wrong identification.  A
suite lives with the laws it runs, in its section of the paper, so a
``verify`` process compiles only that section.
"""

from __future__ import annotations

import time
from importlib import import_module
from typing import TYPE_CHECKING

from .constructions import canonical_r_matrix, drinfeld_double
from .exactlin import ONE, ZERO, sparse
from .structures import CheckReport, HomHopfAlgebra, Record, check_quasitriangular, _sweep

if TYPE_CHECKING:
    from .catalog import GroupData

SUITES = {  # suite name -> (module, function)
    "thm2.6": ("bicross", "verify_thm_2_6"),
    "cor2.9": ("bicross", "verify_cor_2_9"),
    "prop2.19": ("verify", "verify_prop_2_19"),
    "thm4.5": ("twist", "verify_thm_4_5"),
    "dual-pair": ("pairing", "verify_dual_pair_route"),
    "prop4.7": ("twist", "verify_prop_4_7"),
}


def __getattr__(name):  # PEP 562: a suite of another module, imported on first use
    for module, function in SUITES.values():
        if function == name:
            return getattr(import_module(f".{module}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SuiteStep(Record):
    name: str
    report: CheckReport
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.report.ok


class SuiteResult(Record):
    suite: str
    steps: tuple[SuiteStep, ...]
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps)


def _timed(suite: str, steps: list[SuiteStep], started: float) -> SuiteResult:
    return SuiteResult(suite, tuple(steps), time.perf_counter() - started)


def verify_prop_2_19(H: HomHopfAlgebra, group: GroupData | None = None) -> SuiteResult:
    """Build the double and its canonical R-matrix and check the three
    quasitriangularity axioms; on twisted group algebras also diff R against
    the closed form ``sum_g (1 x e_phi(g)) (x) (g^-1 x counit)``."""
    started = time.perf_counter()
    double = drinfeld_double(H)
    r = canonical_r_matrix(H, double)
    steps = [SuiteStep("quasitriangular axioms on the double", check_quasitriangular(double, r))]
    if group is not None:
        n = group.order
        expected: dict[tuple[int, int], int] = {}
        for g in range(n):
            p = group.identity * n + group.automorphism[g]
            for s in range(n):
                q = group.inverse[g] * n + s
                expected[p, q] = expected.get((p, q), ZERO) + ONE
        cases = (
            ((p, q), sparse((r.entries[p].get(q, ZERO),)), sparse((expected.get((p, q), ZERO),)))
            for p in range(n * n)
            for q in range(n * n)
        )
        entry = _sweep("canonical-r.group-closed-form", cases)
        steps.append(SuiteStep("closed-form R", CheckReport((entry,))))
    return _timed("canonical-r-matrix", steps, started)
