"""Theorem-level verification: the suite result types, the table of suites
by their home module, and the ``prop2.19`` suite.

A suite composes constructions with the generic checkers and returns a
SuiteResult: one named CheckReport per step, the verdict and the wall time.
It never trusts construction code: every object it builds goes through the
axiom checkers, and two objects are compared through an identification
``phi: X -> Y`` (``checkers.check_morphism``) named in the step note, so a
failed comparison tells a wrong identity from a wrong identification.  A
suite lives with the laws it runs, in its section of the paper, so a
``verify`` process compiles only that section.  The function ``verify`` is
the body of the ``verify`` command, which prints a suite result and writes
its report (``_print_suite``, ``_suite_json``), so only a ``verify`` process
compiles this module.  It looks its suite up once the input has loaded, and
``prop2.19`` imports the checkers and the constructions when it runs, so a
file the reader refuses compiles neither and no section.
"""

from __future__ import annotations

import sys
import time
from importlib import import_module
from typing import TYPE_CHECKING

from .cliio import EXIT_FAIL, EXIT_PASS, _fail_usage, _load_input, _print_report, _report_json, _write_report
from .errors import HomHopfError
from .exactlin import ONE, ZERO, sparse
from .structures import CheckReport, HomHopfAlgebra, Record

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
    from .checkers import _sweep, check_quasitriangular  # here, so that a refused input compiles neither
    from .constructions import canonical_r_matrix, drinfeld_double

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


def _print_suite(result) -> None:
    print(f"suite {result.suite}")
    for step in result.steps:
        status = "PASS" if step.passed else "FAIL"
        note = f"  [{step.note}]" if step.note else ""
        print(f"  {status} {step.name}{note}")
        if not step.passed:
            _print_report(step.report, indent="    ")
    verdict = "PASS" if result.passed else "FAIL"
    print(f"overall {verdict} ({result.wall_time:.3f}s)")


def _suite_json(result):
    return {
        "suite": result.suite,
        "passed": result.passed,
        "wall_time": result.wall_time,
        "steps": [
            {"name": s.name, "note": s.note, "report": _report_json(s.report)}
            for s in result.steps
        ],
    }


def verify(suite, source, report_path):
    try:
        bundle, raw, entry = _load_input(source)
        module, function = SUITES[suite]
        run = getattr(import_module(f".{module}", __package__), function)  # compiles the suite's own section
        rec = bundle.object()
        hopf = rec.hom_hopf()
        group = entry.group if entry is not None else None
        if suite == "thm2.6":
            act = bundle.module_action()
            co = bundle.comodule_coaction()
            from .bicross import catalog_ex27_expected
            from .catalog import get_entry

            # the golden tables are those of the catalog's ax1 data (a coaction's
            # rows fix its shape with the coactor's dimension)
            ax1 = get_entry("ax1")
            given = (act.carrier, act.actor, act.act_cells, co.coactor.dim, co.coact_rows)
            want = (ax1.hopf, ax1.partner, ax1.action.act_cells, ax1.hopf.dim, ax1.coaction.coact_rows)
            golden = catalog_ex27_expected() if given == want else None
            result = run(act.carrier, act.actor, act, co, golden)
        elif suite in ("cor2.9", "prop2.19"):
            result = run(hopf, group)
        else:
            result = run(hopf)
    except (HomHopfError, OSError) as exc:
        _fail_usage(str(exc))

    _print_suite(result)
    status = EXIT_PASS if result.passed else EXIT_FAIL
    _write_report(report_path, f"verify {suite}", [(source, raw)], [_suite_json(result)], status)
    sys.exit(status)
