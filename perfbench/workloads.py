"""The benchmark's workloads: fixed lists of ``homhopf`` CLI commands.

A command is an argument list for ``python -m homhopf.cli``.  Two kinds of
placeholder are filled in per run:

* ``{alg:<catalog name>}`` is an input algebra.  Seed 0 passes the catalog
  name itself; any other seed passes ``in/<name>.alg``, the same entry with
  its basis relabelled by a seeded permutation (written once in set-up).
* ``{jobs}`` is ``--jobs`` for ``check``: 2, or fewer when fewer cores are
  available, so no command runs more threads than there are cores.

Every ``check``, ``verify`` and ``construct`` also gets ``--report
rep/<id>.json``.  Paths are relative to the run directory, so the report
digest (which covers each input's source string) is the same on every run.
"""

from __future__ import annotations

# Why each workload is in the benchmark (also recorded in BENCHMARK.json).
WHY = {
    "twist16": "cocycle workload: thm4.5/prop4.7 on both 16-dim doubles; check_cocycle dominates, so a sparse core shows here",
    "hopf36": "36-dim noncommutative double: Hopf-suite, quasitriangular and dual-pair checkers plus check --jobs; no check_cocycle",
    "cli_small": "about 20 short commands where process start, file format and catalog dominate; bypass workload for sweep speedups",
}

WORKLOADS: dict[str, list[tuple[str, list[str]]]] = {
    "twist16": [
        ("thm45_sweedler", ["verify", "thm4.5", "--algebra", "{alg:sweedler_hom}"]),
        ("prop47_sweedler", ["verify", "prop4.7", "--algebra", "{alg:sweedler_hom}"]),
        ("thm45_cyclic4", ["verify", "thm4.5", "--algebra", "{alg:cyclic:4}"]),
        ("prop47_cyclic4", ["verify", "prop4.7", "--algebra", "{alg:cyclic:4}"]),
    ],
    "hopf36": [
        ("prop219_s3", ["verify", "prop2.19", "--algebra", "{alg:s3_inner}"]),
        ("dualpair_s3", ["verify", "dual-pair", "--algebra", "{alg:s3_inner}"]),
        ("double_s3", ["construct", "double", "{alg:s3_inner}", "--out", "out/double_s3.alg"]),
        ("check_double_s3", ["check", "out/double_s3.alg", "--level", "hopf", "--jobs", "{jobs}"]),
    ],
    "cli_small": [
        ("export_ax1", ["export", "ax1", "--out", "out/ax1.alg"]),
        ("export_sweedler", ["export", "sweedler_hom", "--out", "out/sweedler.alg"]),
        ("dual_sweedler", ["construct", "dual", "{alg:sweedler_hom}", "--out", "out/dual_sweedler.alg"]),
        ("op_cyclic3", ["construct", "op", "{alg:cyclic:3}", "--out", "out/op_cyclic3.alg"]),
        ("double_cyclic2", ["construct", "double", "{alg:cyclic:2}", "--out", "out/double_cyclic2.alg"]),
        ("bicross_ax1", ["construct", "bicross", "{alg:ax1}", "--out", "out/bicross_ax1.alg"]),
        ("self_bicross_cyclic2", ["construct", "self-bicross", "{alg:cyclic:2}", "--out", "out/self_bicross_cyclic2.alg"]),
        ("pair_double_cyclic2", ["construct", "dual-pair-double", "{alg:cyclic:2}", "--out", "out/pair_double_cyclic2.alg"]),
        ("heisenberg_cyclic3", ["construct", "heisenberg", "{alg:cyclic:3}", "--out", "out/heisenberg_cyclic3.alg"]),
        ("check_ax1", ["check", "{alg:ax1}", "--level", "bialgebra"]),
        ("check_export_sweedler", ["check", "out/sweedler.alg", "--level", "quasitriangular"]),
        ("check_double_cyclic2", ["check", "out/double_cyclic2.alg", "--level", "hopf"]),
        ("check_dual_sweedler", ["check", "out/dual_sweedler.alg", "--level", "hopf"]),
        ("check_bicross_ax1", ["check", "out/bicross_ax1.alg", "--level", "hopf"]),
        ("check_heisenberg_cyclic3", ["check", "out/heisenberg_cyclic3.alg", "--level", "algebra"]),
        ("thm26_ax1", ["verify", "thm2.6", "--algebra", "{alg:ax1}"]),
        ("cor29_cyclic3", ["verify", "cor2.9", "--algebra", "{alg:cyclic:3}"]),
        ("prop219_cyclic2", ["verify", "prop2.19", "--algebra", "{alg:cyclic:2}"]),
        ("dualpair_cyclic2", ["verify", "dual-pair", "--algebra", "{alg:cyclic:2}"]),
        ("thm45_cyclic2", ["verify", "thm4.5", "--algebra", "{alg:cyclic:2}"]),
        ("malformed", ["check", "in/malformed.alg"]),
    ],
}

# A definition file that must be refused with exit 2: the index 5 is out of
# range for the declared dimension 2.
MALFORMED = "homhopf 1\nchar 0\nobject bad\ndim 2\nbasis 1 x\nalpha 0 0 1\nalpha 5 1 1\nend\n"

# Suite steps that only run on catalog inputs, because they use the entry's
# group data or golden tables, which a definition file does not carry.
CATALOG_ONLY_STEPS = frozenset({"group-like closed form", "closed-form R", "golden tables"})

# Failures the README and ROADMAP state independently of the code.  Every
# command not listed here must exit 0 with every axiom passing.
#   README "Known failing identities": ax1 satisfies every axiom except
#   comultiplication multiplicativity, and every composite built on ax1
#   inherits exactly that one failing axiom.
#   ROADMAP direction 5: with the evaluation pairing, pairing.mul-comul-left
#   fails on s3_inner at (1, 3, 3).
#   README "Exit codes": 2 is an input error, such as a malformed file.
EXPECTED_FAILURES = {
    "check_ax1": {"status": 1, "failing_axioms": ["bialgebra.comul-multiplicative"]},
    "check_bicross_ax1": {"status": 1, "failing_axioms": ["bialgebra.comul-multiplicative"]},
    "thm26_ax1": {"status": 1, "failing_axioms": ["bialgebra.comul-multiplicative"]},
    "dualpair_s3": {
        "status": 1,
        "first_failure": ["pairing.mul-comul-left", [1, 3, 3]],
    },
    "malformed": {"status": 2},
}
