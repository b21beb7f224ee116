"""Behaviour lock: exit status, ``--report`` digest and output hash of fast CLI commands.

``golden_digests.json`` records, for each command below, the exit status, the
digest of the report it writes and, for ``construct``, the sha256 of the
``--out`` file.  Any change to a verdict, a witness, a report field or a
constructed structure constant shows up here.  The fixture is written by

    PYTHONPATH=src python tests/test_golden_digests.py

and is only regenerated when a report or output change is intended.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from conftest import run_cli

FIXTURE = Path(__file__).with_name("golden_digests.json")

# check: each entry at its highest level (only sweedler_hom carries an R-matrix)
_CHECKS = [
    ("one", "hopf"),
    ("ax1", "hopf"),
    ("kz2", "hopf"),
    ("sweedler_hom", "quasitriangular"),
    ("cyclic:3", "hopf"),
    ("s3_inner", "hopf"),
]
# construct: every kind but twist, which needs a --cocycle file
_KINDS = ("dual", "op", "double", "double-tilde", "heisenberg", "self-bicross", "dual-pair-double")
_SUITES = ("cor2.9", "prop2.19", "thm4.5", "dual-pair", "prop4.7")

COMMANDS = (
    [("check", name, "--level", level) for name, level in _CHECKS]
    + [("construct", kind, name) for name in ("cyclic:2", "sweedler_hom") for kind in _KINDS]
    + [("construct", "bicross", "ax1")]
    + [("verify", "thm2.6", "--algebra", "ax1")]
    + [("verify", suite, "--algebra", name) for name in ("cyclic:2", "cyclic:3") for suite in _SUITES]
    # two suites whose comparisons fail on a noncommutative input
    + [("verify", suite, "--algebra", "s3_inner") for suite in ("thm4.5", "dual-pair")]
)


def run(args: tuple[str, ...], workdir: Path) -> dict:
    """Run one command in-process and summarise what it produced."""
    report = workdir / "report.json"
    out = workdir / "out.alg"
    argv = [*args, "--report", str(report)]
    if args[0] == "construct":
        argv += ["--out", str(out)]
    result = run_cli(argv)
    return {
        "status": result.exit_code,
        "digest": json.loads(report.read_text())["digest"] if report.exists() else None,
        "out_sha256": hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None,
    }


def _key(args: tuple[str, ...]) -> str:
    return " ".join(args)


def test_fixture_covers_every_command():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(_key(a) for a in COMMANDS)


@pytest.mark.parametrize("args", COMMANDS, ids=_key)
def test_golden_digest(args, tmp_path):
    assert run(args, tmp_path) == json.loads(FIXTURE.read_text())[_key(args)]


if __name__ == "__main__":
    import tempfile

    golden = {}
    for args in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            golden[_key(args)] = run(args, Path(tmp))
    FIXTURE.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
