"""Start-up: the package's public names, and which modules a command loads.

Every ``homhopf`` command is a fresh process, so what it imports is compiled
and executed on every run.  ``homhopf`` imports ``structures`` and
``constructions`` eagerly and the catalog on first use; ``cli`` imports
``verify``, the catalog, ``hashlib`` and ``json`` only in the commands and
options that use them.  The import-graph tests run each command in a fresh
interpreter and read ``sys.modules`` after ``main`` exits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homhopf
from homhopf.catalog import get_entry
from homhopf.fileformat import bundle_of_entry, serialize

SRC = Path(__file__).resolve().parents[1] / "src"

ALL = (
    "CatalogEntry", "CheckEntry", "CheckReport", "ComoduleCoaction", "HomAlgebra",
    "HomBialgebra", "HomCoalgebra", "HomHopfAlgebra", "MatchedPairData", "ModuleAction",
    "PairingForm", "RMatrix", "TwoCocycle", "Witness", "bicrossproduct", "canonical_cocycles",
    "canonical_r_matrix", "catalog", "catalog_ax1", "catalog_cyclic", "catalog_ex27_expected",
    "catalog_group", "catalog_kz2", "catalog_one", "catalog_sweedler_hom", "check_antipode",
    "check_cocycle", "check_comodule", "check_comodule_algebra", "check_comodule_coalgebra",
    "check_cotwisting", "check_dual_pair", "check_hom_algebra", "check_hom_bialgebra",
    "check_hom_coalgebra", "check_matched_pair", "check_module", "check_module_algebra",
    "check_module_coalgebra", "check_quasitriangular", "check_twisting", "cocycle_twist",
    "comodule_cotwist", "constructions", "cotwist_coproduct", "double_cross_product",
    "drinfeld_double", "drinfeld_double_tilde", "dual", "dual_matched_pair", "dual_pair_double",
    "errors", "evaluation_pairing", "exactlin", "get_entry", "heisenberg_double",
    "hopf_algebra", "opposite", "run_hopf_suite", "self_bicross", "smash_product", "structures",
    "yau_twist",
)


def _fresh(code: str, *args: str, cwd=None) -> str:
    """The stdout of ``code`` run in a fresh interpreter on this source tree."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestPackageNames:
    def test_all_is_unchanged(self):
        assert homhopf.__all__ == sorted(ALL)

    @pytest.mark.parametrize("name", ALL)
    def test_from_import(self, name):
        namespace = {}
        exec(f"from homhopf import {name}", namespace)
        assert namespace[name] is getattr(homhopf, name)

    def test_catalog_names_are_the_catalog_module_names(self):
        assert homhopf.get_entry is get_entry
        assert homhopf.catalog.get_entry is get_entry

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            homhopf.no_such_name
        with pytest.raises(ImportError):
            exec("from homhopf import no_such_name", {})

    def test_catalog_loads_on_first_use(self):
        code = (
            "import sys, homhopf\n"
            "print('homhopf.catalog' in sys.modules)\n"
            "from homhopf import get_entry\n"
            "print('homhopf.catalog' in sys.modules, get_entry is homhopf.catalog.get_entry)\n"
        )
        assert _fresh(code).split() == ["False", "True", "True"]


# Runs one command and prints, as its last stdout line, the command's exit
# status and the names of the watched modules that it loaded.
PROBE = """
import sys
from homhopf.cli import main
try:
    main(args=sys.argv[1:], prog_name="homhopf")
except SystemExit as exc:
    status = exc.code
watched = ("homhopf.verify", "homhopf.catalog", "hashlib")
loaded = [name for name in watched if name in sys.modules]
import json
print(json.dumps([status, loaded]))
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding ``c2.alg``, the ``cyclic:2`` export."""
    path = tmp_path_factory.mktemp("startup")
    (path / "c2.alg").write_bytes(serialize(bundle_of_entry(get_entry("cyclic:2"))))
    return path


def loaded(workdir, *args: str) -> list[str]:
    status, names = json.loads(_fresh(PROBE, *args, cwd=workdir).splitlines()[-1])
    assert status == 0
    return names


class TestImportGraph:
    @pytest.mark.parametrize(
        "args",
        [("check", "c2.alg"), ("construct", "dual", "c2.alg", "--out", "dual_c2.alg")],
        ids=["check", "construct"],
    )
    def test_file_commands_load_neither_verify_nor_catalog(self, workdir, args):
        assert loaded(workdir, *args) == []

    def test_verify_on_a_file_loads_no_catalog(self, workdir):
        assert loaded(workdir, "verify", "thm4.5", "--algebra", "c2.alg") == ["homhopf.verify"]

    def test_export_loads_no_verify(self, workdir):
        assert loaded(workdir, "export", "cyclic:2") == ["homhopf.catalog"]

    def test_only_a_report_loads_hashlib(self, workdir):
        names = loaded(workdir, "check", "c2.alg", "--report", "report.json")
        assert names == ["hashlib"]
        assert json.loads((workdir / "report.json").read_text())["status"] == 0

