"""Start-up: the package's public names, and which modules a command loads.

Every ``homhopf`` command is a fresh process, so what it imports is compiled
and executed on every run.  ``homhopf`` loads each of its public names on
first use; ``cli`` holds the parser and no command body, and imports the
package modules only in the commands that use them: each command loads the
module of its own body (``check``, ``construct``, ``verify``, ``export``)
and none of the other three, and the helpers they share, ``cliio``.  No
module imports ``cli``, so a ``python -m homhopf.cli`` process compiles it
once.  Only ``--report`` loads CPython's string escaper ``_json`` and a
SHA-256: the built-in ``_sha256`` where it exists, and then never OpenSSL's
``_hashlib``; no command loads ``json`` itself.
``cli`` needs nothing outside the standard library: it parses its arguments
by its own command table, without ``argparse``, and only ``--help`` and a
refused command line load its help texts (``clihelp``).  Only a command that
reads a file loads the reader ``algread``, only a command that runs a
checker loads ``checkers``, and no command loads the matched-pair route
(``matchedpair``).  No command loads
``dataclasses`` or the dense file records of ``fileformat``, and none makes
a dense structure tensor.  A command whose
scalars are all integers loads neither ``fractions`` nor ``decimal``.  The import-graph
tests run each command in a fresh interpreter and read ``sys.modules`` after
``main`` exits.
"""

import ast
import errno
import gc
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import homhopf
from homhopf import (
    algfile, bicross, catalog, checkers, cli, cliio, constructions, exactlin, laws, matchedpair, pairing,
    structures, twist, yau,
)
from homhopf.algfile import AlgebraFile, block_record, bundle_of_entry, write
from homhopf.catalog import get_entry
from homhopf.cli import COMMANDS, main
from homhopf.cliio import _write_report
from homhopf.exactlin import dense

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "homhopf"

# The names that left each module: the data-law checkers left ``structures``
# for ``laws``, and the laws of sections 3 and 4 then left ``laws`` for
# ``pairing`` and ``twist``; the bicrossproduct constructions left
# ``constructions`` for ``bicross``, and the double of a dual pair for
# ``pairing``.  The sweeps and the Hopf-level checkers left ``structures`` and
# ``exactlin`` for ``checkers`` (the six the benchmark's tracer spans still
# resolve through ``structures``), the matched-pair route left ``laws`` and
# ``bicross`` for ``matchedpair``, the help texts left ``cli`` for
# ``clihelp``, and each helper with one caller moved to it.  The 2-cocycles
# left ``structures`` for ``twist``, the matched-pair data ``structures`` for
# ``matchedpair`` and the comodule axioms ``twist`` for ``checkers``; the
# cocycle twist, the canonical cocycles (both now in ``twist``) and the Yau
# twist (now in ``yau``) still resolve through ``constructions``, where the
# benchmark's tracer spans them.
MOVED_FROM = {
    structures: (
        "MatchedPairData", "TwoCocycle", "_grid", "_morphism_products", "_multiplicative_cases",
        "_partial_forms", "_prefixed", "_product_law", "_sweep", "check_cocycle", "check_comodule",
        "check_comodule_algebra", "check_comodule_coalgebra", "check_cotwisting", "check_dual_pair",
        "check_left_comodule_algebra", "check_matched_pair", "check_module", "check_module_algebra",
        "check_module_coalgebra", "check_morphism", "check_twisting", "make_entry", "merge_reports",
    ),
    exactlin: (
        "_by_first_leg", "_integer", "_power_product", "parse_scalar", "product_cases", "square_cases",
        "tensor_power_products",
    ),
    laws: (
        "_partial_forms", "_prefixed", "check_cocycle", "check_comodule", "check_comodule_algebra",
        "check_cotwisting", "check_dual_pair", "check_left_comodule_algebra", "check_matched_pair",
        "check_module_coalgebra", "check_twisting",
    ),
    constructions: (
        "PairedDouble", "bicross_hypotheses", "bicrossproduct", "comodule_cotwist", "double_cross_product",
        "dual_matched_pair", "dual_pair_double", "evaluation_pairing", "self_bicross",
        "self_bicross_data",
    ),
    bicross: ("double_cross_product", "dual_matched_pair"),
    twist: ("check_comodule",),
    catalog: ("BicrossGolden", "catalog_ex27_expected"),
    cliio: ("_print_suite", "_suite_json"),
    cli: ("HELP", "_metavar", "_usage"),
}
# The checkers the benchmark's tracer spans as ``structures.<name>``.
SPANNED = (
    "check_antipode", "check_hom_algebra", "check_hom_bialgebra", "check_hom_coalgebra",
    "check_quasitriangular", "run_hopf_suite",
)
# The constructions it spans as ``constructions.<name>``, each with its module.
SPANNED_CONSTRUCTIONS = {"canonical_cocycles": twist, "cocycle_twist": twist, "yau_twist": yau}

ALL = (
    "CatalogEntry", "CheckEntry", "CheckReport", "ComoduleCoaction", "HomAlgebra",
    "HomBialgebra", "HomCoalgebra", "HomHopfAlgebra", "MatchedPairData", "ModuleAction",
    "PairingForm", "RMatrix", "TwoCocycle", "Witness", "bicross", "bicrossproduct",
    "canonical_cocycles", "canonical_r_matrix", "catalog", "catalog_ax1", "catalog_cyclic",
    "catalog_ex27_expected", "catalog_group", "catalog_kz2", "catalog_one",
    "catalog_sweedler_hom", "check_antipode", "check_cocycle", "check_comodule",
    "check_comodule_algebra", "check_comodule_coalgebra", "check_cotwisting",
    "check_dual_pair", "check_hom_algebra", "check_hom_bialgebra", "check_hom_coalgebra",
    "check_matched_pair", "check_module", "check_module_algebra", "check_module_coalgebra",
    "check_quasitriangular", "check_twisting", "cocycle_twist", "comodule_cotwist",
    "constructions", "cotwist_coproduct", "double_cross_product", "drinfeld_double",
    "drinfeld_double_tilde", "dual", "dual_matched_pair", "dual_pair_double", "errors",
    "evaluation_pairing", "exactlin", "get_entry", "heisenberg_double", "laws", "opposite",
    "pairing", "run_hopf_suite", "self_bicross", "smash_product", "structures", "twist",
    "yau_twist",
)


def _env(**extra) -> dict:
    """This environment with this source tree first on ``PYTHONPATH``."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def _fresh(code: str, *args: str, cwd=None) -> str:
    """The stdout of ``code`` run in a fresh interpreter on this source tree."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd,
        env=_env(),
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


class TestMovedNames:
    """The moved functions have one path each: the section-2 data laws are
    names of ``laws``, the bicrossproduct constructions names of
    ``bicross``, the dual-pair laws and constructions names of ``pairing``
    and the cocycle and comodule-algebra laws names of ``twist``, not of
    ``structures``, ``constructions`` or ``laws``; the package still loads
    each of them on first use."""

    @pytest.mark.parametrize(
        "old, name",
        [(old, name) for old, names in MOVED_FROM.items() for name in names],
        ids=lambda v: v if isinstance(v, str) else v.__name__.split(".")[-1],
    )
    def test_old_path_is_gone(self, old, name):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(old, name)
        with pytest.raises(ImportError):
            exec(f"from {old.__name__} import {name}", {})

    def test_package_names_come_from_the_new_modules(self):
        from homhopf import (
            MatchedPairData, TwoCocycle, bicrossproduct, check_cocycle, check_comodule, check_hom_algebra,
            check_matched_pair, check_module, cocycle_twist, comodule_cotwist, evaluation_pairing, yau_twist,
        )

        assert check_module is laws.check_module
        assert check_cocycle is twist.check_cocycle
        assert evaluation_pairing is pairing.evaluation_pairing
        assert bicrossproduct is bicross.bicrossproduct
        assert check_hom_algebra is checkers.check_hom_algebra
        assert check_matched_pair is matchedpair.check_matched_pair
        assert comodule_cotwist is bicross.comodule_cotwist
        assert TwoCocycle is twist.TwoCocycle and cocycle_twist is twist.cocycle_twist
        assert MatchedPairData is matchedpair.MatchedPairData
        assert check_comodule is checkers.check_comodule
        assert yau_twist is yau.yau_twist

    @pytest.mark.parametrize("name", SPANNED)
    def test_a_spanned_checker_resolves_through_structures(self, name):
        assert getattr(structures, name) is getattr(checkers, name)

    @pytest.mark.parametrize("name", SPANNED_CONSTRUCTIONS)
    def test_a_spanned_construction_resolves_through_constructions(self, name):
        assert getattr(constructions, name) is getattr(SPANNED_CONSTRUCTIONS[name], name)

    def test_constructions_loads_the_twists_on_first_use(self):
        code = (
            "import sys, homhopf.constructions\n"
            "print('homhopf.twist' in sys.modules, 'homhopf.yau' in sys.modules)\n"
            "from homhopf.constructions import cocycle_twist\n"
            "print('homhopf.twist' in sys.modules, 'homhopf.yau' in sys.modules)\n"
            "twist = sys.modules['homhopf.twist']\n"
            "print(cocycle_twist is twist.cocycle_twist, homhopf.constructions.yau_twist.__module__)\n"
        )
        assert _fresh(code).split() == ["False", "False", "True", "False", "True", "homhopf.yau"]

    def test_structures_loads_the_checkers_on_first_use(self):
        code = (
            "import sys, homhopf.structures\n"
            "print('homhopf.checkers' in sys.modules)\n"
            "run = homhopf.structures.run_hopf_suite\n"
            "print('homhopf.checkers' in sys.modules, run is sys.modules['homhopf.checkers'].run_hopf_suite)\n"
        )
        assert _fresh(code).split() == ["False", "True", "True"]

    @pytest.mark.parametrize("module", [structures, constructions, laws, checkers, matchedpair])
    def test_unknown_name(self, module):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            module.no_such_name

    def test_old_modules_load_no_new_module(self):
        code = (
            "import sys, homhopf.structures, homhopf.constructions, homhopf.catalog\n"
            "for module, name in ((homhopf.structures, 'check_cocycle'),\n"
            "                     (homhopf.structures, 'check_morphism'),\n"
            "                     (homhopf.constructions, 'bicrossproduct'),\n"
            "                     (homhopf.constructions, 'dual_pair_double')):\n"
            "    print(hasattr(module, name))\n"
            "new = ('laws', 'bicross', 'pairing', 'twist', 'checkers', 'matchedpair', 'yau')\n"
            "print(*(f'homhopf.{m}' in sys.modules for m in new))\n"
        )
        assert _fresh(code).split() == ["False"] * 11


# Prints every class that a ``homhopf`` module defines as a dataclass.
DATACLASSES = """
import dataclasses, sys
import homhopf.structures, homhopf.constructions, homhopf.verify, homhopf.catalog
import homhopf.fileformat
for name, module in sorted(sys.modules.items()):
    if name.startswith("homhopf"):
        for key, value in sorted(vars(module).items()):
            if isinstance(value, type) and value.__module__ == name:
                if dataclasses.is_dataclass(value):
                    print(f"{name}.{key}")
"""


class TestValueTypes:
    """A dataclass ``exec``s generated methods when its class is defined, in
    every process; the value types are ``structures.Record`` subclasses."""

    def test_only_the_file_records_are_dataclasses(self):
        assert _fresh(DATACLASSES).split() == [
            "homhopf.fileformat.AlgebraFile",
            "homhopf.fileformat.BlockRecord",
            "homhopf.fileformat.ObjectRecord",
        ]

    def test_structures_loads_no_dataclasses(self):
        code = "import sys, homhopf.structures\nprint('dataclasses' in sys.modules)\n"
        assert _fresh(code).split() == ["False"]


# Runs one command and prints, as its last stdout line, the command's exit
# status and the names of all the modules loaded when it ended.
PROBE = """
import sys
from homhopf.cli import main
try:
    main(args=sys.argv[1:], prog_name="homhopf")
except SystemExit as exc:
    status = exc.code
loaded = sorted(sys.modules)
import json
print(json.dumps([status, loaded]))
"""
DENSE_RECORDS = ("dataclasses", "homhopf.fileformat")
WATCHED = ("homhopf.verify", "homhopf.catalog", "hashlib", *DENSE_RECORDS)
# The modules that hold one section of the paper each: the bicrossproduct
# (``bicross`` and its data laws, ``laws``), the matched-pair route, dual
# pairs and the twists.
SECTIONS = ("homhopf.bicross", "homhopf.laws", "homhopf.matchedpair", "homhopf.pairing", "homhopf.twist")
# The ``json`` package and the parts of it a report never needs.
JSON = ("json", "json.decoder", "json.encoder", "json.scanner")
# Whether this interpreter has CPython's built-in SHA-256 module (renamed from Python 3.12 on).
HAS_SHA256 = importlib.util.find_spec("_sha256") is not None
# Every module a command may load: all of the package but ``fileformat``.
COMMAND_MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "fileformat")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding ``c2.alg``, the ``cyclic:2`` export, ``sigma.alg``,
    the trivial cocycle ``counit (x) counit`` on it, ``sw.alg``, the
    ``sweedler_hom`` export with its R-matrix, ``ax1.alg``, the ``ax1``
    export with its action and coaction, and ``bad.alg``, a file with no
    valid header."""
    path = tmp_path_factory.mktemp("startup")
    bundle = bundle_of_entry(get_entry("cyclic:2"))
    (path / "c2.alg").write_bytes(write(bundle))
    c2 = bundle.object()
    counit = dense(c2.counit)
    trivial = tuple(tuple(a * b for b in counit) for a in counit)
    cocycle = block_record("cocycle", "sigma", (c2.name, "left"), trivial)
    (path / "sigma.alg").write_bytes(write(AlgebraFile(bundle.schema_version, (c2,), (cocycle,))))
    (path / "sw.alg").write_bytes(write(bundle_of_entry(get_entry("sweedler_hom"))))
    (path / "ax1.alg").write_bytes(write(bundle_of_entry(get_entry("ax1"))))
    (path / "bad.alg").write_text("homhopf-algebra 1\nobject nonsense\n")
    return path


def modules(workdir, *args: str, status: int = 0) -> set[str]:
    """The modules loaded by one command that exits with ``status``."""
    got, names = json.loads(_fresh(PROBE, *args, cwd=workdir).splitlines()[-1])
    assert got == status
    return set(names)


def loaded(workdir, *args: str) -> list[str]:
    names = modules(workdir, *args)
    return [name for name in WATCHED if name in names]


def sections(workdir, *args: str, status: int = 0) -> list[str]:
    """Which of the section modules one command loads."""
    names = modules(workdir, *args, status=status)
    return [name for name in SECTIONS if name in names]


def module_level_imports(path: Path):
    """The import statements that run when the module at ``path`` is
    imported: every one outside a function body and an ``if TYPE_CHECKING:``
    block."""
    stack = list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def standard(node) -> set[str]:
    """The top-level modules outside the package an import statement loads."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[0] for a in node.names}
    return set() if node.level else {node.module.split(".")[0]}


def imported(node) -> set[str]:
    """The package modules an import statement loads, by their short names."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("homhopf.")}
    if node.level and node.module:
        return {node.module.split(".")[0]}
    if node.level:
        return {a.name for a in node.names}
    if node.module == "homhopf":
        return {a.name for a in node.names}
    return {node.module.split(".")[1]} if node.module.startswith("homhopf.") else set()


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

    @pytest.mark.parametrize(
        "args",
        [("check", "cyclic:3"), ("check", "c2.alg"), ("verify", "thm4.5", "--algebra", "cyclic:3")],
        ids=["check-cyclic", "check-file", "verify-thm4.5"],
    )
    def test_integral_inputs_load_no_fractions(self, workdir, args):
        names = modules(workdir, *args)
        assert [n for n in ("fractions", "decimal") if n in names] == []

    def test_a_proper_fraction_loads_fractions(self, workdir):
        # the R-matrix block of sw.alg holds 1/2
        assert "fractions" in modules(workdir, "check", "sw.alg", "--level", "quasitriangular")

    @pytest.mark.parametrize("report", [False, True], ids=["plain", "report"])
    def test_only_a_report_loads_json_and_a_sha256(self, workdir, report):
        """``--report`` loads CPython's string escaper ``_json`` and its
        built-in SHA-256, and OpenSSL's ``_hashlib`` only where there is no
        ``_sha256``, through ``hashlib``; never ``json`` itself.  A command
        without ``--report`` loads none of them.  Either way it loads
        neither ``verify`` nor ``catalog``."""
        args = ("check", "c2.alg", *(("--report", "report.json") if report else ()))
        names = modules(workdir, *args)
        via_hashlib = ["hashlib"] if report and not HAS_SHA256 else []
        assert [n for n in WATCHED if n in names] == via_hashlib
        digests = [n for n in (*JSON, "_json", "_sha256", "hashlib", "_hashlib") if n in names]
        if not report:
            assert digests == []
        elif HAS_SHA256:
            assert digests == ["_json", "_sha256"]
        else:
            assert digests[:1] == ["_json"] and "hashlib" in digests

    @pytest.mark.parametrize(
        "args, status",
        [
            (("check", "cyclic:3"), 0),
            (("check", "ax1", "--level", "bialgebra"), 1),
            (("construct", "double", "c2.alg", "--out", "js_d_c2.alg"), 0),
            (("construct", "twist", "c2.alg", "--cocycle", "sigma.alg", "--out", "js_t_c2.alg"), 0),
            (("construct", "bicross", "ax1", "--out", "js_b_ax1.alg"), 0),
            (("verify", "thm4.5", "--algebra", "cyclic:2"), 0),
            (("verify", "thm2.6", "--algebra", "ax1"), 1),
            (("verify", "dual-pair", "--algebra", "c2.alg"), 0),
        ],
        ids=lambda v: v if isinstance(v, int) else "-".join(v[:2]),
    )
    def test_no_report_loads_json(self, workdir, args, status):
        """A report is written by ``cliio._json_text``: no ``--report``
        command, passing or failing, loads ``json`` or its decoder."""
        names = modules(workdir, *args, "--report", "js.json", status=status)
        assert [n for n in JSON if n in names] == []
        assert "_json" in names

    def test_a_report_digests_its_input_file(self, workdir):
        modules(workdir, "check", "c2.alg", "--report", "digest.json")
        report = json.loads((workdir / "digest.json").read_text())
        assert report["status"] == 0
        assert report["inputs"] == [
            {"source": "c2.alg", "sha256": hashlib.sha256((workdir / "c2.alg").read_bytes()).hexdigest()}
        ]

    @pytest.mark.parametrize(
        "args, status",
        [
            (("check", "c2.alg"), 0),
            (("check", "ax1"), 1),
            (("export", "ax1"), 0),
            (("export", "cyclic:4"), 0),
            (("check", "cyclic:3"), 0),
        ],
        ids=["check-file", "check-catalog", "export", "export-cyclic", "check-cyclic"],
    )
    def test_check_and_export_load_no_constructions(self, workdir, args, status):
        assert "homhopf.constructions" not in modules(workdir, *args, status=status)

    @pytest.mark.parametrize(
        "args, status",
        [
            (("check", "c2.alg"), 0),
            (("check", "ax1"), 1),
            (("export", "ax1"), 0),
            (("verify", "prop2.19", "--algebra", "c2.alg"), 0),
            *(
                (("construct", kind, "c2.alg", "--out", f"{kind}_c2.alg"), 0)
                for kind in ("dual", "op", "double", "double-tilde", "heisenberg")
            ),
        ],
        ids=lambda v: v if isinstance(v, int) else "-".join(v[:2]),
    )
    def test_check_export_and_closed_constructions_load_no_section(self, workdir, args, status):
        assert sections(workdir, *args, status=status) == []

    @pytest.mark.parametrize(
        "args",
        [
            *(("verify", suite, "--algebra", "c2.alg") for suite in ("thm4.5", "prop4.7")),
            ("construct", "twist", "c2.alg", "--cocycle", "sigma.alg", "--out", "t_c2.alg"),
        ],
        ids=lambda v: "-".join(v[:2]),
    )
    def test_twist_commands_load_only_the_twists(self, workdir, args):
        assert sections(workdir, *args) == ["homhopf.twist"]

    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "dual-pair", "--algebra", "c2.alg"),
            ("construct", "dual-pair-double", "c2.alg", "--out", "p_c2.alg"),
        ],
        ids=lambda v: "-".join(v[:2]),
    )
    def test_dual_pair_commands_load_only_the_dual_pairs(self, workdir, args):
        assert sections(workdir, *args) == ["homhopf.pairing"]

    @pytest.mark.parametrize(
        "args, status",
        [
            (("construct", "bicross", "ax1", "--out", "b_ax1.alg"), 0),
            (("construct", "self-bicross", "c2.alg", "--out", "sb_c2.alg"), 0),
            (("verify", "thm2.6", "--algebra", "ax1"), 1),
            (("verify", "cor2.9", "--algebra", "c2.alg"), 0),
        ],
        ids=lambda v: v if isinstance(v, int) else "-".join(v[:2]),
    )
    def test_bicrossproduct_commands_load_its_laws_and_the_comodule_axioms(
        self, workdir, args, status
    ):
        # ``laws`` reads the comodule axioms of its comodule coalgebras from
        # ``checkers``, so no bicrossproduct command loads the twists
        assert sections(workdir, *args, status=status) == ["homhopf.bicross", "homhopf.laws"]

    # suite -> its input file, its exit status and its own modules beyond the base
    OWN = {
        "thm2.6": ("ax1.alg", 1, ("bicross", "catalog", "laws")),
        "cor2.9": ("c2.alg", 0, ("bicross", "laws")),
        "prop2.19": ("c2.alg", 0, ()),
        "thm4.5": ("c2.alg", 0, ("twist",)),
        "dual-pair": ("c2.alg", 0, ("pairing",)),
        "prop4.7": ("c2.alg", 0, ("twist",)),
    }

    @pytest.mark.parametrize("suite", OWN)
    def test_a_suite_on_a_file_loads_its_own_section(self, workdir, suite):
        """Every suite loads the file reader, the checkers, the constructions
        and ``verify``, and of the rest only its own section; ``thm2.6`` also
        the catalog, for its golden tables.  None loads the help texts."""
        source, status, own = self.OWN[suite]
        base = (
            "algfile", "algread", "checkers", "cli", "cliio", "constructions", "errors", "exactlin",
            "structures", "verify",
        )
        names = modules(workdir, "verify", suite, "--algebra", source, status=status)
        assert sorted(n for n in names if n.startswith("homhopf.")) == sorted(
            f"homhopf.{m}" for m in (*base, *own)
        )

    @pytest.mark.parametrize("suite", OWN)
    def test_a_suite_on_a_refused_file_loads_no_checker_and_no_section(self, workdir, suite):
        """``verify`` looks its suite up once the input has loaded: a file the
        reader refuses ends the command with ``verify``, the reader and the
        domain types alone, as it ends ``check``."""
        names = modules(workdir, "verify", suite, "--algebra", "bad.alg", status=2)
        assert [n for n in ("homhopf.checkers", "homhopf.constructions", *SECTIONS) if n in names] == []
        check = modules(workdir, "check", "bad.alg", status=2)
        assert {n for n in names if n.startswith("homhopf.")} - check == {"homhopf.verify"}

    @pytest.mark.parametrize(
        "args",
        [
            ("check", "c2.alg"),
            ("construct", "dual", "c2.alg", "--out", "body_c2.alg"),
            ("verify", "prop2.19", "--algebra", "c2.alg"),
            ("export", "ax1"),
        ],
        ids=lambda v: v[0],
    )
    def test_a_command_loads_its_own_body_only(self, workdir, args):
        names = modules(workdir, *args)
        assert [c for c in COMMANDS if f"homhopf.{c}" in names] == [args[0]]
        assert "homhopf.cliio" in names

    @pytest.mark.parametrize(
        "args, status",
        [
            (("--version",), 0),
            (("--help",), 0),
            (("check", "c2.alg", "--level", "bogus"), 2),
            (("check", "c2.alg"), 0),
            (("construct", "dual", "c2.alg", "--out", "ap_c2.alg"), 0),
            (("verify", "thm4.5", "--algebra", "cyclic:4"), 0),
            (("export", "ax1"), 0),
        ],
        ids=["version", "help", "usage-error", "check", "construct", "verify", "export"],
    )
    def test_no_command_loads_argparse(self, workdir, args, status):
        names = modules(workdir, *args, status=status)
        assert [n for n in ("argparse", "gettext") if n in names] == []

    @pytest.mark.parametrize(
        "args, reads",
        [
            (("check", "cyclic:3"), False),
            (("verify", "thm4.5", "--algebra", "cyclic:4"), False),
            (("construct", "double", "cyclic:2", "--out", "rd_c2.alg"), False),
            (("export", "ax1"), False),
            (("check", "c2.alg"), True),
            (("verify", "thm4.5", "--algebra", "c2.alg"), True),
            (("construct", "double", "c2.alg", "--out", "rf_c2.alg"), True),
            (("construct", "twist", "cyclic:2", "--cocycle", "sigma.alg", "--out", "rt_c2.alg"), True),
        ],
        ids=lambda v: v if isinstance(v, bool) else "-".join(v[:3]),
    )
    def test_only_a_command_that_reads_a_file_loads_the_reader(self, workdir, args, reads):
        assert ("homhopf.algread" in modules(workdir, *args)) is reads

    def test_version_loads_nothing_of_the_package_beyond_init(self, workdir):
        names = modules(workdir, "--version")
        assert sorted(n for n in names if n.startswith("homhopf")) == ["homhopf", "homhopf.cli"]

    @pytest.mark.parametrize(
        "args",
        [
            ("--version",),
            ("check", "c2.alg", "--report", "r.json"),
            ("construct", "double", "c2.alg", "--out", "d_c2.alg"),
            ("verify", "prop2.19", "--algebra", "cyclic:2"),
            ("export", "sweedler_hom"),
        ],
        ids=["version", "check", "construct", "verify", "export"],
    )
    def test_no_command_loads_click(self, workdir, args):
        assert not any(n == "click" or n.startswith("click.") for n in modules(workdir, *args))

    @pytest.mark.parametrize(
        "args, status",
        [
            (("check", "c2.alg"), 0),
            (("check", "cyclic:3", "--level", "bialgebra"), 0),
            (("check", "sw.alg", "--level", "quasitriangular"), 0),
            (("construct", "double", "c2.alg", "--out", "dd_c2.alg"), 0),
            (("construct", "twist", "cyclic:2", "--cocycle", "sigma.alg", "--out", "tw_c2.alg"), 0),
            (("construct", "bicross", "ax1", "--out", "bx_ax1.alg"), 0),
            (("verify", "prop2.19", "--algebra", "c2.alg"), 0),
            (("verify", "thm2.6", "--algebra", "ax1"), 1),
            (("verify", "cor2.9", "--algebra", "cyclic:2"), 0),
        ],
        ids=lambda v: v if isinstance(v, int) else "-".join(v[:3]),
    )
    def test_no_command_loads_dataclasses_or_the_dense_records(self, workdir, args, status):
        names = modules(workdir, *args, "--report", "r.json", status=status)
        assert [n for n in DENSE_RECORDS if n in names] == []

    @pytest.mark.parametrize(
        "args, status",
        [
            (("export", "cyclic:3"), 0),
            (("export", "ax1", "--out", "nc_ax1.alg"), 0),
            *(
                (("construct", kind, "cyclic:3", "--out", f"nc_{kind}_c3.alg"), 0)
                for kind in ("dual", "op", "double", "heisenberg")
            ),
            (("check", "bad.alg"), 2),
        ],
        ids=lambda v: v if isinstance(v, int) else "-".join(v[:2]),
    )
    def test_a_command_that_runs_no_checker_loads_none(self, workdir, args, status):
        """An export and a closed construction check nothing, and a file the
        reader refuses ends the command before a checker runs."""
        assert "homhopf.checkers" not in modules(workdir, *args, status=status)

    @pytest.mark.parametrize(
        "args, status",
        [
            *(
                (("verify", suite, "--algebra", source), status)
                for suite, (source, status, _) in OWN.items()
            ),
            (("construct", "bicross", "ax1", "--out", "mp_b_ax1.alg"), 0),
            (("construct", "self-bicross", "c2.alg", "--out", "mp_sb_c2.alg"), 0),
            (("construct", "twist", "c2.alg", "--cocycle", "sigma.alg", "--out", "mp_t_c2.alg"), 0),
            (("check", "c2.alg"), 0),
        ],
        ids=lambda v: v if isinstance(v, int) else "-".join(v[:2]),
    )
    def test_no_command_loads_the_matched_pair_route(self, workdir, args, status):
        assert "homhopf.matchedpair" not in modules(workdir, *args, status=status)

    @pytest.mark.parametrize(
        "args, status, helps",
        [
            (("--help",), 0, True),
            (("check", "--help"), 0, True),
            (("check", "c2.alg", "--level", "bogus"), 2, True),
            (("frobnicate",), 2, True),
            (("--version",), 0, False),
            (("check", "c2.alg"), 0, False),
            (("check", "bad.alg"), 2, False),
            (("export", "ax1"), 0, False),
            (("verify", "prop2.19", "--algebra", "c2.alg"), 0, False),
        ],
        ids=lambda v: v if isinstance(v, (int, bool)) else "-".join(v[:3]),
    )
    def test_only_help_and_a_refused_command_line_load_the_help_texts(self, workdir, args, status, helps):
        assert ("homhopf.clihelp" in modules(workdir, *args, status=status)) is helps


# The package source lines a fresh ``python -m homhopf.cli`` process may
# compile, by command, with its exit status; ``c2.alg`` is the ``cyclic:2``
# export.  Each ceiling is the count when it was set, rounded up to the next
# 50 lines.  A suite on a file the reader refuses compiles what ``check``
# on it compiles, and ``verify`` (its option comes first, so that its test id
# is not the catalog ``thm4.5``'s).
COMPILE_BUDGET = {
    ("--version",): (0, 350),
    ("--help",): (0, 400),
    ("check", "c2.alg", "--level", "bogus"): (2, 550),
    ("check", "bad.alg"): (2, 1950),
    ("check", "c2.alg"): (0, 2350),
    ("check", "cyclic:3"): (0, 2350),
    ("export", "cyclic:3"): (0, 1950),
    ("construct", "op", "cyclic:3", "--out", "cb_op_c3.alg"): (0, 2300),
    ("construct", "double", "c2.alg", "--out", "cb_d_c2.alg"): (0, 2300),
    ("construct", "bicross", "ax1", "--out", "cb_b_ax1.alg"): (0, 3150),
    ("verify", "thm4.5", "--algebra", "cyclic:4"): (0, 3000),
    ("verify", "--algebra", "bad.alg", "thm4.5"): (2, 2050),
    ("verify", "prop2.19", "--algebra", "c2.alg"): (0, 2800),
    ("verify", "dual-pair", "--algebra", "c2.alg"): (0, 3050),
    ("verify", "cor2.9", "--algebra", "c2.alg"): (0, 3250),
}


def compiled(workdir, *args: str, status: int) -> list[Path]:
    """The package source files one ``python -m homhopf.cli`` process compiles
    or loads from a bytecode cache, from its ``-v`` log, as
    ``test_a_process_compiles_cli_once`` reads it."""
    proc = subprocess.run(
        [sys.executable, "-v", "-m", "homhopf.cli", *args],
        cwd=workdir,
        env=_env(PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == status, proc.stderr[-2000:]
    lines = proc.stderr.splitlines()
    # each line names a source file, or its cached bytecode where a cache exists
    code = [Path(line[len("# code object from ") :].strip("'")) for line in lines if line.startswith("# code object from ")]
    return [PACKAGE / f"{p.name.split('.')[0]}.py" for p in code if "homhopf" in p.parts]


@pytest.mark.parametrize("args", COMPILE_BUDGET, ids=lambda v: "-".join(v[:3]))
def test_a_command_compiles_within_its_line_budget(workdir, args):
    """Compiling the package's source is most of a short command's own cost
    (about 10 us a line), so each command has a ceiling on the lines it
    compiles: code a command never runs lives in a module it does not load."""
    status, ceiling = COMPILE_BUDGET[args]
    lines = sum(len(p.read_text().splitlines()) for p in compiled(workdir, *args, status=status))
    assert lines <= ceiling


class TestImportBoundaries:
    """A module imports a section of the paper (``bicross``, ``laws``,
    ``matchedpair``, ``pairing``, ``twist``), the sweeps (``checkers``), the
    help texts (``clihelp``) or the suite module ``verify`` when it is itself
    imported only where every command that loads it runs that code, and no
    module a command loads imports ``fileformat`` or ``dataclasses``."""

    # the bicrossproduct runs its data laws, and they the comodule axioms of
    # ``checkers``; the matched-pair route runs the bicrossproduct hypotheses
    # and its laws; every section runs the sweeps of ``checkers``, and
    # ``verify`` imports them in the one suite it holds, once the input has loaded
    ALLOWED = {
        "bicross": {"checkers", "laws"},
        "laws": {"checkers"},
        "matchedpair": {"bicross", "checkers", "laws", "twist"},
        "pairing": {"checkers"},
        "twist": {"checkers"},
    }

    @pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
    def test_module_level_imports_of_sections_and_suites(self, module):
        watched = {"bicross", "checkers", "clihelp", "laws", "matchedpair", "pairing", "twist", "verify"}
        found = set()
        for node in module_level_imports(PACKAGE / f"{module}.py"):
            found |= imported(node) & watched
        assert found == self.ALLOWED.get(module, set())

    @pytest.mark.parametrize("module", COMMAND_MODULES)
    def test_no_module_level_import_of_fileformat_or_dataclasses(self, module):
        found = [
            n.lineno
            for n in module_level_imports(PACKAGE / f"{module}.py")
            if "fileformat" in imported(n) or "dataclasses" in standard(n)
        ]
        assert found == []


# Runs seven commands with ``exactlin.dense_cells`` and ``exactlin.dense_rows``
# refused, so that making a dense rank-3 tensor or a dense matrix crashes the
# process, and prints their exit codes.  ``verify dual-pair`` runs through
# ``dual_pair_double``, and ``verify cor2.9`` through ``comodule_cotwist`` and
# ``cotwist_coproduct``.
NO_DENSE = """
from homhopf import exactlin


def refused(table):
    raise AssertionError("a dense tensor or matrix was made")


exactlin.dense_cells = exactlin.dense_rows = refused  # before any module binds the names
from homhopf.cli import main

codes = []
for args in (
    ["check", "cyclic:8"],
    ["check", "sw.alg", "--level", "quasitriangular"],
    ["construct", "double", "c2.alg", "--out", "nd_c2.alg"],
    ["verify", "prop2.19", "--algebra", "c2.alg"],
    ["verify", "dual-pair", "--algebra", "c2.alg"],
    ["verify", "cor2.9", "--algebra", "c2.alg"],
    ["export", "s3_inner", "--out", "nd_s3.alg"],
):
    try:
        main(args=args, prog_name="homhopf")
    except SystemExit as exc:
        codes.append(exc.code)
print(codes)
"""


def test_no_command_makes_a_dense_tensor(workdir):
    assert _fresh(NO_DENSE, cwd=workdir).splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0]"


# Runs five commands with ``import click`` refused, and prints their exit codes.
WITHOUT_CLICK = """
import sys


class RefuseClick:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "click":
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, RefuseClick())
from homhopf.cli import main

codes = []
for args in (
    ["check", "c2.alg"],
    ["construct", "dual", "c2.alg", "--out", "dual_c2.alg"],
    ["verify", "thm4.5", "--algebra", "c2.alg"],
    ["export", "ax1", "--out", "ax1.alg"],
    ["check", "c2.alg", "--level", "bogus"],
):
    try:
        main(args=args, prog_name="homhopf")
    except SystemExit as exc:
        codes.append(exc.code)
print(codes)
"""


def test_commands_run_with_click_refused(workdir):
    assert _fresh(WITHOUT_CLICK, cwd=workdir).splitlines()[-1] == "[0, 0, 0, 0, 2]"


@pytest.mark.parametrize(
    "args",
    [
        ("--version",),
        ("check", "c2.alg", "--report", "r.json"),
        ("construct", "double", "cyclic:2", "--out", "once_c2.alg"),
        ("verify", "thm4.5", "--algebra", "c2.alg"),
        ("export", "cyclic:3"),
    ],
    ids=lambda v: v[0].strip("-"),
)
def test_a_process_compiles_cli_once(workdir, args):
    """``python -m homhopf.cli`` runs ``cli`` as ``__main__``; a module that
    imported ``homhopf.cli`` would compile it a second time.  The import
    log (``-X importtime``) names a module imported by an import statement
    of its own name, and ``-v`` logs every source file compiled."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-v", "-m", "homhopf.cli", *args],
        cwd=workdir,
        env=_env(PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert [line for line in lines if line.startswith("import time:") and line.endswith(" homhopf.cli")] == []
    # each line names a source file, or its cached bytecode where a cache exists
    code = [Path(line[len("# code object from ") :].strip("'")) for line in lines if line.startswith("# code object from ")]
    assert len([p for p in code if p.name.split(".")[0] == "cli" and "homhopf" in p.parts]) == 1


CATALOG_EXPORTS = ("one", "ax1", "kz2", "sweedler_hom", "s3_inner", *(f"cyclic:{n}" for n in range(2, 9)))


@pytest.mark.parametrize("builtin", [True, False], ids=["_sha256", "hashlib"])
def test_a_report_digest_is_hashlib_sha256(tmp_path, monkeypatch, builtin):
    """Whichever SHA-256 ``_write_report`` takes, the built-in ``_sha256`` or
    its ``hashlib`` fallback, each input's digest and the report's own are
    ``hashlib.sha256``'s, on every catalog export and on random byte strings
    around the 64-byte block size."""
    if not builtin:
        monkeypatch.setitem(sys.modules, "_sha256", None)  # its import now raises ImportError
    rng = random.Random(0)
    inputs = [(name, write(bundle_of_entry(get_entry(name)))) for name in CATALOG_EXPORTS]
    inputs += [(f"random:{n}", rng.randbytes(n)) for n in (*range(130), 1000, 4096, 100_003)]
    _write_report(tmp_path / "r.json", "digest", inputs, [], 0)
    doc = json.loads((tmp_path / "r.json").read_text())
    assert [i["sha256"] for i in doc["inputs"]] == [hashlib.sha256(raw).hexdigest() for _, raw in inputs]
    digest = doc.pop("digest")
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    assert digest == hashlib.sha256(canonical).hexdigest()


def test_version_of_the_module_run_as_a_script():
    code = "import runpy; runpy.run_module('homhopf.cli', run_name='__main__', alter_sys=True)"
    assert _fresh(code, "--version") == "python -m homhopf.cli, version 0.1.0\n"


# One command of each way a process can end, with its exit status.
EXITS = {
    "pass": (("check", "c2.alg"), 0),
    "fail": (("check", "ax1", "--level", "bialgebra"), 1),
    "usage": (("check", "c2.alg", "--level", "bogus"), 2),
    "malformed": (("check", "bad.alg"), 2),
    "version": (("--version",), 0),
    "help": (("--help",), 0),
}


def _process(args, cwd, stdout=subprocess.PIPE, flags=()):
    """Exit status, stdout and stderr bytes of ``args`` run as a fresh
    ``python -m homhopf.cli`` process in ``cwd``, its stdout buffered unless
    ``flags`` holds ``-u``."""
    env = _env(COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "homhopf.cli", *args],
        cwd=cwd,
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(args, cwd, monkeypatch):
    """The same three of ``args`` run by ``main()`` in this process."""
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(args=list(args), prog_name="python -m homhopf.cli")
    return exc.value.code, out.getvalue().encode(), err.getvalue().encode()


class TestProcessExit:
    """A process runs its command through ``cli.run``, which adds only a
    flushed stdout, the ``atexit`` handlers and ``os._exit`` with the status
    on the way out: what a process prints and its exit status are those of
    ``main()`` in this process, and ``main()`` itself never freezes the heap."""

    @pytest.mark.parametrize("kind", EXITS)
    def test_process_matches_main(self, workdir, monkeypatch, kind):
        args, status = EXITS[kind]
        got = _process(args, workdir)
        assert got[0] == status
        assert got == _in_process(args, workdir, monkeypatch)

    def test_main_never_freezes(self, workdir, monkeypatch):
        frozen = gc.get_freeze_count()
        for args, _ in EXITS.values():
            _in_process(args, workdir, monkeypatch)
        assert gc.get_freeze_count() == frozen
        assert gc.isenabled()

    @pytest.mark.parametrize("kind", EXITS)
    def test_run_calls_the_atexit_handlers_and_skips_the_teardown(self, workdir, monkeypatch, kind):
        """``run`` skips the interpreter's teardown, not the ``atexit``
        handlers: one registered before it runs after the command, an object
        that only the teardown would finalize is left to the OS, and the
        process's status and output are still those of ``main()``."""
        args, status = EXITS[kind]
        code = (
            "import atexit, os, runpy, sys\n"
            "class Late:\n"
            "    def __del__(self):\n"
            "        os.write(2, b'finalized in the teardown\\n')\n"
            "late = Late()\n"
            "atexit.register(print, 'atexit handler ran', file=sys.stderr)\n"
            "runpy.run_module('homhopf.cli', run_name='__main__', alter_sys=True)\n"
        )
        env = _env(COLUMNS="80")
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run(
            [sys.executable, "-c", code, *args], cwd=workdir, env=env, capture_output=True, timeout=120
        )
        main_status, out, err = _in_process(args, workdir, monkeypatch)
        assert main_status == status
        assert (proc.returncode, proc.stdout, proc.stderr) == (status, out, err + b"atexit handler ran\n")


@pytest.mark.parametrize("flags", [(), ("-u",)], ids=["buffered", "unbuffered"])
class TestUnwritableStdout:
    """A failed write to standard output is an input/output error: exit 2
    with one line on stderr, and no traceback, for a command's output and
    for ``--version`` and ``--help`` alike.  Buffered, the write fails in
    ``run``'s flush, and the interpreter's last flush must not fail again;
    unbuffered, it fails where it is made, ``--help`` and ``--version``
    included."""

    COMMANDS = (("check", "c2.alg"), ("--version",), ("--help",))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device(self, workdir, flags):
        for args in self.COMMANDS:
            with open("/dev/full", "wb") as full:
                status, _, err = _process(args, workdir, stdout=full, flags=flags)
            assert status == 2, args
            assert err == f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n".encode()

    def test_closed_pipe(self, workdir, flags):
        for args in self.COMMANDS:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                status, _, err = _process(args, workdir, stdout=write_end, flags=flags)
            finally:
                os.close(write_end)
            assert status == 2, args
            assert err == f"error: cannot write standard output: {os.strerror(errno.EPIPE)}\n".encode()


class _ShortWrites(io.RawIOBase):
    """A raw file that takes at most ``CHUNK`` bytes per write, as a pipe or a
    socket may."""

    CHUNK = 4096

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        taken = bytes(b[: self.CHUNK])
        self.data += taken
        return len(taken)


class TestShortWrites:
    """Unbuffered (``-u``, ``PYTHONUNBUFFERED``), ``sys.stdout.buffer`` is the
    raw file, and its text layer drops what a short write leaves; ``export``
    and ``construct`` write their bytes until every one is taken, so the tail
    either goes out or fails the command (exit 2)."""

    @pytest.mark.parametrize(
        "args", [("export", "cyclic:64"), ("construct", "op", "cyclic:64")], ids=lambda v: v[0]
    )
    def test_a_short_write_delivers_every_byte(self, monkeypatch, args):
        captured = io.StringIO()
        with redirect_stdout(captured), pytest.raises(SystemExit):
            main(args=list(args), prog_name="homhopf")
        raw = _ShortWrites()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
        with pytest.raises(SystemExit) as exc:
            main(args=list(args), prog_name="homhopf")
        assert exc.value.code == 0
        assert len(raw.data) > 4 * _ShortWrites.CHUNK
        assert bytes(raw.data) == captured.getvalue().encode()

    @pytest.mark.parametrize("flags", [(), ("-u",)], ids=["buffered", "unbuffered"])
    def test_a_reader_that_stops_early_fails_the_command(self, workdir, flags):
        """``export cyclic:128`` (261 KB) into a pipe whose reader takes 10
        bytes and closes it: the write that the closed pipe cuts short is
        finished or refused, so the command exits 2."""
        env = _env()
        env.pop("PYTHONUNBUFFERED", None)
        command = [sys.executable, *flags, "-m", "homhopf.cli", "export", "cyclic:128"]
        pipes = dict(stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        with subprocess.Popen(command, cwd=workdir, env=env, **pipes) as proc:
            assert os.read(proc.stdout.fileno(), 10)
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 2
        assert err == f"error: cannot write standard output: {os.strerror(errno.EPIPE)}\n".encode()


@pytest.mark.parametrize(
    "args",
    [
        ("check", "cyclic:3"),
        ("verify", "prop2.19", "--algebra", "cyclic:2"),
        ("construct", "dual", "cyclic:3"),
    ],
    ids=lambda v: v[0],
)
def test_a_catalog_input_is_serialized_only_for_a_report(tmp_path, monkeypatch, args):
    """A catalog entry's bytes are only the ``--report`` input digest, so
    ``algfile.write`` writes the entry's bundle only when a report is asked
    for; ``construct`` writes its own output either way."""
    monkeypatch.chdir(tmp_path)
    bundle = bundle_of_entry(get_entry(args[-1]))
    written = []
    real = algfile.write

    def recording(file):
        written.append(file)
        return real(file)

    monkeypatch.setattr(algfile, "write", recording)
    for report in ((), ("--report", "r.json")):
        written.clear()
        with redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exc:
            main(args=[*args, *report], prog_name="homhopf")
        assert exc.value.code == 0
        assert [file for file in written if file == bundle] == ([bundle] if report else [])
