"""Command-line interface: exit codes, outputs, report determinism."""

import io
import json
import shlex
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import cells_from_entries, dense_field, replaced, run_cli
from homhopf.algfile import SCHEMA_VERSION, AlgebraFile, block_record, bundle_of_entry, write
from homhopf.algread import read
from homhopf.catalog import get_entry
from homhopf import cli
from homhopf.cli import COMMANDS, KINDS, LEVELS, SUITES, main
from homhopf.exactlin import compose, rows_from_entries, transpose_rows
from homhopf.structures import ComoduleCoaction, ModuleAction


def invoke(*args):
    return run_cli(args)


def _ax1_with_coalgebra_partner() -> str:
    """The ax1 export with ``mul``, ``unit`` and ``antipode`` stripped from
    ``ax1_partner``, which then holds only a coalgebra."""
    head, partner = invoke("export", "ax1").output.split("object ax1_partner\n")
    kept = [
        line
        for line in partner.splitlines(keepends=True)
        if line.split()[0] not in ("mul", "unit", "antipode")
    ]
    return head + "object ax1_partner\n" + "".join(kept)


def _without(text: str, obj: str, kind: str) -> str:
    """The definition file ``text`` with the ``kind`` lines of object ``obj`` dropped."""
    kept, current = [], None
    for line in text.splitlines(keepends=True):
        head, *rest = line.split()
        if head == "object":
            current = rest[0]
        elif head == "end":
            current = None
        if not (current == obj and head == kind):
            kept.append(line)
    return "".join(kept)


def _ax1_without(obj: str, kind: str) -> str:
    return _without(invoke("export", "ax1").output, obj, kind)


# the ax1 export with the roles of its coaction block swapped: a coaction of
# the partner on ax1, where the bicrossproduct needs one of ax1 on the partner
SWAPPED_ROLES = "error: bicrossproduct data must be an action of H on A and a coaction of A on H\n"


def _ax1_with_swapped_coaction() -> str:
    text = invoke("export", "ax1").output
    assert "coaction coact ax1 ax1_partner\n" in text
    return text.replace("coaction coact ax1 ax1_partner\n", "coaction coact ax1_partner ax1\n")


class TestCheckCommand:
    def test_passing_catalog_entry(self):
        result = invoke("check", "cyclic:3", "--level", "hopf")
        assert result.exit_code == 0
        assert "all checks passed" in result.output

    def test_quasitriangular_level(self):
        result = invoke("check", "sweedler_hom", "--level", "quasitriangular")
        assert result.exit_code == 0

    def test_quasitriangular_without_rmatrix(self):
        result = invoke("check", "cyclic:3", "--level", "quasitriangular")
        assert result.exit_code == 2

    def test_missing_file(self):
        result = invoke("check", "no_such_file.alg")
        assert result.exit_code == 2

    def test_oversized_cyclic_order_exits_two_before_building(self, monkeypatch):
        from homhopf import catalog

        def no_group(*args, **kwargs):
            raise AssertionError("a group algebra was built")

        monkeypatch.setattr(catalog, "catalog_group", no_group)
        for name in ("cyclic:100000", "cyclic:129", "cyclic:+3"):
            assert invoke("check", name).exit_code == 2
            assert invoke("verify", "thm4.5", "--algebra", name).exit_code == 2

    @pytest.mark.parametrize(
        "name, reason",
        [
            ("cyclic:129", "cyclic order must be an integer from 2 to 128, got 129"),
            ("cyclic:+3", "bad cyclic order '+3'"),
        ],
    )
    def test_bad_catalog_parameter_says_why(self, name, reason):
        result = invoke("check", name)
        assert result.exit_code == 2
        assert f"{name!r} is neither an existing file nor a catalog name" in result.stderr
        assert reason in result.stderr

    def test_known_failure_exits_one_with_witness(self):
        result = invoke("check", "ax1", "--level", "bialgebra")
        assert result.exit_code == 1
        assert "FAIL bialgebra.comul-multiplicative" in result.output
        assert "lhs" in result.output and "rhs" in result.output

    def test_mutated_file_exits_one(self, tmp_path):
        export = invoke("export", "cyclic:2", "--out", str(tmp_path / "c2.alg"))
        assert export.exit_code == 0
        text = (tmp_path / "c2.alg").read_text()
        (tmp_path / "bad.alg").write_text(text.replace("mul 1 1 0 1", "mul 1 1 0 -1"))
        result = invoke("check", str(tmp_path / "bad.alg"), "--level", "hopf")
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_parse_error_exits_two(self, tmp_path):
        (tmp_path / "bad.alg").write_text("homhopf 1\nchar 0\nobject a\ndim 2\nalpha 0 0 1/0\nend\n")
        result = invoke("check", str(tmp_path / "bad.alg"))
        assert result.exit_code == 2

    def test_declared_dim_over_the_limit_exits_two(self, tmp_path, monkeypatch):
        from homhopf import algread

        monkeypatch.setattr(algread, "MAX_DIM", 3)
        (tmp_path / "big.alg").write_text("homhopf 1\nchar 0\nobject big\ndim 4\nalpha 0 0 1\nend\n")
        result = invoke("check", str(tmp_path / "big.alg"))
        assert result.exit_code == 2
        assert "exceeds the limit" in result.output

    def test_declared_dims_together_over_the_limit_exits_two(self, tmp_path, monkeypatch):
        from homhopf import algread

        monkeypatch.setattr(algread, "MAX_DIM", 3)
        obj = "object {}\ndim 3\nalpha 0 0 1\nend\n"
        (tmp_path / "one.alg").write_text("homhopf 1\nchar 0\n" + obj.format("a"))
        (tmp_path / "two.alg").write_text("homhopf 1\nchar 0\n" + obj.format("a") + obj.format("b"))
        # one 3-dim object parses (and then lacks an algebra structure)
        result = invoke("check", str(tmp_path / "one.alg"))
        assert result.exit_code == 2
        assert "has no algebra structure" in result.output
        result = invoke("check", str(tmp_path / "two.alg"))
        assert result.exit_code == 2
        assert "sum of dim^3 exceeds the limit of 3^3" in result.output

    def test_quasitriangular_reads_the_rmatrix_of_the_checked_object(self, tmp_path):
        from homhopf.catalog import get_entry
        from homhopf.algfile import (
            SCHEMA_VERSION,
            AlgebraFile,
            block_record,
            object_record,
            write,
        )

        sweedler, cyclic = get_entry("sweedler_hom"), get_entry("cyclic:3")
        other_r = block_record("rmatrix", "r3", ("c3",), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        own_r = block_record("rmatrix", "r", ("sw",), sweedler.rmatrix.entries)
        sw, c3 = object_record("sw", sweedler.hopf), object_record("c3", cyclic.hopf)
        # the first rmatrix block is hosted by the other, 3-dim object
        (tmp_path / "sw.alg").write_bytes(
            write(AlgebraFile(SCHEMA_VERSION, (sw, c3), (other_r, own_r)))
        )
        result = invoke("check", str(tmp_path / "sw.alg"), "--level", "quasitriangular")
        assert result.exit_code == 0
        # no rmatrix block is hosted by the checked 3-dim object
        (tmp_path / "c3.alg").write_bytes(
            write(AlgebraFile(SCHEMA_VERSION, (c3, sw), (own_r,)))
        )
        result = invoke("check", str(tmp_path / "c3.alg"), "--level", "quasitriangular")
        assert result.exit_code == 2
        assert "error: quasitriangular level needs an rmatrix block" in result.output

    def test_jobs_flag_does_not_change_output(self):
        a = invoke("check", "cyclic:4", "--level", "hopf", "--jobs", "1")
        b = invoke("check", "cyclic:4", "--level", "hopf", "--jobs", "4")
        assert a.output == b.output
        assert a.exit_code == b.exit_code == 0


class TestConstructCommand:
    def test_double_of_cyclic3(self, tmp_path):
        out = tmp_path / "d.alg"
        result = invoke("construct", "double", "cyclic:3", "--out", str(out))
        assert result.exit_code == 0
        bundle = read(out.read_bytes())
        d = bundle.object().hom_hopf()
        assert d.dim == 9
        from homhopf.constructions import drinfeld_double
        from homhopf.catalog import get_entry

        assert d == drinfeld_double(get_entry("cyclic:3").hopf)

    def test_dual_of_one_dimensional(self, tmp_path):
        out = tmp_path / "dual.alg"
        result = invoke("construct", "dual", "one", "--out", str(out))
        assert result.exit_code == 0
        assert read(out.read_bytes()).object().dim == 1

    def test_twist_equals_heisenberg_of_opposite(self, tmp_path):
        from homhopf.catalog import get_entry
        from homhopf.constructions import canonical_cocycles, drinfeld_double
        from homhopf.algfile import (
            AlgebraFile,
            SCHEMA_VERSION,
            block_record,
            object_record,
            write,
        )

        a = get_entry("ax1").hopf
        double = drinfeld_double(a)
        sigma, _ = canonical_cocycles(a, double)
        d_path = tmp_path / "dax1.alg"
        d_path.write_bytes(
            write(AlgebraFile(SCHEMA_VERSION, (object_record("dax1", double),), ()))
        )
        sig_path = tmp_path / "sigma.alg"
        sig_path.write_bytes(
            write(
                AlgebraFile(
                    SCHEMA_VERSION,
                    (object_record("dax1", double),),
                    (block_record("cocycle", "sigma", ("dax1", "left"), sigma.gram),),
                )
            )
        )
        twist_out = tmp_path / "twist.alg"
        result = invoke(
            "construct", "twist", str(d_path),
            "--cocycle", str(sig_path), "--side", "left", "--out", str(twist_out),
        )
        assert result.exit_code == 0

        op_out = tmp_path / "ax1op.alg"
        assert invoke("construct", "op", "ax1", "--out", str(op_out)).exit_code == 0
        heis_out = tmp_path / "heis.alg"
        assert (
            invoke("construct", "heisenberg", str(op_out), "--out", str(heis_out)).exit_code
            == 0
        )
        twisted = read(twist_out.read_bytes()).object()
        heis = read(heis_out.read_bytes()).object()
        assert twisted.mul_cells == heis.mul_cells
        assert twisted.unit == heis.unit
        assert twisted.alpha == heis.alpha

    def test_bicross_from_bundle(self, tmp_path):
        out = tmp_path / "bi.alg"
        result = invoke("construct", "bicross", "ax1", "--out", str(out))
        assert result.exit_code == 0
        assert read(out.read_bytes()).object().dim == 4

    def test_self_bicross(self, tmp_path):
        out = tmp_path / "sb.alg"
        result = invoke("construct", "self-bicross", "cyclic:3", "--out", str(out))
        assert result.exit_code == 0
        rec = read(out.read_bytes()).object()
        assert rec.dim == 9 and rec.antipode_rows is not None

    def test_dual_pair_double_from_catalog_name(self, tmp_path):
        out = tmp_path / "pd.alg"
        result = invoke("construct", "dual-pair-double", "cyclic:2", "--out", str(out))
        assert result.exit_code == 0
        from homhopf.catalog import get_entry
        from homhopf.constructions import drinfeld_double

        built = read(out.read_bytes()).object().hom_hopf()
        double = drinfeld_double(get_entry("cyclic:2").hopf)
        assert built.algebra.mul_cells == double.algebra.mul_cells

    def test_double_tilde(self, tmp_path):
        out = tmp_path / "dt.alg"
        result = invoke("construct", "double-tilde", "cyclic:2", "--out", str(out))
        assert result.exit_code == 0
        rec = read(out.read_bytes()).object()
        assert rec.dim == 4 and rec.comul_rows is not None and rec.antipode_rows is None

    def test_bicross_precondition_failure_exits_one(self, tmp_path):
        export = invoke("export", "ax1", "--out", str(tmp_path / "ax1.alg"))
        assert export.exit_code == 0
        text = (tmp_path / "ax1.alg").read_text()
        broken = text.replace("entry 0 1 1 -1", "entry 0 1 1 1")
        (tmp_path / "broken.alg").write_text(broken)
        result = invoke("construct", "bicross", str(tmp_path / "broken.alg"), "--out", str(tmp_path / "x.alg"))
        assert result.exit_code == 1

    def test_twist_without_cocycle_is_usage_error(self):
        result = invoke("construct", "twist", "cyclic:2")
        assert result.exit_code == 2

    def test_twist_with_cocycle_file_without_block_is_usage_error(self, tmp_path):
        assert invoke("export", "cyclic:2", "--out", str(tmp_path / "c2.alg")).exit_code == 0
        result = invoke("construct", "twist", "cyclic:2", "--cocycle", str(tmp_path / "c2.alg"))
        assert result.exit_code == 2
        assert "error: file defines no cocycle block" in result.output

    def test_twist_with_cocycle_on_a_non_bialgebra_is_usage_error(self, tmp_path):
        from homhopf.catalog import get_entry
        from homhopf.algfile import (
            SCHEMA_VERSION,
            AlgebraFile,
            block_record,
            object_record,
            write,
        )

        h = get_entry("cyclic:2").hopf
        counit = dense_field(h, "counit")
        trivial = tuple(tuple(a * b for b in counit) for a in counit)
        bundle = AlgebraFile(
            SCHEMA_VERSION,
            (object_record("c2", h.bialgebra.algebra),),
            (block_record("cocycle", "sigma", ("c2", "left"), trivial),),
        )
        (tmp_path / "sigma.alg").write_bytes(write(bundle))
        result = invoke("construct", "twist", "cyclic:2", "--cocycle", str(tmp_path / "sigma.alg"))
        assert result.exit_code == 2
        assert "has no coalgebra structure" in result.output

    def test_bicross_with_a_coalgebra_actor_is_usage_error(self, tmp_path):
        (tmp_path / "ax1.alg").write_text(_ax1_with_coalgebra_partner())
        result = invoke("construct", "bicross", str(tmp_path / "ax1.alg"))
        assert result.exit_code == 2
        assert result.stderr == "error: object 'ax1_partner' has no antipode\n"

    @pytest.mark.parametrize("force", [(), ("--force",)])
    def test_bicross_with_swapped_coaction_roles_is_usage_error(self, tmp_path, force):
        (tmp_path / "ax1.alg").write_text(_ax1_with_swapped_coaction())
        out = tmp_path / "x.alg"
        result = invoke("construct", "bicross", str(tmp_path / "ax1.alg"), "--out", str(out), *force)
        assert (result.exit_code, result.stderr) == (2, SWAPPED_ROLES)
        assert not out.exists()

    @pytest.mark.parametrize("obj", ["ax1", "ax1_partner"])
    @pytest.mark.parametrize("force", [(), ("--force",)])
    def test_bicross_on_an_object_without_antipode_is_usage_error(self, tmp_path, obj, force):
        (tmp_path / "ax1.alg").write_text(_ax1_without(obj, "antipode"))
        result = invoke("construct", "bicross", str(tmp_path / "ax1.alg"), *force)
        assert result.exit_code == 2
        assert result.stderr == f"error: object {obj!r} has no antipode\n"

    def test_double_above_the_dimension_limit_exits_two_and_writes_no_file(self, tmp_path):
        out = tmp_path / "double_c12.alg"
        result = invoke("construct", "double", "cyclic:12", "--out", str(out))
        assert result.exit_code == 2
        assert "144-dim" in result.stderr and "limit of 128" in result.stderr
        assert not out.exists()

    def test_double_within_the_dimension_limit_is_built(self, tmp_path):
        out = tmp_path / "double_c11.alg"
        result = invoke("construct", "double", "cyclic:11", "--out", str(out))
        assert result.exit_code == 0
        assert read(out.read_bytes()).object().dim == 121

    def test_unknown_kind_is_usage_error(self):
        result = invoke("construct", "frobnicate", "ax1")
        assert result.exit_code == 2


class TestVerifyCommand:
    def test_twist_theorem_on_sweedler(self):
        result = invoke("verify", "thm4.5", "--algebra", "sweedler_hom")
        assert result.exit_code == 0
        assert "overall PASS" in result.output

    def test_canonical_r_on_cyclic4(self):
        result = invoke("verify", "prop2.19", "--algebra", "cyclic:4")
        assert result.exit_code == 0

    def test_bicross_suite_on_broken_action_file(self, tmp_path):
        export = invoke("export", "ax1", "--out", str(tmp_path / "ax1.alg"))
        assert export.exit_code == 0
        text = (tmp_path / "ax1.alg").read_text()
        (tmp_path / "broken.alg").write_text(text.replace("entry 0 1 1 -1", "entry 0 1 1 1"))
        result = invoke("verify", "thm2.6", "--algebra", str(tmp_path / "broken.alg"))
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_bicross_suite_with_a_coalgebra_actor_is_usage_error(self, tmp_path):
        (tmp_path / "ax1.alg").write_text(_ax1_with_coalgebra_partner())
        result = invoke("verify", "thm2.6", "--algebra", str(tmp_path / "ax1.alg"))
        assert result.exit_code == 2
        assert result.stderr == "error: object 'ax1_partner' has no antipode\n"

    def test_bicross_suite_with_swapped_coaction_roles_is_refused_before_any_sweep(
        self, tmp_path, monkeypatch
    ):
        from homhopf import bicross

        def no_sweep(act):
            raise AssertionError("the module-algebra sweep was started")

        (tmp_path / "ax1.alg").write_text(_ax1_with_swapped_coaction())
        monkeypatch.setattr(bicross, "check_module_algebra", no_sweep)
        result = invoke("verify", "thm2.6", "--algebra", str(tmp_path / "ax1.alg"))
        assert (result.exit_code, result.stderr) == (2, SWAPPED_ROLES)

    @pytest.mark.parametrize("obj", ["ax1", "ax1_partner"])
    def test_bicross_suite_on_an_object_without_antipode_is_usage_error(self, tmp_path, obj):
        (tmp_path / "ax1.alg").write_text(_ax1_without(obj, "antipode"))
        result = invoke("verify", "thm2.6", "--algebra", str(tmp_path / "ax1.alg"))
        assert result.exit_code == 2
        assert result.stderr == f"error: object {obj!r} has no antipode\n"

    def test_double_above_the_dimension_limit_is_refused_before_it_is_built(self, monkeypatch):
        from homhopf import constructions

        def no_dual(h):
            raise AssertionError("the double was started")

        monkeypatch.setattr(constructions, "dual", no_dual)
        result = invoke("verify", "prop2.19", "--algebra", "cyclic:128")
        assert result.exit_code == 2
        assert "16384-dim" in result.stderr and "limit of 128" in result.stderr

    def test_bicross_suite_above_the_dimension_limit_is_refused_before_any_sweep(
        self, tmp_path, monkeypatch
    ):
        from homhopf import bicross

        def no_sweep(act):
            raise AssertionError("the module-algebra sweep was started")

        entry, n = get_entry("cyclic:12"), 12
        shape = (n, n, n)
        trivial = cells_from_entries(shape, {(i, j, j): 1 for i in range(n) for j in range(n)})
        coact = rows_from_entries(shape, {(j, j, 0): 1 for j in range(n)})
        h = entry.hopf
        entry = replaced(
            entry,
            partner=h,
            partner_basis=entry.basis,
            action=ModuleAction(h, h, trivial),
            coaction=ComoduleCoaction(h, h, coact),
        )
        (tmp_path / "c12.alg").write_bytes(write(bundle_of_entry(entry)))
        monkeypatch.setattr(bicross, "check_module_algebra", no_sweep)
        result = invoke("verify", "thm2.6", "--algebra", str(tmp_path / "c12.alg"))
        assert result.exit_code == 2
        assert "144-dim, above the limit of 128" in result.stderr

    @pytest.mark.parametrize("suite", ["cor2.9", "prop2.19", "thm4.5", "dual-pair", "prop4.7"])
    def test_suites_refuse_a_double_above_the_dimension_limit(self, suite):
        result = invoke("verify", suite, "--algebra", "cyclic:12")
        assert result.exit_code == 2
        assert "144-dim, above the limit of 128" in result.stderr

    def test_golden_tables_reported_for_ax1(self):
        result = invoke("verify", "thm2.6", "--algebra", "ax1")
        assert "PASS golden tables" in result.output

    def test_dual_pair_on_cyclic2(self):
        result = invoke("verify", "dual-pair", "--algebra", "cyclic:2")
        assert result.exit_code == 0


def _status(args) -> object:
    """How ``main(args)`` ended: the code of its ``SystemExit``, or what else happened."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            main(args=list(args), prog_name="homhopf")
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # any other exception breaks the contract
            return f"{type(exc).__name__}: {exc}"
    return "returned"


class TestIncompleteFiles:
    """The 0/1/2 exit-code contract on files that lack one kind of line on one
    object: every ``check`` level, ``construct`` kind (``twist`` with the
    trivial cocycle ``counit (x) counit`` of the complete object, and the
    three kinds with preconditions also under ``--force``) and ``verify``
    suite ends in ``SystemExit`` 0, 1 or 2."""

    @pytest.mark.parametrize("name", ["ax1", "sweedler_hom", "cyclic:3"])
    def test_every_command_exits_0_1_or_2(self, tmp_path, name):
        text = invoke("export", name).output
        rec = read(text).object()
        eps = rec.hom_coalgebra().counit
        trivial = block_record("cocycle", "sigma", (rec.name, "left"), compose(eps, transpose_rows(eps)))
        cocycle = tmp_path / "sigma.alg"
        cocycle.write_bytes(write(AlgebraFile(SCHEMA_VERSION, (rec,), (trivial,))))
        commands = [
            *(("check", "{}", "--level", level) for level in LEVELS),
            *(("construct", kind, "{}") for kind in KINDS if kind != "twist"),
            ("construct", "twist", "{}", "--cocycle", str(cocycle)),
            *(("construct", kind, "{}", "--force") for kind in ("bicross", "self-bicross", "dual-pair-double")),
            *(("verify", suite, "--algebra", "{}") for suite in SUITES),
        ]
        objects = [line.split()[1] for line in text.splitlines() if line.startswith("object ")]
        assert len(objects) == (2 if name == "ax1" else 1)
        broken = {}
        for obj in objects:
            for kind in ("mul", "comul", "unit", "counit", "antipode"):
                path = tmp_path / f"{obj}-{kind}.alg"
                path.write_text(_without(text, obj, kind))
                for command in commands:
                    status = _status([str(path) if a == "{}" else a for a in command])
                    if status not in (0, 1, 2):
                        broken[obj, kind, command] = status
        assert broken == {}


class TestReports:
    def test_check_report_is_byte_identical(self, tmp_path):
        r1 = invoke("check", "cyclic:3", "--report", str(tmp_path / "a.json"))
        r2 = invoke("check", "cyclic:3", "--report", str(tmp_path / "b.json"))
        assert r1.exit_code == r2.exit_code == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_verify_report_digest_excludes_wall_time(self, tmp_path):
        invoke("verify", "thm4.5", "--algebra", "cyclic:2", "--report", str(tmp_path / "a.json"))
        invoke("verify", "thm4.5", "--algebra", "cyclic:2", "--report", str(tmp_path / "b.json"))
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        assert a["digest"] == b["digest"]

        def strip(node):
            if isinstance(node, dict):
                return {k: strip(v) for k, v in node.items() if k != "wall_time"}
            if isinstance(node, list):
                return [strip(v) for v in node]
            return node

        assert strip(a) == strip(b)

    def test_report_schema_fields(self, tmp_path):
        invoke("check", "ax1", "--level", "algebra", "--report", str(tmp_path / "r.json"))
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["tool"] == "homhopf"
        assert doc["status"] == 0
        assert doc["inputs"][0]["source"] == "ax1"
        assert len(doc["inputs"][0]["sha256"]) == 64
        assert doc["results"][0]["checks"][0]["axiom"] == "algebra.alpha-multiplicative"


class TestUnwritableOutput:
    """An output path that cannot be written is an input error: exit 2."""

    def test_check_report(self, tmp_path):
        result = invoke("check", "cyclic:2", "--report", str(tmp_path / "missing" / "r.json"))
        assert result.exit_code == 2
        assert "error:" in result.output

    def test_construct_out(self, tmp_path):
        result = invoke("construct", "dual", "cyclic:2", "--out", str(tmp_path / "missing" / "d.alg"))
        assert result.exit_code == 2
        assert "error:" in result.output

    def test_verify_report(self, tmp_path):
        result = invoke(
            "verify", "prop2.19", "--algebra", "cyclic:2", "--report", str(tmp_path / "missing" / "r.json")
        )
        assert result.exit_code == 2
        assert "error:" in result.output

    def test_export_out(self, tmp_path):
        result = invoke("export", "ax1", "--out", str(tmp_path / "missing" / "ax1.alg"))
        assert result.exit_code == 2
        assert "error:" in result.output

    @pytest.mark.parametrize(
        "args",
        [
            ("check", "cyclic:2", "--report", ""),
            ("check", "cyclic:2", "--report="),
            ("construct", "dual", "cyclic:2", "--out", ""),
            ("construct", "dual", "cyclic:2", "--out="),
            ("construct", "dual", "cyclic:2", "--out", "d.alg", "--report", ""),
            ("verify", "prop2.19", "--algebra", "cyclic:2", "--report", ""),
            ("verify", "prop2.19", "--algebra", "cyclic:2", "--report="),
            ("export", "ax1", "--out", ""),
        ],
        ids=" ".join,
    )
    def test_empty_path(self, tmp_path, monkeypatch, args):
        """An empty path is a path that cannot be written, not a missing
        option: no report is skipped and no file goes to standard output."""
        monkeypatch.chdir(tmp_path)
        result = invoke(*args)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: cannot write : ")
        assert "homhopf 1" not in result.stdout


class TestUnreadableInput:
    """An input path that cannot be read is an input error (exit 2) reported
    as ``cannot read <path>: <reason>``, the form of a failed write.  A
    directory is the unreadable input every platform and user can make."""

    def assert_unreadable(self, result, path) -> None:
        assert result.exit_code == 2
        assert result.stderr == f"error: cannot read {path}: Is a directory\n"
        assert result.stdout == ""

    def test_check(self, tmp_path):
        self.assert_unreadable(invoke("check", str(tmp_path)), tmp_path)

    def test_verify_algebra(self, tmp_path):
        self.assert_unreadable(invoke("verify", "cor2.9", "--algebra", str(tmp_path)), tmp_path)

    def test_construct_twist_cocycle(self, tmp_path):
        result = invoke("construct", "twist", "cyclic:2", "--cocycle", str(tmp_path))
        self.assert_unreadable(result, tmp_path)


class TestExportCommand:
    def test_round_trip(self, tmp_path):
        from homhopf.catalog import get_entry
        from homhopf.algfile import bundle_of_entry

        out = tmp_path / "sw.alg"
        result = invoke("export", "sweedler_hom", "--out", str(out))
        assert result.exit_code == 0
        assert read(out.read_bytes()) == bundle_of_entry(get_entry("sweedler_hom"))

    def test_unknown_name(self):
        assert invoke("export", "zilch").exit_code == 2


class TestArgumentGrammar:
    """The parser refuses what it always refused (exit 2) and accepts the
    same spellings; only its own usage and help text are free to change."""

    @pytest.mark.parametrize(
        "args",
        [
            ("construct", "frobnicate", "ax1"),
            ("verify", "thm9.9", "--algebra", "cyclic:2"),
            ("check", "cyclic:2", "--level", "bogus"),
            ("construct", "twist", "cyclic:2", "--side", "middle"),
            ("verify", "thm4.5"),
            ("construct", "twist", "cyclic:2", "--cocycle", "no_such_cocycle.alg"),
            ("construct", "dual", "cyclic:2", "--cocycle", "no_such_cocycle.alg"),
            ("check", "cyclic:2", "--jobs", "two"),
            ("verify", "prop2.19", "--algebra", "cyclic:2", "--jobs", "2"),
            ("check", "cyclic:2", "--lev", "hopf"),
            ("verify", "thm4.5", "--alg", "cyclic:2"),
            ("check", "cyclic:2", "-h"),
            ("frobnicate",),
            (),
        ],
        ids=[
            "unknown-kind", "unknown-suite", "bad-level", "bad-side", "missing-algebra",
            "missing-cocycle-file", "missing-cocycle-file-any-kind", "non-integer-jobs", "verify-jobs",
            "abbreviated-option",
            "abbreviated-required-option", "short-help", "unknown-command", "no-command",
        ],
    )
    def test_usage_error_exits_two(self, args):
        result = invoke(*args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr

    @pytest.mark.parametrize(
        "args", [("--help",), ("check", "--help"), ("construct", "--help"), ("verify", "--help"), ("export", "--help")]
    )
    def test_help_exits_zero(self, args):
        result = invoke(*args)
        assert result.exit_code == 0
        assert result.stdout.lower().startswith("usage: homhopf")

    def test_version(self):
        result = invoke("--version")
        assert result.exit_code == 0
        assert result.stdout == "homhopf, version 0.1.0\n"

    def test_options_parse_before_and_after_positionals(self, tmp_path):
        before = invoke("check", "--level", "algebra", "cyclic:2")
        after = invoke("check", "cyclic:2", "--level", "algebra")
        joined = invoke("check", "cyclic:2", "--level=algebra")
        assert before.exit_code == after.exit_code == joined.exit_code == 0
        assert before.output == after.output == joined.output
        out = tmp_path / "d.alg"
        assert invoke("construct", "--out", str(out), "--force", "dual", "cyclic:2").exit_code == 0
        assert read(out.read_bytes()).object().name == "dual_cyclic2"
        report = tmp_path / "r.json"
        result = invoke("verify", "--algebra", "cyclic:2", "prop2.19", "--report", str(report))
        assert result.exit_code == 0 and report.exists()


def _check(source="cyclic:2", **given):
    return "check", {"source": source, "level": "hopf", "report_path": None, "jobs": 1, **given}


def _construct(kind, **given):
    defaults = {"cocycle_path": None, "side": None, "out_path": None, "force": False, "report_path": None}
    return "construct", {"kind": kind, "source": "cyclic:2", **defaults, **given}


def _verify(suite, source="cyclic:2", report_path=None):
    return "verify", {"suite": suite, "source": source, "report_path": report_path}


TOP_HELP, VERSION = "usage: homhopf [--help]", "homhopf, version 0.1.0\n"

# Each spelling, split as a shell splits it, and what the parser makes of it:
# the command it calls with its keyword arguments, 2 (a refusal: an error on
# stderr and nothing on stdout), or the start of what an exit 0 printed.
# Every outcome is the one the argparse parser gave before the command table
# replaced it; an empty ``--report`` or ``--out`` still parses as it did, and
# the command then refuses the path (``TestUnwritableOutput.test_empty_path``).
GRAMMAR = {
    # refusals
    "": 2,
    "frobnicate": 2,
    "export": 2,
    "construct": 2,
    "construct dual": 2,
    "construct frobnicate ax1": 2,
    "verify thm9.9 --algebra cyclic:2": 2,
    "verify thm4.5": 2,
    "check cyclic:2 --level bogus": 2,
    "check cyclic:2 --level": 2,
    "check cyclic:2 --level=": 2,
    "check cyclic:2 --level ''": 2,
    "check cyclic:2 --level -1": 2,
    "check cyclic:2 --level=-x": 2,
    "check --level=hopf=x cyclic:2": 2,
    "check --level hopf": 2,
    "construct twist cyclic:2 --side middle": 2,
    "construct twist cyclic:2 --cocycle no_such_cocycle.alg": 2,
    "construct dual cyclic:2 --cocycle no_such_cocycle.alg": 2,
    "construct dual cyclic:2 --cocycle ''": 2,
    "check cyclic:2 --jobs two": 2,
    "check cyclic:2 --jobs": 2,
    "check --jobs '' cyclic:2": 2,
    "check --jobs 3 --jobs x cyclic:2": 2,
    "verify prop2.19 --algebra cyclic:2 --jobs 2": 2,
    "check cyclic:2 --lev hopf": 2,
    "verify thm4.5 --alg cyclic:2": 2,
    "check cyclic:2 -h": 2,
    "check cyclic:2 extra": 2,
    "check cyclic:2 -1": 2,
    "check cyclic:2 -- --level": 2,
    "construct dual cyclic:2 --force=1": 2,
    "check cyclic:2 --force": 2,
    "export ax1 --report r.json": 2,
    "check cyclic:2 --version": 2,
    "check cyclic:2 --report -r.json": 2,
    "check cyclic:2 --report --": 2,
    "check --": 2,
    "check -x": 2,
    "check cyclic:2 -x": 2,
    "check --=x cyclic:2": 2,
    "check cyclic:2 ---level hopf": 2,
    "-- check cyclic:2": 2,
    "check --help=x": 2,
    "--version=x": 2,
    # --help and --version, read where they stand
    "--help": TOP_HELP,
    "--help bogus": TOP_HELP,
    "--help --version": TOP_HELP,
    "--version": VERSION,
    "--version --help": VERSION,
    "--version check cyclic:2": VERSION,
    "check --help": "usage: homhopf check ",
    "construct --help": "usage: homhopf construct ",
    "verify --help": "usage: homhopf verify ",
    "export --help": "usage: homhopf export ",
    "check cyclic:2 --help": "usage: homhopf check ",
    "check '' --help": "usage: homhopf check ",
    "check --help --level bogus": "usage: homhopf check ",
    "check --level bogus --help": 2,
    "construct dual --help": "usage: homhopf construct ",
    "construct frobnicate --help": 2,
    "verify --help thm9.9": "usage: homhopf verify ",
    "verify thm9.9 --help": 2,
    "bogus --help": 2,
    # an unknown option or an extra positional is refused only after the rest
    "check a b --help": "usage: homhopf check ",
    "check --bogus --help": "usage: homhopf check ",
    "--bogus check --help": "usage: homhopf check ",
    # accepted spellings
    "check cyclic:2": _check(),
    "check --level algebra cyclic:2": _check(level="algebra"),
    "check cyclic:2 --level algebra": _check(level="algebra"),
    "check cyclic:2 --level=algebra": _check(level="algebra"),
    "check --level hopf --level algebra cyclic:2": _check(level="algebra"),
    "check cyclic:2 --report a --report b": _check(report_path="b"),
    "check -- cyclic:2": _check(),
    "check cyclic:2 --": _check(),
    "check -- -- ": _check("--"),
    "check -1": _check("-1"),
    "check -2.5": _check("-2.5"),
    "check -": _check("-"),
    "check ''": _check(""),
    "check '-a b'": _check("-a b"),
    "check cyclic:2 --report=": _check(report_path=""),
    "check cyclic:2 --report ''": _check(report_path=""),
    "check cyclic:2 --report -": _check(report_path="-"),
    "check cyclic:2 --report -1": _check(report_path="-1"),
    "check cyclic:2 --report '-a b'": _check(report_path="-a b"),
    "check cyclic:2 --report=--x": _check(report_path="--x"),
    "check cyclic:2 --jobs -3": _check(jobs=-3),
    "check --jobs=-3 cyclic:2": _check(jobs=-3),
    "check cyclic:2 --jobs +3": _check(jobs=3),
    "check cyclic:2 --jobs 1_0": _check(jobs=10),
    "check cyclic:2 --jobs ' 7'": _check(jobs=7),
    "construct --out d.alg --force dual cyclic:2": _construct("dual", out_path="d.alg", force=True),
    "construct dual cyclic:2 --out=": _construct("dual", out_path=""),
    "construct dual cyclic:2 --cocycle=sigma.alg": _construct("dual", cocycle_path="sigma.alg"),
    "construct twist cyclic:2 --cocycle sigma.alg --side left": _construct(
        "twist", cocycle_path="sigma.alg", side="left"
    ),
    "construct twist cyclic:2 --cocycle=sigma.alg --side=right --force --report r.json --out o.alg": (
        _construct(
            "twist", cocycle_path="sigma.alg", side="right", force=True, report_path="r.json", out_path="o.alg"
        )
    ),
    "verify --algebra cyclic:2 prop2.19 --report r.json": _verify("prop2.19", report_path="r.json"),
    "verify thm4.5 --algebra=cyclic:2": _verify("thm4.5"),
    "verify thm4.5 --algebra a --algebra b": _verify("thm4.5", "b"),
    "export ax1 --out x.alg": ("export", {"name": "ax1", "out_path": "x.alg"}),
}


class TestGrammarReference:
    """The command table's parser gives every spelling of ``GRAMMAR`` the
    outcome argparse gave it."""

    @pytest.mark.parametrize("spelling", GRAMMAR, ids=lambda s: s or "no-arguments")
    def test_outcome(self, tmp_path, monkeypatch, spelling):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sigma.alg").write_text("")  # the existing ``--cocycle`` path
        calls = []

        def recorder(name):
            return lambda **values: calls.append((name, values))

        for name in COMMANDS:
            monkeypatch.setattr(cli, name, recorder(name))
        result = invoke(*shlex.split(spelling))
        want = GRAMMAR[spelling]
        if isinstance(want, tuple):
            assert (result.exit_code, calls) == (0, [want])
        elif want == 2:
            assert (result.exit_code, result.stdout, calls) == (2, "", [])
            assert result.stderr
        else:
            assert (result.exit_code, result.stderr, calls) == (0, "", [])
            assert result.stdout.startswith(want)
