"""Command-line interface: exit codes, outputs, report determinism."""

import json

import pytest

from conftest import cells_from_entries, replaced, run_cli
from homhopf.catalog import get_entry
from homhopf.exactlin import rows_from_entries
from homhopf.fileformat import bundle_of_entry, parse, serialize
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
        from homhopf import fileformat

        monkeypatch.setattr(fileformat, "MAX_DIM", 3)
        (tmp_path / "big.alg").write_text("homhopf 1\nchar 0\nobject big\ndim 4\nalpha 0 0 1\nend\n")
        result = invoke("check", str(tmp_path / "big.alg"))
        assert result.exit_code == 2
        assert "exceeds the limit" in result.output

    def test_declared_dims_together_over_the_limit_exits_two(self, tmp_path, monkeypatch):
        from homhopf import fileformat

        monkeypatch.setattr(fileformat, "MAX_DIM", 3)
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
        from homhopf.fileformat import (
            SCHEMA_VERSION,
            AlgebraFile,
            block_record,
            object_record,
            serialize,
        )

        sweedler, cyclic = get_entry("sweedler_hom"), get_entry("cyclic:3")
        other_r = block_record("rmatrix", "r3", ("c3",), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        own_r = block_record("rmatrix", "r", ("sw",), sweedler.rmatrix.entries)
        sw, c3 = object_record("sw", sweedler.hopf), object_record("c3", cyclic.hopf)
        # the first rmatrix block is hosted by the other, 3-dim object
        (tmp_path / "sw.alg").write_bytes(
            serialize(AlgebraFile(SCHEMA_VERSION, (sw, c3), (other_r, own_r)))
        )
        result = invoke("check", str(tmp_path / "sw.alg"), "--level", "quasitriangular")
        assert result.exit_code == 0
        # no rmatrix block is hosted by the checked 3-dim object
        (tmp_path / "c3.alg").write_bytes(
            serialize(AlgebraFile(SCHEMA_VERSION, (c3, sw), (own_r,)))
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
        bundle = parse(out.read_bytes())
        d = bundle.object().hom_hopf()
        assert d.dim == 9
        from homhopf.constructions import drinfeld_double
        from homhopf.catalog import get_entry

        assert d == drinfeld_double(get_entry("cyclic:3").hopf)

    def test_dual_of_one_dimensional(self, tmp_path):
        out = tmp_path / "dual.alg"
        result = invoke("construct", "dual", "one", "--out", str(out))
        assert result.exit_code == 0
        assert parse(out.read_bytes()).object().dim == 1

    def test_twist_equals_heisenberg_of_opposite(self, tmp_path):
        from homhopf.catalog import get_entry
        from homhopf.constructions import canonical_cocycles, drinfeld_double
        from homhopf.fileformat import (
            AlgebraFile,
            SCHEMA_VERSION,
            block_record,
            object_record,
            serialize,
        )

        a = get_entry("ax1").hopf
        double = drinfeld_double(a)
        sigma, _ = canonical_cocycles(a, double)
        d_path = tmp_path / "dax1.alg"
        d_path.write_bytes(
            serialize(AlgebraFile(SCHEMA_VERSION, (object_record("dax1", double),), ()))
        )
        sig_path = tmp_path / "sigma.alg"
        sig_path.write_bytes(
            serialize(
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
        twisted = parse(twist_out.read_bytes()).object()
        heis = parse(heis_out.read_bytes()).object()
        assert twisted.mul == heis.mul
        assert twisted.unit == heis.unit
        assert twisted.alpha == heis.alpha

    def test_bicross_from_bundle(self, tmp_path):
        out = tmp_path / "bi.alg"
        result = invoke("construct", "bicross", "ax1", "--out", str(out))
        assert result.exit_code == 0
        assert parse(out.read_bytes()).object().dim == 4

    def test_self_bicross(self, tmp_path):
        out = tmp_path / "sb.alg"
        result = invoke("construct", "self-bicross", "cyclic:3", "--out", str(out))
        assert result.exit_code == 0
        rec = parse(out.read_bytes()).object()
        assert rec.dim == 9 and rec.antipode is not None

    def test_dual_pair_double_from_catalog_name(self, tmp_path):
        out = tmp_path / "pd.alg"
        result = invoke("construct", "dual-pair-double", "cyclic:2", "--out", str(out))
        assert result.exit_code == 0
        from homhopf.catalog import get_entry
        from homhopf.constructions import drinfeld_double

        built = parse(out.read_bytes()).object().hom_hopf()
        assert built.mul == drinfeld_double(get_entry("cyclic:2").hopf).mul

    def test_double_tilde(self, tmp_path):
        out = tmp_path / "dt.alg"
        result = invoke("construct", "double-tilde", "cyclic:2", "--out", str(out))
        assert result.exit_code == 0
        rec = parse(out.read_bytes()).object()
        assert rec.dim == 4 and rec.comul is not None and rec.antipode is None

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
        from homhopf.fileformat import (
            SCHEMA_VERSION,
            AlgebraFile,
            block_record,
            object_record,
            serialize,
        )

        h = get_entry("cyclic:2").hopf
        trivial = tuple(tuple(a * b for b in h.counit) for a in h.counit)
        bundle = AlgebraFile(
            SCHEMA_VERSION,
            (object_record("c2", h.bialgebra.algebra),),
            (block_record("cocycle", "sigma", ("c2", "left"), trivial),),
        )
        (tmp_path / "sigma.alg").write_bytes(serialize(bundle))
        result = invoke("construct", "twist", "cyclic:2", "--cocycle", str(tmp_path / "sigma.alg"))
        assert result.exit_code == 2
        assert "has no coalgebra structure" in result.output

    def test_bicross_with_a_coalgebra_actor_is_usage_error(self, tmp_path):
        (tmp_path / "ax1.alg").write_text(_ax1_with_coalgebra_partner())
        result = invoke("construct", "bicross", str(tmp_path / "ax1.alg"))
        assert result.exit_code == 2
        assert "error: no bialgebra structure on HomCoalgebra" in result.output

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
        assert parse(out.read_bytes()).object().dim == 121

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
        assert "error: no bialgebra structure on HomCoalgebra" in result.output

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
        from homhopf import verify

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
        (tmp_path / "c12.alg").write_bytes(serialize(bundle_of_entry(entry)))
        monkeypatch.setattr(verify, "check_module_algebra", no_sweep)
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
        from homhopf.fileformat import bundle_of_entry

        out = tmp_path / "sw.alg"
        result = invoke("export", "sweedler_hom", "--out", str(out))
        assert result.exit_code == 0
        assert parse(out.read_bytes()) == bundle_of_entry(get_entry("sweedler_hom"))

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
            ("check", "cyclic:2", "--lev", "hopf"),
            ("verify", "thm4.5", "--alg", "cyclic:2"),
            ("check", "cyclic:2", "-h"),
            ("frobnicate",),
            (),
        ],
        ids=[
            "unknown-kind", "unknown-suite", "bad-level", "bad-side", "missing-algebra",
            "missing-cocycle-file", "missing-cocycle-file-any-kind", "non-integer-jobs", "abbreviated-option",
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
        assert parse(out.read_bytes()).object().name == "dual_cyclic2"
        result = invoke("verify", "--algebra", "cyclic:2", "prop2.19", "--jobs", "2")
        assert result.exit_code == 0
