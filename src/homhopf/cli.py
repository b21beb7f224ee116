"""Command-line interface: check, construct, verify, export.

Exit codes: 0 every check passed, 1 a verified failure (a red axiom, a
failed precondition, a failed comparison), 2 an input or usage error.
Reports written with ``--report`` are deterministic: the embedded digest is
computed over the document with wall-time fields removed.

Each command imports the modules it runs when it runs, so a process compiles
only those: ``--version`` none of the package beyond ``__init__``, ``check``
the file format and the checkers, ``construct`` also the constructions, and
``verify`` also the suites.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _load_input(source: str):
    """Resolve a path or catalog name to (bundle, raw-bytes, catalog-entry)."""
    from pathlib import Path

    from .errors import InvalidParameter
    from .fileformat import bundle_of_entry, parse, serialize

    if Path(source).exists():
        raw = _read(source)
        return parse(raw), raw, None
    from .catalog import catalog_names, get_entry

    try:
        entry = get_entry(source)
    except InvalidParameter as exc:
        raise InvalidParameter(
            f"{source!r} is neither an existing file nor a catalog name: {exc} "
            f"(catalog: {', '.join(catalog_names())})"
        ) from None
    bundle = bundle_of_entry(entry)
    return bundle, serialize(bundle), entry


def _scalars(v) -> list[str]:
    from .exactlin import format_scalar

    return [format_scalar(c) for c in v]


def _print_report(report, indent: str = "") -> None:
    for entry in report.checks:
        if entry.passed:
            print(f"{indent}PASS {entry.axiom_id}")
        else:
            w = entry.witness
            print(f"{indent}FAIL {entry.axiom_id} at index {w.index}")
            print(f"{indent}     lhs = ({', '.join(_scalars(w.lhs))})")
            print(f"{indent}     rhs = ({', '.join(_scalars(w.rhs))})")


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


def _witness_json(w):
    if w is None:
        return None
    return {"index": list(w.index), "lhs": _scalars(w.lhs), "rhs": _scalars(w.rhs)}


def _report_json(report):
    return {
        "checks": [
            {"axiom": c.axiom_id, "passed": c.passed, "witness": _witness_json(c.witness)}
            for c in report.checks
        ]
    }


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


def _strip_wall_time(node):
    if isinstance(node, dict):
        return {k: _strip_wall_time(v) for k, v in node.items() if k != "wall_time"}
    if isinstance(node, list):
        return [_strip_wall_time(v) for v in node]
    return node


def _write_report(path, command: str, inputs, results, status: int) -> None:
    if not path:
        return
    import hashlib
    import json

    from .fileformat import SCHEMA_VERSION

    doc = {
        "tool": "homhopf",
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "command": command,
        "inputs": [
            {"source": src, "sha256": hashlib.sha256(raw).hexdigest()} for src, raw in inputs
        ],
        "results": results,
        "status": status,
    }
    canonical = json.dumps(_strip_wall_time(doc), sort_keys=True, separators=(",", ":"))
    doc["digest"] = hashlib.sha256(canonical.encode()).hexdigest()
    _write(path, (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode())


def _read(path) -> bytes:
    """Read an input file; an unreadable path is an input error (exit 2)."""
    from pathlib import Path

    try:
        return Path(path).read_bytes()
    except OSError as exc:
        _fail_usage(f"cannot read {path}: {exc.strerror or exc}")


def _write(path, data: bytes) -> None:
    """Write an output file; an unwritable path is an input error (exit 2)."""
    from pathlib import Path

    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        _fail_usage(f"cannot write {path}: {exc.strerror or exc}")


def _fail_usage(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(EXIT_USAGE)


LEVELS = ("algebra", "coalgebra", "bialgebra", "hopf", "quasitriangular")


def check(source, level, report_path, jobs):
    """Run the axiom checkers for LEVEL on SOURCE (file or catalog name)."""
    del jobs
    from functools import partial

    from .errors import HomHopfError
    from .structures import (
        HomBialgebra,
        check_antipode,
        check_hom_algebra,
        check_hom_bialgebra,
        check_hom_coalgebra,
        check_quasitriangular,
        merge_reports,
    )

    try:
        bundle, raw, _ = _load_input(source)
        rec = bundle.object()
        # one algebra and one coalgebra, so every checker shares their sparse tables
        alg = rec.hom_algebra() if level != "coalgebra" else None
        coa = rec.hom_coalgebra(alg and alg.alpha_inverse) if level != "algebra" else None
        bia = HomBialgebra(alg, coa) if alg and coa else None
        hopf = rec.hom_hopf(bia) if level in ("hopf", "quasitriangular") else None
        checkers = (check_hom_algebra, check_hom_coalgebra, check_hom_bialgebra, check_antipode)
        tasks = [partial(f, obj) for f, obj in zip(checkers, (alg, coa, bia, hopf)) if obj]
        if level == "quasitriangular":
            blocks = [b for b in bundle.blocks_of("rmatrix") if b.refs[0] == rec.name]
            if not blocks:
                _fail_usage(f"quasitriangular level needs an rmatrix block on {rec.name!r}")
            tasks.append(partial(check_quasitriangular, bia, bundle.rmatrix(blocks[0])))
    except (HomHopfError, OSError) as exc:
        _fail_usage(str(exc))
    del bundle, rec  # the record's dense tensors are not read again: free them before the sweeps

    combined = merge_reports(*(t() for t in tasks))
    _print_report(combined)
    status = EXIT_PASS if combined.ok else EXIT_FAIL
    print("all checks passed" if combined.ok else "some checks failed")
    _write_report(
        report_path, f"check --level {level}", [(source, raw)], [_report_json(combined)], status
    )
    sys.exit(status)


KINDS = (
    "dual",
    "op",
    "double",
    "double-tilde",
    "heisenberg",
    "bicross",
    "self-bicross",
    "dual-pair-double",
    "twist",
)


def construct(kind, source, cocycle_path, side, out_path, force, report_path):
    """Build the KIND construction from SOURCE and write it in file format."""
    from .constructions import (
        bicrossproduct,
        cocycle_twist,
        drinfeld_double,
        drinfeld_double_tilde,
        dual,
        dual_pair_double,
        evaluation_pairing,
        heisenberg_double,
        opposite,
        self_bicross,
    )
    from .errors import HomHopfError, PreconditionFailed
    from .fileformat import SCHEMA_VERSION, AlgebraFile, object_record, parse, serialize
    from .structures import TwoCocycle

    check_flag = not force
    inputs = []
    try:
        bundle, raw, _ = _load_input(source)
        inputs.append((source, raw))
        rec = bundle.object()
        base = rec.name
        if kind == "dual":
            result = object_record(f"dual_{base}", dual(rec.hom_hopf()))
        elif kind == "op":
            result = object_record(f"op_{base}", opposite(rec.hom_hopf()))
        elif kind == "double":
            result = object_record(f"double_{base}", drinfeld_double(rec.hom_hopf()))
        elif kind == "double-tilde":
            result = object_record(f"double_tilde_{base}", drinfeld_double_tilde(rec.hom_hopf()))
        elif kind == "heisenberg":
            result = object_record(f"heisenberg_{base}", heisenberg_double(rec.hom_hopf()))
        elif kind == "self-bicross":
            result = object_record(f"self_bicross_{base}", self_bicross(rec.hom_hopf(), check=check_flag))
        elif kind == "bicross":
            act, co = bundle.module_action(), bundle.comodule_coaction()
            built = bicrossproduct(act.carrier, act.actor, act, co, check=check_flag)
            result = object_record(f"bicross_{base}", built)
        elif kind == "dual-pair-double":
            pair_blocks = bundle.blocks_of("pairing")
            pairing = bundle.pairing(pair_blocks[0]) if pair_blocks else evaluation_pairing(rec.hom_hopf())
            result = object_record(
                f"pair_double_{base}", dual_pair_double(pairing, check=check_flag).hopf
            )
        elif kind == "twist":
            if cocycle_path is None:
                _fail_usage("twist needs --cocycle <file>")
            craw = _read(cocycle_path)
            inputs.append((cocycle_path, craw))
            given = parse(craw).cocycle()
            host = rec.hom_bialgebra()
            if given.algebra.dim != host.dim:
                _fail_usage("cocycle host dimension differs from the input algebra")
            # the input algebra hosts the twist; --side overrides the block's side
            sigma = TwoCocycle(host, given.gram, side or given.side)
            result = object_record(f"twist_{base}", cocycle_twist(host, sigma, check=check_flag))
        else:  # pragma: no cover
            raise AssertionError(kind)
    except PreconditionFailed as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        results = []
        if exc.report is not None:
            _print_report(exc.report)
            results = [_report_json(exc.report)]
        _write_report(report_path, f"construct {kind}", inputs, results, EXIT_FAIL)
        sys.exit(EXIT_FAIL)
    except (HomHopfError, OSError) as exc:
        _fail_usage(str(exc))

    out_file = AlgebraFile(SCHEMA_VERSION, (result,), ())
    data = serialize(out_file)
    if out_path:
        _write(out_path, data)
        print(f"wrote {result.name} (dim {result.dim}) to {out_path}")
    else:
        sys.stdout.write(data.decode())
    _write_report(report_path, f"construct {kind}", inputs, [], EXIT_PASS)
    sys.exit(EXIT_PASS)


SUITES = ("thm2.6", "cor2.9", "prop2.19", "thm4.5", "dual-pair", "prop4.7")


def verify(suite, source, report_path, jobs):
    """Run a named verification suite on an algebra."""
    del jobs
    from .errors import HomHopfError
    from .verify import verify_cor_2_9, verify_dual_pair_route, verify_prop_2_19, verify_prop_4_7
    from .verify import verify_thm_2_6, verify_thm_4_5

    try:
        bundle, raw, entry = _load_input(source)
        rec = bundle.object()
        hopf = rec.hom_hopf()
        group = entry.group if entry is not None else None
        if suite == "thm2.6":
            act = bundle.module_action()
            co = bundle.comodule_coaction()
            from .catalog import catalog_ex27_expected, get_entry

            # the golden tables are those of the catalog's ax1 data (a coaction's
            # rows fix its shape with the coactor's dimension)
            ax1 = get_entry("ax1")
            given = (act.carrier, act.actor, act.act_cells, co.coactor.dim, co.coact_rows)
            want = (ax1.hopf, ax1.partner, ax1.action.act_cells, ax1.hopf.dim, ax1.coaction.coact_rows)
            golden = catalog_ex27_expected() if given == want else None
            result = verify_thm_2_6(act.carrier, act.actor, act, co, golden)
        elif suite == "cor2.9":
            result = verify_cor_2_9(hopf, group)
        elif suite == "prop2.19":
            result = verify_prop_2_19(hopf, group)
        elif suite == "thm4.5":
            result = verify_thm_4_5(hopf)
        elif suite == "dual-pair":
            result = verify_dual_pair_route(hopf)
        else:
            result = verify_prop_4_7(hopf)
    except (HomHopfError, OSError) as exc:
        _fail_usage(str(exc))

    _print_suite(result)
    status = EXIT_PASS if result.passed else EXIT_FAIL
    _write_report(report_path, f"verify {suite}", [(source, raw)], [_suite_json(result)], status)
    sys.exit(status)


def export(name, out_path):
    """Write a catalog entry (with its bundled blocks) in file format."""
    from .catalog import get_entry
    from .errors import InvalidParameter
    from .fileformat import bundle_of_entry, serialize

    try:
        entry = get_entry(name)
    except InvalidParameter as exc:
        _fail_usage(str(exc))
    data = serialize(bundle_of_entry(entry))
    if out_path:
        _write(out_path, data)
        print(f"wrote {name} to {out_path}")
    else:
        sys.stdout.write(data.decode())
    sys.exit(EXIT_PASS)


JOBS_HELP = "accepted for compatibility and ignored: checks run serially"


def _existing_path(path: str) -> str:
    import os

    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"path {path!r} does not exist")
    return path


def _parser(prog: str | None) -> argparse.ArgumentParser:
    """The command grammar: options by their full name only, and ``--help`` without ``-h``."""

    def with_help(p):
        p.add_argument("--help", action="help", help="show this message and exit")
        return p

    top = with_help(argparse.ArgumentParser(prog, description=main.__doc__, add_help=False, allow_abbrev=False))
    top.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = top.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(fn):
        doc = fn.__doc__
        sub = commands.add_parser(fn.__name__, help=doc, description=doc, add_help=False, allow_abbrev=False)
        sub.set_defaults(command=fn)
        return with_help(sub)

    sub = command(check)
    sub.add_argument("source", metavar="SOURCE")
    sub.add_argument("--level", choices=LEVELS, default="hopf")
    sub.add_argument("--report", dest="report_path", metavar="PATH")
    sub.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)

    sub = command(construct)
    sub.add_argument("kind", choices=KINDS)
    sub.add_argument("source", metavar="SOURCE")
    sub.add_argument("--cocycle", dest="cocycle_path", metavar="PATH", type=_existing_path)
    sub.add_argument("--side", choices=("left", "right"))
    sub.add_argument("--out", dest="out_path", metavar="PATH")
    sub.add_argument("--force", action="store_true", help="skip precondition verification")
    sub.add_argument("--report", dest="report_path", metavar="PATH")

    sub = command(verify)
    sub.add_argument("suite", choices=SUITES)
    sub.add_argument("--algebra", dest="source", required=True, help="catalog name or definition file")
    sub.add_argument("--report", dest="report_path", metavar="PATH")
    sub.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)

    sub = command(export)
    sub.add_argument("name", metavar="NAME")
    sub.add_argument("--out", dest="out_path", metavar="PATH")
    return top


def main(args=None, prog_name=None):
    """Exact axiom checking and constructions for Hom-Hopf algebras."""
    if prog_name is None and __name__ == "__main__":
        prog_name = f"python -m {__spec__.name}"
    namespace = vars(_parser(prog_name).parse_args(args))
    # Every command runs on `structures`, the largest module. Compiling it
    # first, while the heap is smallest, lowers a command's peak RSS.
    from . import structures  # noqa: F401
    namespace.pop("command")(**namespace)


if __name__ == "__main__":
    main()
