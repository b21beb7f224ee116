"""Command-line interface: check, construct, verify, export.

Exit codes: 0 every check passed, 1 a verified failure (a red axiom, a
failed precondition, a failed comparison), 2 an input or usage error or a
failed write to standard output.
Reports written with ``--report`` are deterministic: the embedded digest is
computed over the document with wall-time fields removed.

Each command imports the modules it runs when it runs, so a process compiles
only those: ``--version`` none of the package beyond ``__init__``, ``check``
the file format (``algfile``) and the checkers, ``construct`` also the
constructions, and ``verify`` also ``verify`` and the suite's own section;
the reader (``algread``) only where a file is read.  The arguments are
parsed by the command table ``COMMANDS``, not by ``argparse``, whose import
and parser set-up cost every process about 4.5 ms.
"""

from __future__ import annotations

import gc
import os
import sys

from . import __version__

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _load_input(source: str):
    """Resolve a path or catalog name to (bundle, raw-bytes, catalog-entry)."""
    from .algfile import bundle_of_entry, write
    from .errors import InvalidParameter

    if os.path.exists(source):
        from .algread import read

        raw = _read(source)
        return read(raw), raw, None
    from .catalog import catalog_names, get_entry

    try:
        entry = get_entry(source)
    except InvalidParameter as exc:
        raise InvalidParameter(
            f"{source!r} is neither an existing file nor a catalog name: {exc} "
            f"(catalog: {', '.join(catalog_names())})"
        ) from None
    bundle = bundle_of_entry(entry)
    return bundle, write(bundle), entry


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
    if path is None:
        return
    import hashlib
    import json

    from .algfile import SCHEMA_VERSION

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
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        _fail_usage(f"cannot read {path}: {exc.strerror or exc}")


def _write(path, data: bytes) -> None:
    """Write an output file; an unwritable path, the empty one included, is
    an input error (exit 2)."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        _fail_usage(f"cannot write {path}: {exc.strerror or exc}")


def _fail_usage(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(EXIT_USAGE)


LEVELS = ("algebra", "coalgebra", "bialgebra", "hopf", "quasitriangular")


def check(source, level, report_path, jobs):
    """Run the axiom checkers for LEVEL on SOURCE (file or catalog name)."""
    del jobs
    from .errors import HomHopfError
    from .structures import (
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
        bia = rec.hom_bialgebra() if level not in ("algebra", "coalgebra") else None
        alg = bia.algebra if bia else rec.hom_algebra() if level == "algebra" else None
        coa = bia.coalgebra if bia else rec.hom_coalgebra() if level == "coalgebra" else None
        hopf = rec.hom_hopf() if level in ("hopf", "quasitriangular") else None
        rmatrix = None
        if level == "quasitriangular":
            blocks = [b for b in bundle.blocks_of("rmatrix") if b.refs[0] == rec.name]
            if not blocks:
                _fail_usage(f"quasitriangular level needs an rmatrix block on {rec.name!r}")
            rmatrix = bundle.rmatrix(blocks[0])
    except (HomHopfError, OSError) as exc:
        _fail_usage(str(exc))

    checkers = (check_hom_algebra, check_hom_coalgebra, check_hom_bialgebra, check_antipode)
    reports = [checker(obj) for checker, obj in zip(checkers, (alg, coa, bia, hopf)) if obj]
    if rmatrix is not None:
        reports.append(check_quasitriangular(bia, rmatrix))
    combined = merge_reports(*reports)
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
        cocycle_twist,
        drinfeld_double,
        drinfeld_double_tilde,
        dual,
        heisenberg_double,
        opposite,
    )
    from .algfile import SCHEMA_VERSION, AlgebraFile, object_record, write
    from .errors import HomHopfError, PreconditionFailed
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
            from .bicross import self_bicross

            result = object_record(f"self_bicross_{base}", self_bicross(rec.hom_hopf(), check=check_flag))
        elif kind == "bicross":
            from .bicross import bicrossproduct

            act, co = bundle.module_action(), bundle.comodule_coaction()
            built = bicrossproduct(act.carrier, act.actor, act, co, check=check_flag)
            result = object_record(f"bicross_{base}", built)
        elif kind == "dual-pair-double":
            from .pairing import dual_pair_double, evaluation_pairing

            pair_blocks = bundle.blocks_of("pairing")
            pairing = bundle.pairing(pair_blocks[0]) if pair_blocks else evaluation_pairing(rec.hom_hopf())
            result = object_record(
                f"pair_double_{base}", dual_pair_double(pairing, check=check_flag).hopf
            )
        elif kind == "twist":
            if cocycle_path is None:
                _fail_usage("twist needs --cocycle <file>")
            from .algread import read

            craw = _read(cocycle_path)
            inputs.append((cocycle_path, craw))
            given = read(craw).cocycle()
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

    data = write(AlgebraFile(SCHEMA_VERSION, (result,), ()))
    if out_path is None:
        sys.stdout.write(data.decode())
    else:
        _write(out_path, data)
        print(f"wrote {result.name} (dim {result.dim}) to {out_path}")
    _write_report(report_path, f"construct {kind}", inputs, [], EXIT_PASS)
    sys.exit(EXIT_PASS)


SUITES = ("thm2.6", "cor2.9", "prop2.19", "thm4.5", "dual-pair", "prop4.7")


def verify(suite, source, report_path):
    """Run a named verification suite on an algebra."""
    from . import verify as suites
    from .errors import HomHopfError

    run = getattr(suites, suites.SUITES[suite][1])  # compiles the suite's own section
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


def export(name, out_path):
    """Write a catalog entry (with its bundled blocks) in file format."""
    from .algfile import bundle_of_entry, write
    from .catalog import get_entry
    from .errors import InvalidParameter

    try:
        entry = get_entry(name)
    except InvalidParameter as exc:
        _fail_usage(str(exc))
    data = write(bundle_of_entry(entry))
    if out_path is None:
        sys.stdout.write(data.decode())
    else:
        _write(out_path, data)
        print(f"wrote {name} to {out_path}")
    sys.exit(EXIT_PASS)


REQUIRED = object()  # the default of an option that must be given
EXISTING = "FILE"  # the kind of a path that must exist when it is read

# The command table: each command's positionals, as (name, kind), and its
# options, as {option: (name, kind, default)}; the command function takes a
# keyword argument of each name.  A kind is a tuple of choices, ``int``,
# ``bool`` (a flag, which takes no value), EXISTING, or the metavar of any
# other value.
COMMANDS = {
    "check": (
        (("source", "SOURCE"),),
        {
            "--level": ("level", LEVELS, "hopf"),
            "--report": ("report_path", "PATH", None),
            "--jobs": ("jobs", int, 1),
        },
    ),
    "construct": (
        (("kind", KINDS), ("source", "SOURCE")),
        {
            "--cocycle": ("cocycle_path", EXISTING, None),
            "--side": ("side", ("left", "right"), None),
            "--out": ("out_path", "PATH", None),
            "--force": ("force", bool, False),
            "--report": ("report_path", "PATH", None),
        },
    ),
    "verify": (
        (("suite", SUITES),),
        {"--algebra": ("source", "SOURCE", REQUIRED), "--report": ("report_path", "PATH", None)},
    ),
    "export": ((("name", "NAME"),), {"--out": ("out_path", "PATH", None)}),
}
OPTION_HELP = {
    "--help": "show this message and exit",
    "--version": "show the version and exit",
    "--algebra": "catalog name or definition file",
    "--force": "skip precondition verification",
    "--jobs": "accepted for compatibility and ignored: checks run serially",
}


def _metavar(kind) -> str:
    if isinstance(kind, tuple):
        return "{" + ",".join(kind) + "}"
    return "N" if kind is int else kind


def _usage(prog: str, command: str | None) -> str:
    if command is None:
        return f"usage: {prog} [--help] [--version] COMMAND ..."
    positionals, options = COMMANDS[command]
    words = ["[--help]"]
    for option, (_, kind, default) in options.items():
        word = option if kind is bool else f"{option} {_metavar(kind)}"
        words.append(word if default is REQUIRED else f"[{word}]")
    words += (_metavar(kind) for _, kind in positionals)
    return f"usage: {prog} {command} {' '.join(words)}"


def _help(prog: str, command: str | None) -> str:
    """The usage line, the docstring and one line for each command or option
    that has a help text."""
    if command is None:
        doc = main.__doc__
        rows = [(name, globals()[name].__doc__) for name in COMMANDS]
        rows += [(option, OPTION_HELP[option]) for option in ("--help", "--version")]
    else:
        doc = globals()[command].__doc__
        names = ("--help", *COMMANDS[command][1])
        rows = [(option, OPTION_HELP[option]) for option in names if option in OPTION_HELP]
    width = max(len(name) for name, _ in rows)
    lines = (f"  {name:<{width}}  {text}" for name, text in rows)
    return f"{_usage(prog, command)}\n\n{doc}\n\n" + "\n".join(lines) + "\n"


def _show(text: str) -> None:
    """Write ``--help`` or ``--version`` text and exit 0; a failed write
    raises, so ``run`` exits 2."""
    sys.stdout.write(text)
    sys.exit(EXIT_PASS)


def _refuse(prog: str, command: str | None, message: str) -> None:
    print(_usage(prog, command), file=sys.stderr)
    _fail_usage(message)


def _is_option(token: str, names) -> bool:
    """Whether ``token`` reads as an option (argparse's rule): it starts with
    ``-``, and unless it is one of ``names``, or one of them with ``=value``,
    it is neither ``-``, a negative number nor a word holding a space."""
    if not token.startswith("-") or token == "-":
        return False
    if token.partition("=")[0] in names:
        return True
    whole, dot, fraction = token[1:].partition(".")
    number = fraction.isdecimal() and (whole == "" or whole.isdecimal()) if dot else whole.isdecimal()
    return not number and " " not in token


def _arguments(prog: str, command: str, tokens) -> dict:
    """``command``'s keyword arguments, read from the iterator ``tokens`` by
    the command table.  Options come by their full name only, as ``--opt
    value`` or ``--opt=value``, before or after the positionals, and the last
    of a repeated option wins; ``--`` ends the options.  ``--help`` (exit 0)
    and a refused value (exit 2) end the process where they are read; an
    unknown option or an extra positional is refused once every other token
    has been read, as argparse does."""
    positionals, options = COMMANDS[command]
    names = ("--help", *options)
    values = {name: default for name, _, default in options.values()}
    given, stray = [], []

    def convert(label: str, kind, text: str):
        if isinstance(kind, tuple) and text not in kind:
            _refuse(prog, command, f"argument {label}: invalid choice: {text!r} (choose from {', '.join(kind)})")
        if kind is int:
            try:
                return int(text)
            except ValueError:
                _refuse(prog, command, f"argument {label}: invalid int value: {text!r}")
        if kind == EXISTING and not os.path.exists(text):
            _refuse(prog, command, f"argument {label}: path {text!r} does not exist")
        return text

    def positional(token: str) -> None:
        if len(given) == len(positionals):
            stray.append(token)
        else:
            name, kind = positionals[len(given)]
            given.append(convert(name.upper(), kind, token))

    for token in tokens:
        if token == "--":
            for token in tokens:
                positional(token)
        elif not _is_option(token, names):
            positional(token)
        else:
            option, explicit, text = token.partition("=")
            if option not in names:
                stray.append(token)
                continue
            name, kind, _ = options.get(option, (None, bool, None))
            if kind is bool:
                if explicit:
                    _refuse(prog, command, f"argument {option}: ignored explicit argument {text!r}")
                if option == "--help":
                    _show(_help(prog, command))
                values[name] = True
                continue
            if not explicit:
                text = next(tokens, "--")
                if text == "--" or _is_option(text, names):
                    _refuse(prog, command, f"argument {option}: expected one argument")
            values[name] = convert(option, kind, text)

    missing = [name.upper() for name, _ in positionals[len(given) :]]
    missing += [option for option, (name, _, _) in options.items() if values[name] is REQUIRED]
    if missing:
        _refuse(prog, command, f"the following arguments are required: {', '.join(missing)}")
    if stray:
        _refuse(prog, command, f"unrecognized arguments: {' '.join(stray)}")
    values.update(zip((name for name, _ in positionals), given))
    return values


def _parse(prog: str, args) -> tuple[str, dict]:
    """The command ``args`` name and its keyword arguments.  Before the
    command come only ``--help`` and ``--version``, each of which exits 0
    where it is read."""
    tokens = iter(args)
    stray = []
    for token in tokens:
        if not _is_option(token, ("--help", "--version")):
            break
        option, explicit, text = token.partition("=")
        if option not in ("--help", "--version"):
            stray.append(token)
        elif explicit:
            _refuse(prog, None, f"argument {option}: ignored explicit argument {text!r}")
        else:
            _show(_help(prog, None) if option == "--help" else f"{prog}, version {__version__}\n")
    else:
        _refuse(prog, None, "the following arguments are required: COMMAND")
    if token not in COMMANDS:
        _refuse(prog, None, f"argument COMMAND: invalid choice: {token!r} (choose from {', '.join(COMMANDS)})")
    values = _arguments(prog, token, tokens)
    if stray:
        _refuse(prog, None, f"unrecognized arguments: {' '.join(stray)}")
    return token, values


def main(args=None, prog_name=None):
    """Exact axiom checking and constructions for Hom-Hopf algebras."""
    if prog_name is None:
        prog_name = f"python -m {__spec__.name}" if __name__ == "__main__" else os.path.basename(sys.argv[0])
    command, values = _parse(prog_name, sys.argv[1:] if args is None else args)
    # Every command runs on `structures`, the largest module. Compiling it
    # first, while the heap is smallest, lowers a command's peak RSS.
    from . import structures  # noqa: F401
    globals()[command](**values)


def run():
    """Run one command as a whole process (``homhopf`` and ``python -m``).

    A failed write to standard output exits 2; stdout then points at
    ``os.devnull``, so the interpreter's last flush cannot change the status.
    On the way out ``gc.freeze()`` moves every live object to the permanent
    generation, which the exit-time collections skip; ``main()`` never freezes.
    """
    try:
        try:
            main()
        finally:
            sys.stdout.flush()
    except OSError as exc:  # every other file a command opens reports its own errors
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _fail_usage(f"cannot write standard output: {exc.strerror or exc}")
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
