"""Command-line interface: check, construct, verify, export.

Exit codes: 0 every check passed, 1 a verified failure (a red axiom, a
failed precondition, a failed comparison), 2 an input or usage error or a
failed write to standard output.
Reports written with ``--report`` are deterministic: the embedded digest is
computed over the document with wall-time fields removed.

This module is the parser and ``--version``; each command's body is the
function of its name in the module of its name (``check``, ``construct``,
``verify``, ``export``), the helpers the bodies share are in ``cliio``, and
the help and usage texts in ``clihelp``, which only ``--help`` and a refused
command line load.  A process compiles only the modules its command runs:
``--version`` none of the package beyond ``__init__``, ``check`` its body,
``cliio``, the file format (``algfile``) and, once its input has loaded,
the checkers (``checkers``), ``construct`` also the constructions, and
``verify`` also the suite's own section; the reader (``algread``) only where
a file is read.  The arguments are parsed by
the command table ``COMMANDS``, not by ``argparse``, whose import and parser
set-up cost every process about 4.5 ms.
"""

from __future__ import annotations

import atexit
import os
import sys
from importlib import import_module

from . import __version__

LEVELS = ("algebra", "coalgebra", "bialgebra", "hopf", "quasitriangular")
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
SUITES = ("thm2.6", "cor2.9", "prop2.19", "thm4.5", "dual-pair", "prop4.7")

REQUIRED = object()  # the default of an option that must be given
EXISTING = "FILE"  # the kind of a path that must exist when it is read

# The command table: each command's positionals, as (name, kind), and its
# options, as {option: (name, kind, default)}; the command's body takes a
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


def _show(text: str) -> None:
    """Write ``--help`` or ``--version`` text and exit 0; a failed write
    raises, so ``run`` exits 2."""
    sys.stdout.write(text)
    sys.exit(0)


def _help(prog: str, command: str | None) -> str:
    from .clihelp import help_text

    return help_text(sys.modules[__name__], prog, command)


def _refuse(prog: str, command: str | None, message: str) -> None:
    from .clihelp import refuse

    refuse(sys.modules[__name__], prog, command, message)


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
    # Every command runs on `structures`, the domain types. Compiling it
    # first, while the heap is smallest, lowers a command's peak RSS.
    from . import structures  # noqa: F401
    getattr(import_module(f".{command}", __package__), command)(**values)


def run():
    """Run one command as a whole process (``homhopf`` and ``python -m``).

    A failed write to standard output exits 2; stdout then points at
    ``os.devnull``, so no later flush can change the status.  The process
    then ends without the interpreter's teardown, which frees what the OS
    frees anyway: ``run`` calls the ``atexit`` handlers, flushes both
    streams and ends with ``os._exit`` and the status of ``main()``.  An
    uncaught exception takes the interpreter's own way out.
    """
    try:
        try:
            try:
                main()
            finally:
                sys.stdout.flush()
        except OSError as exc:  # every other file a command opens reports its own errors
            from .cliio import _fail_usage

            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            _fail_usage(f"cannot write standard output: {exc.strerror or exc}")
    except SystemExit as exc:  # every command ends in ``sys.exit`` with an int status
        status = exc.code
    else:
        status = 0
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
