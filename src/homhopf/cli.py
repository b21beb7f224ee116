"""Command-line interface: check, construct, verify, export.

Exit codes: 0 every check passed, 1 a verified failure (a red axiom, a
failed precondition, a failed comparison), 2 an input or usage error or a
failed write to standard output.
Reports written with ``--report`` are deterministic: the embedded digest is
computed over the document with wall-time fields removed.

This module is the parser, the help texts and ``--version``; each command's
body is the function of its name in the module of its name (``check``,
``construct``, ``verify``, ``export``), and the helpers the bodies share are
in ``cliio``.  A process compiles only the modules its command runs:
``--version`` none of the package beyond ``__init__``, ``check`` its body,
``cliio``, the file format (``algfile``) and the checkers, ``construct``
also the constructions, and ``verify`` also the suite's own section; the
reader (``algread``) only where a file is read.  The arguments are parsed by
the command table ``COMMANDS``, not by ``argparse``, whose import and parser
set-up cost every process about 4.5 ms.
"""

from __future__ import annotations

import gc
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
# The help line of each command and option; a command's line also heads its own ``--help``.
HELP = {
    "check": "Run the axiom checkers for LEVEL on SOURCE (file or catalog name).",
    "construct": "Build the KIND construction from SOURCE and write it in file format.",
    "verify": "Run a named verification suite on an algebra.",
    "export": "Write a catalog entry (with its bundled blocks) in file format.",
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
    """The usage line, the help text and one line for each command or option
    that has a help text."""
    if command is None:
        doc = main.__doc__
        names = (*COMMANDS, "--help", "--version")
    else:
        doc = HELP[command]
        names = ("--help", *COMMANDS[command][1])
    rows = [(name, HELP[name]) for name in names if name in HELP]
    width = max(len(name) for name, _ in rows)
    lines = (f"  {name:<{width}}  {text}" for name, text in rows)
    return f"{_usage(prog, command)}\n\n{doc}\n\n" + "\n".join(lines) + "\n"


def _show(text: str) -> None:
    """Write ``--help`` or ``--version`` text and exit 0; a failed write
    raises, so ``run`` exits 2."""
    sys.stdout.write(text)
    sys.exit(0)


def _refuse(prog: str, command: str | None, message: str) -> None:
    from .cliio import _fail_usage

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
    getattr(import_module(f".{command}", __package__), command)(**values)


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
        from .cliio import _fail_usage

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _fail_usage(f"cannot write standard output: {exc.strerror or exc}")
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
