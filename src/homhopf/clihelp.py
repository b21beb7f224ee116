"""The help and usage texts of the command line, which only ``--help`` and a
refused command line load.  ``cli`` hands itself in as ``parser`` (its
command table ``COMMANDS``, ``REQUIRED`` and ``main``): importing it here
would compile it a second time under ``python -m homhopf.cli``."""

from __future__ import annotations

import sys

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


def _usage(parser, prog: str, command: str | None) -> str:
    if command is None:
        return f"usage: {prog} [--help] [--version] COMMAND ..."
    positionals, options = parser.COMMANDS[command]
    words = ["[--help]"]
    for option, (_, kind, default) in options.items():
        word = option if kind is bool else f"{option} {_metavar(kind)}"
        words.append(word if default is parser.REQUIRED else f"[{word}]")
    words += (_metavar(kind) for _, kind in positionals)
    return f"usage: {prog} {command} {' '.join(words)}"


def help_text(parser, prog: str, command: str | None) -> str:
    """The usage line, the help text and one line for each command or option
    that has a help text."""
    if command is None:
        doc = parser.main.__doc__
        names = (*parser.COMMANDS, "--help", "--version")
    else:
        doc = HELP[command]
        names = ("--help", *parser.COMMANDS[command][1])
    rows = [(name, HELP[name]) for name in names if name in HELP]
    width = max(len(name) for name, _ in rows)
    lines = (f"  {name:<{width}}  {text}" for name, text in rows)
    return f"{_usage(parser, prog, command)}\n\n{doc}\n\n" + "\n".join(lines) + "\n"


def refuse(parser, prog: str, command: str | None, message: str) -> None:
    """Print the usage line, then ``message`` as an error, and exit 2."""
    from .cliio import _fail_usage

    print(_usage(parser, prog, command), file=sys.stderr)
    _fail_usage(message)
