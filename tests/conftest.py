"""Shared test helpers."""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from homhopf.cli import main


@dataclass(frozen=True)
class CliResult:
    """What one in-process CLI command left: ``output`` is stdout and stderr
    together, in the order they were written."""

    exit_code: int
    stdout: str
    stderr: str
    output: str


class _Tee(io.StringIO):
    """A captured stream that also copies every write to a shared one."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, text: str) -> int:
        self.shared.write(text)
        return super().write(text)


def run_cli(args) -> CliResult:
    """Run ``homhopf`` with ``args`` in this process and capture what it wrote."""
    output = io.StringIO()
    out, err = _Tee(output), _Tee(output)
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(args=list(args), prog_name="homhopf")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return CliResult(code, out.getvalue(), err.getvalue(), output.getvalue())


def replaced(obj, **changes):
    """A new value of the type of ``obj`` with the fields in ``changes``
    replaced, built by its constructor as ``dataclasses.replace`` builds one;
    ``obj.__match_args__`` names the fields of a ``homhopf`` value type."""
    return type(obj)(**{**{f: getattr(obj, f) for f in obj.__match_args__}, **changes})
