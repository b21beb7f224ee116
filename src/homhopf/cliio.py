"""What the command bodies share: the exit codes, loading an input, reading
and writing files, and printing and writing reports.  No module imports
``cli``: run as ``python -m homhopf.cli``, it is ``__main__``, and importing
it as ``homhopf.cli`` would compile it a second time.  A report only
encodes, so ``_json_text`` writes it without importing ``json``."""

from __future__ import annotations

import os
import sys

from . import __version__

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _load_input(source: str):
    """Resolve a path or catalog name to (bundle, input, catalog-entry).  The
    input is what a report digests: a file's bytes, or a catalog entry's
    bundle, which ``_write_report`` serializes only when a report is written."""
    from .errors import InvalidParameter

    if os.path.exists(source):
        from .algread import read

        raw = _read(source)
        return read(raw), raw, None
    from .algfile import bundle_of_entry
    from .catalog import catalog_names, get_entry

    try:
        entry = get_entry(source)
    except InvalidParameter as exc:
        raise InvalidParameter(
            f"{source!r} is neither an existing file nor a catalog name: {exc} "
            f"(catalog: {', '.join(catalog_names())})"
        ) from None
    bundle = bundle_of_entry(entry)
    return bundle, bundle, entry


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


def _json_text(doc, canonical: bool) -> str:
    """The text of ``json.dumps(doc, sort_keys=True, indent=2)``, or, if
    ``canonical``, of the compact ``separators=(",", ":")`` dump with no
    ``wall_time`` key, which a report digests; strings go through CPython's
    C escaper, without the rest of ``json``.  Any other type, a key that is
    not a ``str`` and a non-finite float raise ``TypeError``."""
    try:
        from _json import encode_basestring_ascii as quote
    except ImportError:  # an interpreter without the C accelerator
        from json.encoder import encode_basestring_ascii as quote
    from math import isfinite

    def text(node, pad: str) -> str:
        if isinstance(node, str):
            return quote(node)
        if node is None or isinstance(node, bool):
            return "null" if node is None else "true" if node else "false"
        if isinstance(node, int):
            return int.__repr__(node)
        if isinstance(node, float) and isfinite(node):
            return float.__repr__(node)
        inner = pad if canonical else pad + "  "
        if isinstance(node, (list, tuple)):
            brackets, items = "[]", [text(value, inner) for value in node]
        elif isinstance(node, dict) and all(isinstance(key, str) for key in node):
            colon = ":" if canonical else ": "
            kept = (kv for kv in sorted(node.items()) if not (canonical and kv[0] == "wall_time"))
            brackets, items = "{}", [quote(key) + colon + text(value, inner) for key, value in kept]
        else:
            raise TypeError(f"{node!r} has no JSON text")
        lead = "" if canonical or not items else "\n" + inner
        return brackets[0] + lead + ("," + lead).join(items) + (lead and "\n" + pad) + brackets[1]

    return text(doc, "")


def _write_report(path, command: str, inputs, results, status: int) -> None:
    """Write the report of ``command`` to ``path``, if one is asked for: each
    input as ``(source, data)``, its data the bytes read or a bundle to
    serialize (``_load_input``)."""
    if path is None:
        return
    try:  # CPython's own SHA-256: `hashlib` would also load OpenSSL's `_hashlib`
        from _sha256 import sha256
    except ImportError:  # no such module from Python 3.12 on
        from hashlib import sha256

    from .algfile import SCHEMA_VERSION, write

    inputs = [(src, data if isinstance(data, bytes) else write(data)) for src, data in inputs]
    doc = {
        "tool": "homhopf",
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "command": command,
        "inputs": [{"source": src, "sha256": sha256(raw).hexdigest()} for src, raw in inputs],
        "results": results,
        "status": status,
    }
    doc["digest"] = sha256(_json_text(doc, canonical=True).encode()).hexdigest()
    _write(path, (_json_text(doc, canonical=False) + "\n").encode())


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


def _write_stdout(data: bytes) -> None:
    """Write ``data`` to standard output, every byte of it.  Unbuffered (``-u``),
    ``sys.stdout.buffer`` is the raw file, which may take only part of a
    write, and the text layer would drop the rest: so the bytes go to it
    until it has taken them all, and a failed write raises (``run`` exits 2)."""
    sys.stdout.flush()
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # a text stream, such as an in-process capture
        sys.stdout.write(data.decode())
        return
    view = memoryview(data)
    while view:
        view = view[out.write(view) :]


def _fail_usage(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(EXIT_USAGE)
