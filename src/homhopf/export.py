"""The body of the ``export`` command, which only an ``export`` process
compiles: a catalog entry, with its bundled blocks, in file format."""

import sys

from .algfile import bundle_of_entry, write
from .catalog import get_entry
from .cliio import EXIT_PASS, _fail_usage, _write, _write_stdout
from .errors import InvalidParameter


def export(name, out_path):
    try:
        entry = get_entry(name)
    except InvalidParameter as exc:
        _fail_usage(str(exc))
    data = write(bundle_of_entry(entry))
    if out_path is None:
        _write_stdout(data)
    else:
        _write(out_path, data)
        print(f"wrote {name} to {out_path}")
    sys.exit(EXIT_PASS)
