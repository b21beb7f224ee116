"""The body of the ``construct`` command, which only a ``construct`` process
compiles: one construction of one input, in file format.  A construction of
a section of the paper imports that section when it runs."""

import sys

from .algfile import SCHEMA_VERSION, AlgebraFile, object_record, write
from .cliio import (
    EXIT_FAIL, EXIT_PASS, _fail_usage, _load_input, _print_report, _read, _report_json, _write, _write_report,
    _write_stdout,
)
from .constructions import drinfeld_double, drinfeld_double_tilde, dual, heisenberg_double, opposite
from .errors import HomHopfError, PreconditionFailed


def construct(kind, source, cocycle_path, side, out_path, force, report_path):
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
            from .twist import TwoCocycle, cocycle_twist

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
        _write_stdout(data)
    else:
        _write(out_path, data)
        print(f"wrote {result.name} (dim {result.dim}) to {out_path}")
    _write_report(report_path, f"construct {kind}", inputs, [], EXIT_PASS)
    sys.exit(EXIT_PASS)
