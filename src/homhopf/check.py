"""The body of the ``check`` command, which only a ``check`` process compiles:
the axiom checkers of one level on one input.  The checkers are imported
once the input has loaded, so a refused input compiles none of them."""

import sys

from .cliio import EXIT_FAIL, EXIT_PASS, _fail_usage, _load_input, _print_report, _report_json, _write_report
from .errors import HomHopfError


def check(source, level, report_path, jobs):
    del jobs
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

    from .checkers import (
        check_antipode, check_hom_algebra, check_hom_bialgebra, check_hom_coalgebra, check_quasitriangular,
        merge_reports,
    )

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
