"""The benchmark's tracer finds every function it spans.

``perfbench/tracer.py`` imports each ``homhopf.<layer>`` of its ``LAYERS``
table and wraps the listed functions that the layer resolves.  A layer that
no longer imports crashes every traced run, and a suite that
``homhopf.verify`` no longer resolves silently loses its span.  ``LAYERS``
is read from the tracer file as it is.  ``RESOLVED`` names each ``LAYERS``
function that resolved when the checkers moved to ``homhopf.checkers``; a
relayout that stops resolving one would read its per-layer rows as zero.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from homhopf import verify

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()

RESOLVED = {
    "catalog": ("get_entry",),
    "fileformat": ("parse", "serialize", "bundle_of_entry"),
    "verify": (
        "verify_thm_2_6", "verify_cor_2_9", "verify_prop_2_19", "verify_thm_4_5",
        "verify_dual_pair_route", "verify_prop_4_7",
    ),
    "constructions": (
        "drinfeld_double", "drinfeld_double_tilde", "canonical_cocycles", "cocycle_twist",
        "heisenberg_double", "canonical_r_matrix", "dual", "opposite", "yau_twist",
    ),
    "structures": (
        "check_hom_algebra", "check_hom_coalgebra", "check_hom_bialgebra", "check_antipode",
        "run_hopf_suite", "check_quasitriangular",
    ),
    "exactlin": ("apply_map", "bilinear_apply", "mat_inverse", "kron"),
}


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_every_layer_imports(layer):
    importlib.import_module(f"homhopf.{layer}")


@pytest.mark.parametrize("name", LAYERS["verify"])
def test_every_traced_suite_resolves_through_verify(name):
    (module,) = [m for m, function in verify.SUITES.values() if function == name]
    assert getattr(verify, name) is getattr(importlib.import_module(f"homhopf.{module}"), name)


@pytest.mark.parametrize(
    "span", [f"{layer}.{fn}" for layer, fns in RESOLVED.items() for fn in fns]
)
def test_every_span_that_resolved_still_resolves(span):
    layer, _, fn = span.partition(".")
    assert fn in LAYERS[layer]
    assert callable(getattr(importlib.import_module(f"homhopf.{layer}"), fn, None))


def test_the_tracer_spans_every_suite():
    assert sorted(LAYERS["verify"]) == sorted(function for _, function in verify.SUITES.values())


def _traced(tmp_path, *args: str) -> list[str]:
    """The span names of one command run under the tracer."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(out), *args],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [span[0] for span in json.loads(out.read_text())["spans"]]


def test_a_traced_twist_suite_records_its_span(tmp_path):
    names = _traced(tmp_path, "verify", "thm4.5", "--algebra", "cyclic:2")
    assert names.count("verify.verify_thm_4_5") == 1
    assert "constructions.cocycle_twist" in names


def test_a_traced_check_records_the_checkers_it_imports_late(tmp_path):
    """``check`` imports the checkers after the tracer has wrapped them, so
    it runs the wrappers that ``structures`` resolved."""
    names = _traced(tmp_path, "check", "cyclic:2")
    spanned = ("check_hom_algebra", "check_hom_coalgebra", "check_hom_bialgebra", "check_antipode")
    assert [names.count(f"structures.{fn}") for fn in spanned] == [1, 1, 1, 1]
