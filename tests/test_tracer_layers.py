"""The benchmark's tracer finds every function it spans.

``perfbench/tracer.py`` imports each ``homhopf.<layer>`` of its ``LAYERS``
table and wraps the listed functions that the layer resolves.  A layer that
no longer imports crashes every traced run, and a suite that
``homhopf.verify`` no longer resolves silently loses its span.  ``LAYERS``
is read from the tracer file as it is.
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


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_every_layer_imports(layer):
    importlib.import_module(f"homhopf.{layer}")


@pytest.mark.parametrize("name", LAYERS["verify"])
def test_every_traced_suite_resolves_through_verify(name):
    (module,) = [m for m, function in verify.SUITES.values() if function == name]
    assert getattr(verify, name) is getattr(importlib.import_module(f"homhopf.{module}"), name)


def test_the_tracer_spans_every_suite():
    assert sorted(LAYERS["verify"]) == sorted(function for _, function in verify.SUITES.values())


def test_a_traced_twist_suite_records_its_span(tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(out), "verify", "thm4.5", "--algebra", "cyclic:2"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = [span[0] for span in json.loads(out.read_text())["spans"]]
    assert names.count("verify.verify_thm_4_5") == 1
    assert "constructions.cocycle_twist" in names
