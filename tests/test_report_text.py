"""A report's JSON text: ``cliio._json_text`` writes exactly what ``json``
would, without loading it.

A report file is ``json.dumps(doc, sort_keys=True, indent=2)`` and its
digest hashes the compact ``separators=(",", ":")`` dump of the document
without its ``wall_time`` keys.  ``_json_text`` writes both texts over
CPython's C string escaper (``_json``), or ``json.encoder``'s where there is
no ``_json``; these tests compare it with ``json.dumps`` on the report of
every golden command and on drawn documents of the report's value types.
"""

from __future__ import annotations

import copy
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_cli
from homhopf import cliio
from homhopf.cliio import _json_text
from test_golden_digests import COMMANDS


def without_wall_time(node):
    if isinstance(node, dict):
        return {k: without_wall_time(v) for k, v in node.items() if k != "wall_time"}
    if isinstance(node, (list, tuple)):
        return [without_wall_time(v) for v in node]
    return node


def assert_json_texts(doc) -> None:
    assert _json_text(doc, canonical=False) == json.dumps(doc, sort_keys=True, indent=2)
    compact = json.dumps(without_wall_time(doc), sort_keys=True, separators=(",", ":"))
    assert _json_text(doc, canonical=True) == compact


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
def test_a_golden_report_is_the_json_dump(tmp_path, monkeypatch, args):
    """Every document a golden command writes, both texts of it."""
    docs = []

    def recording(doc, canonical):
        docs.append(copy.deepcopy(doc))  # the digest is added after the first text
        return _json_text(doc, canonical)

    monkeypatch.setattr(cliio, "_json_text", recording)
    argv = [*args, "--report", str(tmp_path / "r.json")]
    if args[0] == "construct":
        argv += ["--out", str(tmp_path / "out.alg")]
    run_cli(argv)
    assert len(docs) == 2 and "digest" in docs[1]
    for doc in docs:
        assert_json_texts(doc)
    text = (tmp_path / "r.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


# Strings with every character class a JSON escaper treats apart: quotes,
# backslashes, control characters, non-ASCII and astral characters.
SPECIAL = '"\\/\x00\x01\x1f\x7f\n\r\t\b\fé \ud800\U0001f600'
strings = st.text(st.sampled_from(SPECIAL) | st.characters(), max_size=12)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats(allow_nan=False, allow_infinity=False)
    | strings
)
keys = strings | st.sampled_from(["wall_time", "digest", "a", ""])
documents = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4), max_leaves=24
)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_a_drawn_document_is_the_json_dump(doc):
    assert_json_texts(doc)


REPORT = {
    "inputs": [{"sha256": "0" * 64, "source": 'in/"x\\y".alg'}],
    "results": [{"wall_time": 0.125, "steps": [], "note": "é\U0001f600\n", "big": -(10**40)}],
    "nested": {"": {}, "wall_time": [1.5e-7, -0.0, True, False, None]},
}


def test_the_texts_without_the_c_escaper(monkeypatch):
    """With ``_json`` hidden, as on an interpreter without it, the writer
    takes ``json.encoder``'s pure-Python escaper, and writes the same texts."""
    monkeypatch.setitem(sys.modules, "_json", None)  # its import now raises ImportError
    monkeypatch.setattr(json, "encoder", json.encoder)  # restored after the test
    monkeypatch.delitem(sys.modules, "json.encoder")  # imported again, without `_json`
    assert_json_texts(REPORT)
    assert sys.modules["json.encoder"].c_encode_basestring_ascii is None


NO_JSON_TEXT = {
    "int-key": {1: "a"},
    "nested-none-key": {"a": {None: 1}},
    "tuple-key": {("a",): 1},
    "set": [set()],
    "bytes": {"a": b"bytes"},
    "complex": 1j,
    "object": object(),
    "nan": float("nan"),
    "inf": [float("inf")],
    "nested-minus-inf": {"a": [-float("inf")]},
}


@pytest.mark.parametrize("kind", NO_JSON_TEXT)
@pytest.mark.parametrize("canonical", [False, True], ids=["indented", "canonical"])
def test_a_value_with_no_json_text_raises_type_error(kind, canonical):
    """Rather than invalid JSON (``json.dumps`` writes ``NaN`` for a NaN) or
    a key converted to a string."""
    with pytest.raises(TypeError):
        _json_text(NO_JSON_TEXT[kind], canonical)
