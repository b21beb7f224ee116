"""Run one ``homhopf`` CLI command with spans around each layer's public functions.

Usage: python3 perfbench/tracer.py <trace-out.json> <cli argument> ...

Run with ``PYTHONPATH=src``, in a fresh process per command, so no
``lru_cache`` state carries over between commands.  The wrappers live here,
not in the package: each listed function is wrapped once and every
``homhopf.*`` module global that refers to it is rebound to the wrapper (the
package imports with ``from .x import y``, so patching only the defining
module would miss its callers).

A span records its name, thread, parent, start, end and self time (its
duration minus the part of it that its child spans cover).  Each thread
keeps its own span stack; a span opened on a thread with an empty stack,
such as a ``check --jobs`` pool thread, is a child of the command span.
``exactlin.nonzeros`` gets no span: a generator wrapper counts the entries
it scans and the nonzeros it yields as they are consumed.  Spans stay in
memory and are written, with the counts, when the command ends.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

# Layer -> the public functions that get a span.
LAYERS = {
    "catalog": ("get_entry",),
    "fileformat": ("parse", "serialize", "bundle_of_entry"),
    "verify": (
        "verify_thm_2_6",
        "verify_cor_2_9",
        "verify_prop_2_19",
        "verify_thm_4_5",
        "verify_dual_pair_route",
        "verify_prop_4_7",
    ),
    "constructions": (
        "drinfeld_double",
        "drinfeld_double_tilde",
        "canonical_cocycles",
        "cocycle_twist",
        "heisenberg_double",
        "canonical_r_matrix",
        "dual",
        "opposite",
        "evaluation_pairing",
        "dual_pair_double",
        "self_bicross",
        "bicrossproduct",
        "bicross_hypotheses",
        "yau_twist",
    ),
    "structures": (
        "check_cocycle",
        "check_hom_algebra",
        "check_hom_coalgebra",
        "check_hom_bialgebra",
        "check_antipode",
        "run_hopf_suite",
        "check_quasitriangular",
        "check_dual_pair",
        "check_twisting",
        "check_module_algebra",
        "check_comodule_coalgebra",
        "check_comodule_algebra",
        "check_left_comodule_algebra",
        "tensor_square_product",
        "tensor_cube_product",
    ),
    "exactlin": ("apply_map", "bilinear_apply", "mat_compose", "mat_inverse", "kron", "alpha_power"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
ROOT = "cli.main"


class _ThreadState:
    __slots__ = ("tid", "stack", "spans", "root_children", "nz_calls", "nz_scanned", "nz_yielded")

    def __init__(self, tid: int):
        self.tid = tid
        self.stack: list[list] = []  # frames: [span id, seconds covered by children]
        self.spans: list[tuple] = []
        self.root_children: list[tuple[float, float]] = []
        self.nz_calls = self.nz_scanned = self.nz_yielded = 0


class Tracer:
    """Span and count recorder for one command process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._threads))
                self._threads.append(st)
            self._local.state = st
        return st

    def span(self, name: str, fn):
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            stack = st.stack
            span_id = (st.tid, len(st.spans) + len(stack))
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                else:
                    st.root_children.append((start, end))
                st.spans.append((name, span_id, parent, start, end, end - start - frame[1]))

        return wrapper

    def counted_nonzeros(self, fn):
        @functools.wraps(fn)
        def wrapper(v):
            st = self._state()
            scanned = 0

            def feed():
                nonlocal scanned
                for a in v:
                    scanned += 1
                    yield a

            yielded = 0
            try:
                for item in fn(feed()):
                    yielded += 1
                    yield item
            finally:
                st.nz_calls += 1
                st.nz_scanned += scanned
                st.nz_yielded += yielded

        return wrapper

    def record(self, argv, status, import_s, start, end) -> dict:
        children = sorted(iv for st in self._threads for iv in st.root_children)
        covered, reach = 0.0, start
        for a, b in children:  # union of the child intervals
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        return {
            "argv": argv,
            "status": status,
            "import_s": import_s,
            "root": {
                "name": ROOT,
                "seconds": end - start,
                "self_s": end - start - covered,
                "child_span_s": sum(b - a for a, b in children),
            },
            "nonzeros": {
                "calls": sum(st.nz_calls for st in self._threads),
                "scanned": sum(st.nz_scanned for st in self._threads),
                "yielded": sum(st.nz_yielded for st in self._threads),
            },
            "spans": [s for st in self._threads for s in st.spans],
        }


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "homhopf" or name.startswith("homhopf."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every listed function that this version of the package defines."""
    import importlib

    for layer, fns in LAYERS.items():
        module = importlib.import_module(f"homhopf.{layer}")
        for fn in fns:
            original = getattr(module, fn, None)
            if original is not None:
                _rebind(original, tracer.span(f"{layer}.{fn}", original))
    exactlin = importlib.import_module("homhopf.exactlin")
    if hasattr(exactlin, "nonzeros"):
        _rebind(exactlin.nonzeros, tracer.counted_nonzeros(exactlin.nonzeros))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import homhopf.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    status = 0
    start = time.perf_counter()
    try:
        homhopf.cli.main(args=argv, prog_name="homhopf")
    except SystemExit as exc:
        code = exc.code
        status = code if isinstance(code, int) else (0 if code is None else 1)
    finally:
        end = time.perf_counter()
        sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(tracer.record(argv, status, import_s, start, end), fh, separators=(",", ":"))
    return status


if __name__ == "__main__":
    sys.exit(main())
