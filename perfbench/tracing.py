"""In-memory spans around calls into the cjlab modules.

The benchmark does not edit the program: :func:`install` replaces the
names a module looked up at import time (``cjlab.cli``'s imported
functions, ``cjlab.jacobi``'s, ...) with wrappers that record a span per
call.  A span holds its name, start, end, thread, parent span and op id;
counts (samples, rows, bytes) are taken from the call's arguments and
result after the span has ended, so they are not timed.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from typing import Callable


class Tracer:
    """Collects spans for the op currently running; off until :meth:`root` runs."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._enabled = False
        self._op = None
        self._root = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, fn: Callable, args, kwargs, count=None):
        stack = self._stack()
        # A call from a pool thread has an empty stack; its parent is the op's root.
        span = {"id": next(self._ids), "parent": stack[-1] if stack else self._root,
                "name": name, "thread": threading.get_ident(), "op": self._op}
        if self._root is None:
            self._root = span["id"]
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if count is not None:
            span["counts"] = count(result, *args, **kwargs)
        return result

    def wrap(self, name: str, fn: Callable, count=None) -> Callable:
        def traced(*args, **kwargs):
            if not self._enabled:
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs, count)

        return traced

    def root(self, op_id: str, fn: Callable, *args):
        """Run ``fn(*args)`` as the op's ``cli.main`` span with tracing on."""
        self.spans = []
        self._op = op_id
        self._root = None
        self._enabled = True
        try:
            return self._call("cli.main", fn, args, {})
        finally:
            self._enabled = False


def _csv_counts(result, path, header, columns):
    return {"rows": len(columns[0]), "bytes": os.path.getsize(path)}


def _json_counts(result, path, payload):
    return {"bytes": os.path.getsize(path)}


def _profile_counts(curve, cfg):
    return {"samples": len(curve.s), "accepted_steps": curve.accepted_steps}


def _eigenvalue_counts(lambdas, spec, count):
    return {"eigenvalues": len(lambdas)}


def _plateau_counts(graph, N, R, r_max):
    return {"samples": len(graph.r)}


#: Call sites wrapped by :func:`install`: module -> {name: (layer, counts)}.
SITES = {
    "cjlab.cli": {
        "integrate_profile": ("profile", _profile_counts),
        "geometry_trace": ("profile", None),
        "solve_jacobi": ("jacobi", None),
        "near_origin_behavior": ("jacobi", None),
        "decay_diagnostics": ("jacobi", None),
        "link_eigenvalues": ("spectra", _eigenvalue_counts),
        "indicial_data": ("spectra", None),
        "plateau_profile": ("plateau", _plateau_counts),
        "plateau_zeta0": ("plateau", None),
        "write_csv": ("io", _csv_counts),
        "write_json": ("io", _json_counts),
        "file_checksums": ("io", None),
    },
    "cjlab.jacobi": {
        "emden_fowler_transform": ("jacobi", None),
        "left_fundamental_pair": ("jacobi", None),
        "decay_diagnostics": ("jacobi", None),
        "geometry_trace": ("profile", None),
    },
    # decay_diagnostics imports fit_power_law from cjlab.decay at call time.
    "cjlab.decay": {"fit_power_law": ("decay", None)},
    "cjlab.plateau": {"fit_power_law": ("decay", None)},
}

#: Every span name a traced op can record; ``cli.main`` is the op's root.
SPAN_NAMES = ("cli.main",) + tuple(sorted(
    {f"{layer}.{attr}" for names in SITES.values() for attr, (layer, _) in names.items()}))


def install(tracer: Tracer) -> None:
    """Wrap every call site in :data:`SITES`."""
    for module_name, names in SITES.items():
        module = importlib.import_module(module_name)
        for attr, (layer, count) in names.items():
            setattr(module, attr, tracer.wrap(f"{layer}.{attr}", getattr(module, attr), count))


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover.

    Children in one thread run one after another, but the report pool runs
    sibling spans in several threads at once, so the covered part is the
    union of the children's intervals, not the sum of their durations.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
