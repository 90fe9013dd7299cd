"""Span tracer that wraps the library's public callables from outside.

A function is wrapped at every module binding that holds it, in every
loaded module (a name re-exported by ``specact``, ``specact.cli`` or
``specact.bounds``, or imported by a caller, is the same object as in its
defining module), and a method is wrapped once, on its class.
``with tracer:`` installs the wrappers and removes them on exit,
restoring the original objects; counts and spans carry over from one
``with`` block to the next.

Each call records one span: name, parent span, item, start and end, in
compact arrays kept in memory until ``dump`` writes them once.  Call
counts and self time (the span's duration minus the time its child spans
cover) accumulate as calls return.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (metric prefix, owning module, attribute path); the prefix is the name
# the per-layer metrics carry
TARGETS = (
    ("functions.SmoothFunction.deriv", "specact.functions", "SmoothFunction.deriv"),
    ("functions.SmoothFunction.deriv_complex", "specact.functions", "SmoothFunction.deriv_complex"),
    ("divdiff.dd_recursive", "specact.divdiff", "dd_recursive"),
    ("divdiff.MultisetDivDiff.init", "specact.divdiff", "MultisetDivDiff.__init__"),
    ("divdiff.MultisetDivDiff.value", "specact.divdiff", "MultisetDivDiff.value"),
    ("divdiff.MultisetDivDiff.tensor", "specact.divdiff", "MultisetDivDiff.tensor"),
    ("operator_model.bracket_dd", "specact.operator_model", "bracket_dd"),
    ("operator_model.require_hermitian", "specact.operator_model", "require_hermitian"),
    ("spectral_action.taylor_term", "specact.spectral_action", "taylor_term"),
    ("spectral_action.taylor_term_theorem_form", "specact.spectral_action", "taylor_term_theorem_form"),
    ("spectral_action.taylor_term_bracket_form", "specact.spectral_action", "taylor_term_bracket_form"),
    ("spectral_action.taylor_term_contour", "specact.spectral_action", "taylor_term_contour"),
    ("spectral_action.gateaux_fd", "specact.spectral_action", "gateaux_fd"),
    ("spectral_action.action_exact", "specact.spectral_action", "action_exact"),
    ("spectral_action.expand", "specact.spectral_action", "expand"),
    ("numpy.linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("numpy.einsum", "numpy", "einsum"),
)

# spans whose result size is also summed, under "<prefix>.entries"
SIZED = {"divdiff.MultisetDivDiff.tensor"}


def _bindings(originals: dict[int, int]) -> list[tuple[object, str, int]]:
    """Every (module, attribute, target index) whose value is a target."""
    found = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for key, value in list(namespace.items()):
            target = originals.get(id(value))
            if target is not None:
                found.append((module, key, target))
    return found


class Tracer:
    """Context manager that traces calls to ``TARGETS`` while active."""

    def __init__(self):
        self.names = [prefix for prefix, _, _ in TARGETS]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.entries = [0] * len(self.names)
        self.item = -1
        self._stack: list[list] = []
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_item = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        stack = self._stack
        span_name, span_parent = self._span_name, self._span_parent
        span_item, span_start, span_end = self._span_item, self._span_start, self._span_end
        calls, self_s, entries = self.calls, self.self_s, self.entries
        sized = self.names[name_id] in SIZED
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            span_item.append(self.item)
            span_start.append(0.0)
            span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_start[idx] = t0
                span_end[idx] = t1
                calls[name_id] += 1
                self_s[name_id] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if sized:
                entries[name_id] += int(result.size)
            return result

        return functools.wraps(fn)(traced)

    def __enter__(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer is already installed")
        functions: dict[int, int] = {}
        wrappers = {}
        for name_id, (_, module_name, path) in enumerate(TARGETS):
            owner = sys.modules[module_name]
            head, _, attr = path.rpartition(".")
            if head:
                cls = getattr(owner, head)
                self._set(cls, attr, self._wrap(name_id, cls.__dict__[attr]))
            else:
                original = getattr(owner, attr)
                functions[id(original)] = name_id
                wrappers[name_id] = self._wrap(name_id, original)
        for module, key, name_id in _bindings(functions):
            self._set(module, key, wrappers[name_id])
        return self

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def counts(self) -> dict[str, int]:
        return dict(zip(self.names, self.calls))

    def metrics(self) -> dict[str, dict]:
        """Per-layer metrics accumulated so far, keyed by metric name."""
        out: dict[str, dict] = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = {"value": self.calls[name_id], "unit": "count"}
            out[f"{name}.self_s"] = {"value": self.self_s[name_id], "unit": "s"}
            if name in SIZED:
                out[f"{name}.entries"] = {"value": self.entries[name_id], "unit": "count"}
        entries = self.entries[self.names.index("divdiff.MultisetDivDiff.tensor")]
        evals = self.calls[self.names.index("divdiff.dd_recursive")]
        out["divdiff.evals_per_entry"] = {
            "value": evals / entries if entries else 0.0,
            "unit": "ratio",
        }
        return out

    def dump(self, path: Path) -> None:
        """Write every span recorded so far as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._span_name, dtype=np.int32),
            parent=np.frombuffer(self._span_parent, dtype=np.int32),
            item=np.frombuffer(self._span_item, dtype=np.int32),
            start=np.frombuffer(self._span_start, dtype=np.float64),
            end=np.frombuffer(self._span_end, dtype=np.float64),
        )
