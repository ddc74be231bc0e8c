"""Span tracer that wraps typsat's public module attributes from the outside.

No code in ``src/`` knows about it.  ``Tracer.install()`` replaces each
target attribute with a wrapper that records one span per call: name, start,
end and the index of the enclosing span.  ``pipeline`` binds five
``formulas`` functions by name (``from .formulas import ...``), so those are
rebound in ``typsat.pipeline`` as well as in ``typsat.formulas``; without
that the oracle and corpus counts would read zero.

Spans live in flat integer arrays (32 bytes a span) until ``dump`` writes
them out at the end of the run.  The benchmark is single-threaded, so one
stack of open spans is enough.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array

#: (module, attribute) pairs wrapped in a traced op.  The span name is the
#: module's short name plus the attribute, e.g. ``rootbox.spiral_localize``.
TARGETS = (
    ("typsat.pipeline", "certify"),
    ("typsat.pipeline", "counting_oracle"),
    ("typsat.distribution", "build_tables"),
    ("typsat.distribution", "kappa_tilde_intervals"),
    ("typsat.ledger", "build_budget"),
    ("typsat.monotone", "eq2_monotone_verdict"),
    ("typsat.monotone", "eq1_star_majorant"),
    ("typsat.monotone", "m_bound"),
    ("typsat.rootbox", "spiral_localize"),
    ("typsat.rootbox", "verify_exclusion"),
    ("typsat.rootbox", "solve_reference"),
    ("typsat.stationarity", "derive_point"),
    ("typsat.stationarity", "eq1"),
    ("typsat.stationarity", "eq2"),
    ("typsat.stationarity", "rate_bound_rectangle"),
    ("typsat.stationarity", "rate_bound_point"),
    ("typsat.formulas", "generate"),
    ("typsat.formulas", "pps_bitmap"),
    ("typsat.formulas", "solution_bitmap"),
    ("typsat.formulas", "is_pps"),
    ("typsat.formulas", "variable_type"),
    ("typsat.formulas", "pure_negative_vars"),
)

#: Names that ``typsat.pipeline`` imports from ``typsat.formulas``.
PIPELINE_BINDINGS = ("generate", "is_pps", "pps_bitmap", "solution_bitmap", "variable_type")

OP = "op"


class TraceError(RuntimeError):
    """Spans do not nest, so self times would not add up to the op time."""


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP]
        self._name_id: dict[str, int] = {OP: 0}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op_spans: list[int] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: int, t1: int) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def _wrap(self, span_name: str, fn):
        if span_name not in self._name_id:
            self._name_id[span_name] = len(self.names)
            self.names.append(span_name)
        name_id = self._name_id[span_name]
        open_, close, clock = self._open, self._close, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = open_(name_id)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx, t0, clock())

        return traced

    def install(self) -> None:
        """Wrap every target attribute; the wrappers record into this tracer."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            span_name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
            wrapped = self._wrap(span_name, getattr(module, attr))
            self._patches.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapped)
            if module_name == "typsat.formulas" and attr in PIPELINE_BINDINGS:
                pipeline = importlib.import_module("typsat.pipeline")
                self._patches.append((pipeline, attr, getattr(pipeline, attr)))
                setattr(pipeline, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def run_op(self, fn, arg):
        """Call fn(arg) inside an ``op`` root span with the wrappers installed.

        Returns (output, seconds).  Exceptions propagate after the span and
        the patches are closed.
        """
        self.install()
        idx = self._open(0)
        self.op_spans.append(idx)
        t0 = time.perf_counter_ns()
        try:
            out = fn(arg)
        finally:
            t1 = time.perf_counter_ns()
            self._close(idx, t0, t1)
            self.uninstall()
        return out, (t1 - t0) * 1e-9

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per-span self time in ns; raises TraceError if spans do not nest.

        A child must lie inside its parent and after its previous sibling, so
        every op's span durations minus child durations sum to the op's wall
        time exactly.
        """
        n = len(self.name)
        own = [self.end[i] - self.start[i] for i in range(n)]
        last_child_end = [None] * n
        for i in range(n):
            p = self.parent[i]
            if self.end[i] < self.start[i]:
                raise TraceError(f"span {i} ({self.names[self.name[i]]}) ends before it starts")
            if p < 0:
                continue
            if self.start[i] < self.start[p] or self.end[i] > self.end[p]:
                raise TraceError(f"span {i} lies outside its parent {p}")
            if last_child_end[p] is not None and self.start[i] < last_child_end[p]:
                raise TraceError(f"span {i} overlaps an earlier sibling")
            last_child_end[p] = self.end[i]
            own[p] -= self.end[i] - self.start[i]
        bounds = self.op_spans + [n]
        for op, end in zip(bounds, bounds[1:]):
            if self.parent[op] != -1 or sum(own[op:end]) != self.end[op] - self.start[op]:
                raise TraceError(f"self times of op span {op} do not add up to its wall time")
        return own

    def dump(self, path) -> None:
        """Write every span, columnar, times in ns from the first span, gzip'd."""
        t_base = self.start[0] if len(self.start) else 0
        data = {
            "names": self.names,
            "name": self.name.tolist(),
            "start_ns": [t - t_base for t in self.start],
            "end_ns": [t - t_base for t in self.end],
            "parent": self.parent.tolist(),
            "op_spans": self.op_spans,
        }
        with gzip.open(path, "wt", encoding="ascii") as fh:
            json.dump(data, fh, separators=(",", ":"))
