"""Spans around bellkit's public functions, installed from outside the library.

A wrapper replaces the function's name in every bellkit module namespace
that bound it (``optimize`` and ``certify`` import ``bell_expectation`` by
name, for instance), so calls between modules are seen too.  The two state
classes keep their identity, because the library tests ``isinstance``
against them: their validating ``__post_init__`` is wrapped instead.
Private helpers are left alone; their cost shows in the parent's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass

# (module, public name) pairs to wrap; classes get their constructor wrapped.
TRACED = (
    ("optimize", "max_violation_settings"),
    ("optimize", "max_eigen_settings"),
    ("optimize", "search_mm_partial"),
    ("bellop", "bell_operator"),
    ("bellop", "bell_expectation"),
    ("bellop", "ghz_optimal_settings"),
    ("bellop", "expand_correlators"),
    ("qstate", "outcome_distribution"),
    ("qstate", "measure_sample"),
    ("qstate", "partial_trace"),
    ("qstate", "spectrum"),
    ("qstate", "PureState"),
    ("qstate", "DensityMatrix"),
    ("criteria", "mm_partial_residual"),
    ("certify", "estimate_E"),
    ("certify", "certify_depth"),
    ("symstate", "embed"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int     # index of the enclosing span, -1 at top level
    window: int     # which measured window (round) the span belongs to


class Tracer:
    """Collects spans in memory; nothing is written until :meth:`dump`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.window = -1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.window)
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self, package) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for mod_name, attr in TRACED:
            owner = getattr(package, mod_name)
            name = f"{mod_name}.{attr}"
            original = getattr(owner, attr)
            if isinstance(original, type):
                original.__post_init__ = self.wrap(name, original.__post_init__)
                continue
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def self_times(self, window: int) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over the spans of one window.

        Spans nest strictly (one thread), so the time children cover is the
        sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, tuple[int, float]] = {}
        for i, span in enumerate(self.spans):
            if span.window != window:
                continue
            calls, total = out.get(span.name, (0, 0.0))
            out[span.name] = (calls + 1, total + span.end - span.start - child_time[i])
        return out

    def child_count(self, window: int, parent: str, child: str) -> int:
        return sum(1 for s in self.spans
                   if s.window == window and s.name == child and s.parent >= 0
                   and self.spans[s.parent].name == parent)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "round": s.window}) + "\n")
