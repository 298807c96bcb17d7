"""Spans around the package's public entry points, for the traced run.

The tracer replaces module attributes with timing wrappers.  Package code
that calls through the module attribute (`harness` calls `M.run_system`,
`machine` calls `F.compile_fabric`, `run_sweep` and `calibrate_safe_floor`
call the module-level `run_point`) therefore reaches the wrapper, so nested
calls become child spans.  Spans stay in memory until `write`.
"""

import itertools
import json
import time

import etmreg.fabric as F
import etmreg.harness as H
import etmreg.machine as M
import etmreg.regprog as P

# (module, attribute, span name)
ENTRY_POINTS = (
    (H, "run_sweep", "harness.run_sweep"),
    (H, "run_point", "harness.run_point"),
    (H, "calibrate_safe_floor", "harness.calibrate_safe_floor"),
    (M, "run_system", "machine.run_system"),
    (F, "compile_fabric", "fabric.compile_fabric"),
    (P, "compile", "regprog.compile"),
    (P, "lift", "regprog.lift"),
)


def _lines(trace):
    return sum(st.completed_lines for st in trace.stats)


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "lines")

    def __init__(self, sid, parent, op, name, start):
        self.id = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.start = start
        self.end = start
        self.lines = 0

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Wraps ENTRY_POINTS while active (`with tracer:`); `op` labels the
    spans of the op being run."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []
        self._ids = itertools.count()

    def __enter__(self):
        for module, attr, name in ENTRY_POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter
        counts_lines = name == "machine.run_system"

        def traced(*args, **kwargs):
            span = Span(next(ids), stack[-1].id if stack else None,
                        self.op, name, clock())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if counts_lines:
                    span.lines = _lines(result)
                return result
            finally:
                span.end = clock()
                stack.pop()
                spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        """Span id -> duration minus the time its child spans cover."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.duration
        return {s.id: s.duration - child.get(s.id, 0.0) for s in self.spans}

    def by_name(self, name):
        return [s for s in self.spans if s.name == name]

    def write(self, path):
        with open(path, "w") as f:
            for s in sorted(self.spans, key=lambda s: s.id):
                f.write(json.dumps({
                    "id": s.id, "parent": s.parent, "op": s.op,
                    "name": s.name, "start": s.start, "end": s.end}) + "\n")
