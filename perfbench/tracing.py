"""Spans around calls into the ``lpevo`` layers, recorded from outside.

A ``Tracer`` wraps a callable so that each call is timed and charged to a
layer name.  Every call adds to per-name totals: calls, busy time, self time
(busy time minus the time of traced calls made inside it) and a work count
such as transformed points.  Calls of the coarse layers are also kept as
spans (name, start, end, parent) for the trace file.

``patched`` swaps traced wrappers into the namespace of the module that
makes the calls and always puts the originals back.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Total:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    work: int = 0


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


@dataclass
class Tracer:
    keep_spans: frozenset[str] = frozenset()
    totals: dict[str, Total] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    # child time of each open call; ids of the open kept spans
    _stack: list[list] = field(default_factory=list)
    _open_span: list[int] = field(default_factory=list)

    def reset(self) -> None:
        """Zero the totals and drop the spans, keeping wrappers valid."""
        for total in self.totals.values():
            total.calls, total.busy_s, total.self_s, total.work = 0, 0.0, 0.0, 0
        self.spans = []

    def wrap(self, name: str, fn: Callable, work: Callable | None = None) -> Callable:
        """``fn`` timed under ``name``; ``work(args, result)`` counts its work."""
        clock = time.perf_counter
        stack, open_spans = self._stack, self._open_span
        total = self.totals.setdefault(name, Total())
        keep = name in self.keep_spans

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if keep:
                parent = open_spans[-1] if open_spans else None
                span = Span(len(self.spans), parent, name, 0.0, 0.0)
                self.spans.append(span)
                open_spans.append(span.id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                busy = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += busy
                if keep:
                    open_spans.pop()
                    span.start, span.end = start, end
                total.calls += 1
                total.busy_s += busy
                total.self_s += busy - frame[0]
            if work is not None:
                total.work += work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def total(self, name: str) -> Total:
        return self.totals.get(name, Total())


@contextmanager
def patched(tracer: Tracer, targets: list[tuple[object, str, str, Callable | None]]):
    """Replace ``module.attr`` by its traced wrapper for each
    (module, attr, layer name, work counter); restore on exit."""
    originals = []
    try:
        for module, attr, name, work in targets:
            original = getattr(module, attr)
            originals.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, work))
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)
