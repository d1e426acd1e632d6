"""In-memory span recorder for the traced run, and self-time arithmetic.

Spans are recorded from the benchmark's own files, around the calls into
each layer of the program.  Every embed, update step and query batch is
one operation: its spans share an operation id, and each span names the
span that caused it.  Spans stay in memory and are written out once, when
the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    op: int
    parent: Optional[int]
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``span`` nests on the calling thread's stack."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._next_op = 0

    def new_op(self) -> int:
        self._next_op += 1
        return self._next_op

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[None]:
        span_id = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append(Span(span_id, name, op, parent, start, end))

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished root span of a new operation (a query batch,
        timed by the load generator rather than by a ``with`` block)."""
        self.spans.append(Span(self._new_id(), name, self.new_op(), None,
                               start, end))

    def durations(self, name: str) -> List[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def write(self, path: str, meta: Dict[str, object]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta,
                       "spans": [s._asdict() for s in self.spans]}, handle)


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval
    that its children cover; overlapping children count once, and a
    child's part outside its parent is not subtracted.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    totals: Dict[str, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()),
                            key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[span.name] = totals.get(span.name, 0.0) + \
            span.seconds - covered
    return totals
