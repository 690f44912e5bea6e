"""In-memory spans for the traced run, and the order statistics both
runs report.

A span is (name, start, end, parent, op id). Spans nest (one thread
drives the program); a span's *self time* is its duration minus the
part its children cover. Nothing is written until :meth:`Tracer.chrome` is
asked for the whole trace at exit.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (not assumed sorted)."""
    ranked = sorted(values)
    rank = max(1, -(-len(ranked) * pct // 100))  # ceil
    return ranked[int(rank) - 1]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "units", "children")

    def __init__(self, name: str, parent: "Span | None", op: Any, units: float):
        self.name = name
        self.parent = parent
        self.op = op if op is not None or parent is None else parent.op
        self.units = units
        self.children = 0.0
        self.start = self.end = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.children


class Tracer:
    """Collects spans; cheap enough that the traced run's overhead is
    itself a reported metric."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._top: Span | None = None

    @contextmanager
    def span(self, name: str, op: Any = None, units: float = 1.0) -> Iterator[Span]:
        """Time the block as a child of the open span. *units*
        divides the self time when summarised (rows, calls)."""
        parent = self._top
        span = Span(name, parent, op, units)
        self._top = span
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._top = parent
            if parent is not None:
                parent.children += span.end - span.start
            self.spans.append(span)

    def chrome(self) -> dict[str, Any]:
        """The trace as Chrome trace-event JSON (about:tracing, Perfetto)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name, "ph": "X", "pid": 1, "tid": 0,
                "ts": (s.start - origin) * 1e6, "dur": (s.end - s.start) * 1e6,
                "args": {"op": s.op, "self_us": s.self_time * 1e6,
                         "parent": s.parent.name if s.parent else None},
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
