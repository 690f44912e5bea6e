"""Structured tracing: span trees across client, server, and replicas.

A *trace* is the full life of one query: the client mints a ``trace_id``
when head-based sampling fires, ships it inside the request envelope's
optional ``trace`` field, and every stage that does interesting work —
session dispatch, plan-cache lookup, physical-node execution, IVM
delta application, replica WAL apply — opens a
:class:`Span` under it. Spans carry monotonic-clock timings
(``time.perf_counter_ns``), so durations are immune to wall-clock
steps; only relative times within a process are meaningful.

Sampling is controlled by ``REPRO_TRACE``:

* ``off`` (default) — :func:`span` returns the shared no-op span; the
  cost of an untraced call site is one thread-local read.
* ``on`` — every client call / explicit :func:`start_trace` is sampled.
* a float in ``(0, 1)`` — that fraction of calls is sampled.

Finished spans land in a process-global bounded sink (the newest
:data:`MAX_TRACES` traces are kept, LRU-evicted) so a leader and an
in-process replica contribute to the *same* trace. Export with
:func:`export_chrome` (Chrome ``chrome://tracing`` / Perfetto JSON) or
:func:`render_tree` (human tree).
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
from collections import OrderedDict
from typing import Any

from repro.config import TRACE
from repro.obs.instrument import fmt_ns

__all__ = [
    "MAX_TRACES",
    "Span",
    "NOOP_SPAN",
    "trace_mode",
    "trace_rate",
    "set_trace_mode",
    "using_trace_mode",
    "start_trace",
    "maybe_trace",
    "span",
    "add_span",
    "active",
    "current_context",
    "resume",
    "trace_ids",
    "latest_trace_id",
    "clear_traces",
    "export_chrome",
    "render_tree",
]

#: ``"off"`` (default), ``"on"``, or a sampling rate as a string;
#: ``set_`` forces a mode for this process (``ValueError`` unless it is
#: one of those), ``using_`` temporarily (tests and benchmarks).
trace_mode = TRACE.get
set_trace_mode = TRACE.set
using_trace_mode = TRACE.using


def trace_rate() -> float:
    """The head-based sampling rate in ``[0.0, 1.0]`` implied by the mode."""
    mode = trace_mode()
    if mode in ("off", "false", "no", "none"):
        return 0.0
    if mode in ("on", "true", "yes"):
        return 1.0
    try:
        rate = float(mode)
    except ValueError:
        return 0.0
    return min(max(rate, 0.0), 1.0)


# -- span machinery ---------------------------------------------------------------

_ids = itertools.count(1)


def _new_id(prefix: str) -> str:
    # pid-qualified so ids stay unique if traces from forked workers are
    # ever merged into one export
    return f"{prefix}{os.getpid():x}-{next(_ids):x}"


class _State(threading.local):
    def __init__(self) -> None:
        self.span: "Span | None" = None


_state = _State()


class Span:
    """One timed operation inside a trace.

    Use as a context manager; :meth:`finish` is idempotent so a span may
    also be closed explicitly (generators finishing in ``finally``).
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_ns",
        "dur_ns",
        "args",
        "tid",
        "_prev",
        "_attached",
        "_finished",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: str | None,
        args: dict[str, Any],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id("s")
        self.parent_id = parent_id
        self.args = args
        self.tid = threading.get_ident()
        self._prev = None
        self._attached = False
        self._finished = False
        self.start_ns = time.perf_counter_ns()
        self.dur_ns = 0

    def annotate(self, **kv: Any) -> None:
        """Attach key/value details to this span (plan-cache verdicts etc.)."""
        self.args.update(kv)

    def __enter__(self) -> "Span":
        self._prev = _state.span
        self._attached = True
        _state.span = self
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.finish()
        return False

    def finish(self) -> None:
        """Close the span (idempotent) and record it into the sink."""
        if self._finished:
            return
        self._finished = True
        self.dur_ns = time.perf_counter_ns() - self.start_ns
        if self._attached and _state.span is self:
            _state.span = self._prev
        _record(self)

    def __repr__(self) -> str:
        return f"<Span {self.name!r} trace={self.trace_id}>"


class _NoopSpan:
    """The shared do-nothing span returned when tracing is off.

    Every method is a no-op so call sites never branch on "is tracing
    enabled" — they just always open a span.
    """

    __slots__ = ()
    trace_id = None
    span_id = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def annotate(self, **kv: Any) -> None:
        """Discard annotations (tracing is off)."""

    def finish(self) -> None:
        """Nothing to close (tracing is off)."""

    def __repr__(self) -> str:
        return "<NoopSpan>"


NOOP_SPAN = _NoopSpan()


# -- the sink ---------------------------------------------------------------------

#: Completed traces kept in memory, newest-touched last (LRU eviction).
MAX_TRACES = 128

_sink: "OrderedDict[str, list[Span]]" = OrderedDict()
_sink_lock = threading.Lock()


def _record(sp: Span) -> None:
    with _sink_lock:
        spans = _sink.get(sp.trace_id)
        if spans is None:
            spans = []
            _sink[sp.trace_id] = spans
            while len(_sink) > MAX_TRACES:
                _sink.popitem(last=False)
        else:
            _sink.move_to_end(sp.trace_id)
        spans.append(sp)


def trace_ids() -> list[str]:
    """Known trace ids, oldest first."""
    with _sink_lock:
        return list(_sink.keys())


def latest_trace_id() -> str | None:
    """The most recently touched trace id, or ``None``."""
    with _sink_lock:
        return next(reversed(_sink)) if _sink else None


def clear_traces() -> None:
    """Drop every recorded trace (tests, or reclaiming memory)."""
    with _sink_lock:
        _sink.clear()


def _spans_of(trace_id: str | None) -> tuple[str | None, list[Span]]:
    with _sink_lock:
        if trace_id is None:
            trace_id = next(reversed(_sink)) if _sink else None
        if trace_id is None:
            return None, []
        return trace_id, list(_sink.get(trace_id, ()))


# -- opening spans ----------------------------------------------------------------


def active() -> bool:
    """Is a sampled span open on this thread?"""
    return _state.span is not None


def start_trace(name: str, **args: Any) -> Span:
    """Unconditionally start a new sampled trace rooted at *name*."""
    return Span(name, _new_id("t"), None, args)


def maybe_trace(name: str, **args: Any) -> "Span | _NoopSpan":
    """A span under the active trace, a new sampled root if the
    ``REPRO_TRACE`` rate fires, or the no-op span. This is the head of
    head-based sampling: call it where traces are allowed to *begin*
    (the client, or a session handling an unsampled request)."""
    parent = _state.span
    if parent is not None:
        return Span(name, parent.trace_id, parent.span_id, args)
    rate = trace_rate()
    if rate <= 0.0 or (rate < 1.0 and random.random() >= rate):
        return NOOP_SPAN
    return start_trace(name, **args)


def span(name: str, **args: Any) -> "Span | _NoopSpan":
    """A child span of the active trace, or the no-op span.

    Never starts a trace — interior stages only add detail to queries
    something upstream already decided to sample.
    """
    parent = _state.span
    if parent is None:
        return NOOP_SPAN
    return Span(name, parent.trace_id, parent.span_id, args)


def add_span(
    name: str,
    start_ns: int,
    dur_ns: int,
    trace_id: str | None = None,
    parent_id: str | None = None,
    **args: Any,
) -> None:
    """Record a span with explicit timings (per-node executor stats).

    Attaches under the active span when *trace_id* is omitted; silently
    a no-op when there is nothing to attach to.
    """
    if trace_id is None:
        parent = _state.span
        if parent is None:
            return
        trace_id = parent.trace_id
        if parent_id is None:
            parent_id = parent.span_id
    sp = Span(name, trace_id, parent_id, args)
    sp._finished = True
    sp.start_ns = start_ns
    sp.dur_ns = dur_ns
    _record(sp)


def current_context() -> dict[str, Any] | None:
    """The wire-portable form of the active span, or ``None``.

    This is the value carried by the protocol's ``trace`` field:
    ``{"id": trace_id, "parent": span_id, "sampled": true}``.
    """
    sp = _state.span
    if sp is None:
        return None
    return {"id": sp.trace_id, "parent": sp.span_id, "sampled": True}


def resume(
    ctx: dict[str, Any] | None, name: str, **args: Any
) -> "Span | _NoopSpan":
    """Continue a trace from a wire/cross-thread context dict.

    Returns the no-op span for missing or unsampled contexts, so
    receivers call this unconditionally.
    """
    if not isinstance(ctx, dict) or not ctx.get("sampled"):
        return NOOP_SPAN
    trace_id = ctx.get("id")
    if not isinstance(trace_id, str) or not trace_id:
        return NOOP_SPAN
    parent = ctx.get("parent")
    if not isinstance(parent, str):
        parent = None
    return Span(name, trace_id, parent, args)


# -- export -----------------------------------------------------------------------


def export_chrome(trace_id: str | None = None) -> dict[str, Any]:
    """One trace as Chrome trace-event JSON (``chrome://tracing``).

    Defaults to the most recent trace. Timestamps are microseconds
    relative to the trace's earliest span.
    """
    trace_id, spans = _spans_of(trace_id)
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(sp.start_ns for sp in spans)
    tids: dict[int, int] = {}
    events = []
    for sp in sorted(spans, key=lambda s: s.start_ns):
        tid = tids.setdefault(sp.tid, len(tids) + 1)
        events.append(
            {
                "name": sp.name,
                "ph": "X",
                "ts": (sp.start_ns - t0) / 1000.0,
                "dur": sp.dur_ns / 1000.0,
                "pid": os.getpid(),
                "tid": tid,
                "args": {
                    "trace_id": trace_id,
                    "span_id": sp.span_id,
                    "parent_id": sp.parent_id,
                    **sp.args,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def render_tree(trace_id: str | None = None) -> str:
    """One trace as an indented human-readable tree (latest by default)."""
    trace_id, spans = _spans_of(trace_id)
    if not spans:
        return "(no traces recorded)"
    by_id = {sp.span_id: sp for sp in spans}
    children: dict[str | None, list[Span]] = {}
    for sp in spans:
        parent = sp.parent_id if sp.parent_id in by_id else None
        children.setdefault(parent, []).append(sp)
    for group in children.values():
        group.sort(key=lambda s: s.start_ns)
    lines = [f"trace {trace_id}"]

    def visit(sp: Span, depth: int) -> None:
        detail = ""
        if sp.args:
            detail = "  " + " ".join(
                f"{k}={v!r}" for k, v in sorted(sp.args.items())
            )
        lines.append(
            "  " * (depth + 1) + f"{sp.name}  {fmt_ns(sp.dur_ns)}{detail}"
        )
        for child in children.get(sp.span_id, ()):
            visit(child, depth + 1)

    for root in children.get(None, ()):
        visit(root, 0)
    return "\n".join(lines)

