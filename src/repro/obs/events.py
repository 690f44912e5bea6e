"""Structured lifecycle event log: what *happened* to this database.

Metrics answer "how much", traces answer "where did the time go" —
this module answers "what changed". Lifecycle transitions that an
operator reconstructing an incident needs in order are appended to a
bounded in-memory ring as structured JSON-safe events, optionally
mirrored to a JSON-lines file sink (``REPRO_EVENTS_PATH``, or
``db.set_event_sink``):

* ``promote`` — a replica became a writable leader (failover);
* ``fence`` — a demoted leader started refusing writes;
* ``snapshot_sync`` — a follower rebuilt from a full leader copy;
* ``replication_error`` — the hub detached a follower it could not
  ship a record to (a row the one written form refuses);
* ``wal_torn_tail`` — reopening dropped a torn final WAL line left by
  a crash mid-append (the byte count attached);
* ``shed`` — the server refused a connection (admission queue full);
* ``slow_query`` — the slow-query log captured an entry;
* ``plan_change`` — the workload profiler saw a fingerprint re-lower
  to a different physical plan (last-good vs new hash attached);
* ``latency_regression`` — a query class's recent p95 degraded past
  the profiler's threshold;
* ``query_killed`` — a query blew a resource budget or deadline and
  was cooperatively cancelled (the resource-meter snapshot attached).

One :class:`EventLog` attaches lazily per engine (:func:`events_for`),
mirroring ``slowlog_for``/``metrics_for``. Emission is cheap (one
lock, one deque append) and never raises into the calling subsystem —
a broken file sink must not take down a commit path.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any

from repro._util import attached
from repro.config import EVENTS_PATH

__all__ = [
    "DEFAULT_CAPACITY",
    "Event",
    "EventLog",
    "events_for",
    "emit",
]

#: Events kept per engine; the ring drops the oldest beyond this.
DEFAULT_CAPACITY = 256


class Event:
    """One lifecycle transition, JSON-safe and timestamped at emit."""

    __slots__ = ("kind", "wall_clock", "data")

    def __init__(self, kind: str, data: dict[str, Any]) -> None:
        self.kind = kind
        self.wall_clock = time.time()
        self.data = data

    def to_dict(self) -> dict[str, Any]:
        """The event as plain data (the wire/file representation)."""
        return {"event": self.kind, "wall_clock": self.wall_clock, **self.data}

    def __repr__(self) -> str:
        return f"<Event {self.kind} {self.data!r}>"


class EventLog:
    """A bounded ring of :class:`Event`, newest last, with a file sink.

    The sink path defaults to the ``REPRO_EVENTS_PATH`` env var; each
    event appends one JSON line (the WAL's file-mirror idiom). Sink
    failures are swallowed — the in-memory ring stays authoritative.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sink: str | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._sink = sink or EVENTS_PATH.get()
        self.emitted = 0

    @property
    def sink(self) -> str | None:
        """The JSON-lines file path events mirror to, if any."""
        return self._sink

    def set_sink(self, path: str | None) -> None:
        """Mirror future events to *path* (``None`` stops mirroring)."""
        with self._lock:
            self._sink = path

    def emit(self, kind: str, **data: Any) -> Event:
        """Append one event; returns it. Never raises."""
        event = Event(str(kind), data)
        with self._lock:
            self._ring.append(event)
            self.emitted += 1
            sink = self._sink
        if sink:
            try:
                with open(sink, "a", encoding="utf-8") as handle:
                    handle.write(
                        json.dumps(event.to_dict(), default=repr) + "\n"
                    )
            except OSError:
                pass  # the ring is authoritative; a dead sink is not fatal
        return event

    def events(
        self, kind: str | None = None, limit: int | None = None
    ) -> list[Event]:
        """Recorded events oldest first, optionally filtered by kind
        and truncated to the newest *limit*."""
        with self._lock:
            out = list(self._ring)
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if limit is not None and limit >= 0:
            out = out[-limit:]
        return out

    def clear(self) -> None:
        """Drop every recorded event (the sink file is left alone)."""
        with self._lock:
            self._ring.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __repr__(self) -> str:
        return f"<EventLog {len(self)} events, sink={self._sink!r}>"


#: Events from graphs that reach no storage engine (pure in-memory).
_DEFAULT_LOG = EventLog()


def events_for(engine: Any) -> EventLog:
    """The lazily-attached :class:`EventLog` for *engine* (or the
    process-wide default log when *engine* is ``None``)."""
    return attached(engine, "event_log", EventLog, _DEFAULT_LOG)


def emit(engine: Any, kind: str, **data: Any) -> None:
    """Emit one event onto *engine*'s log, swallowing every failure —
    lifecycle paths (commit hooks, accept loops) must never break
    because observability hiccupped."""
    try:
        events_for(engine).emit(kind, **data)
    except Exception:
        pass
