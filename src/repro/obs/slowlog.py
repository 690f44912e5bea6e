"""Slow-query capture: the "why was this slow" artifact, kept in memory.

Queries whose batched enumeration exceeds a per-engine threshold get a
:class:`SlowQueryEntry` recorded into a bounded ring: the physical
operator tree annotated with per-node batch/row/wall counters (what
``analyze()`` prints), zone-map skip totals, row count, total wall
time, and — when the query was traced — its trace id. Operators read
the ring via ``db.slow_queries()`` without having to reproduce the
query.

The threshold defaults to the ``REPRO_SLOW_MS`` env var (unset → off).
Capture times each node of every run of the cached plan (the counts
ride the query's context; a node's wall includes its children's), so
an armed log costs a little on every query, fired or not.
A process-global flag tracks whether *any* engine has capture enabled,
keeping the per-enumeration check near-free when nobody does.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any

from repro._util import attached
from repro.config import SLOW_MS

__all__ = [
    "DEFAULT_CAPACITY",
    "SlowQueryEntry",
    "SlowQueryLog",
    "slowlog_for",
    "any_active",
    "default_threshold_ms",
]

#: Entries kept per engine; the ring drops the oldest beyond this.
DEFAULT_CAPACITY = 64

#: How many engines currently have capture enabled (threshold set).
#: Read unlocked on the hot path — a plain int under the GIL.
_active_count = 0
_active_lock = threading.Lock()


def any_active() -> bool:
    """Does any engine in this process have slow-query capture on?"""
    return _active_count > 0


#: The ``REPRO_SLOW_MS`` threshold, or ``None`` when unset/invalid.
default_threshold_ms = SLOW_MS.get


class SlowQueryEntry:
    """One captured slow query, safe to keep after its plan is gone."""

    __slots__ = (
        "query",
        "wall_ms",
        "rows",
        "tree",
        "zone_skipped",
        "zone_scanned",
        "trace_id",
        "wall_clock",
    )

    def __init__(
        self,
        query: str,
        wall_ms: float,
        rows: int,
        tree: list[dict[str, Any]],
        zone_skipped: int,
        zone_scanned: int,
        trace_id: str | None,
    ) -> None:
        self.query = query
        self.wall_ms = wall_ms
        self.rows = rows
        self.tree = tree
        self.zone_skipped = zone_skipped
        self.zone_scanned = zone_scanned
        self.trace_id = trace_id
        self.wall_clock = time.time()

    def to_dict(self) -> dict[str, Any]:
        """The entry as JSON-safe plain data (shipping/structured logs)."""
        return {
            "query": self.query,
            "wall_ms": self.wall_ms,
            "rows": self.rows,
            "tree": self.tree,
            "zone_skipped": self.zone_skipped,
            "zone_scanned": self.zone_scanned,
            "trace_id": self.trace_id,
            "wall_clock": self.wall_clock,
        }

    def render(self) -> str:
        """The entry as an ``analyze()``-style text block."""
        from repro.obs.instrument import render_stats

        lines = [
            f"slow query: {self.query}  "
            f"wall={self.wall_ms:.2f}ms rows={self.rows}"
        ]
        lines.extend(render_stats(self.tree))
        if self.zone_skipped or self.zone_scanned:
            lines.append(
                f"  zone maps: {self.zone_skipped} segment(s) skipped, "
                f"{self.zone_scanned} scanned"
            )
        if self.trace_id:
            lines.append(f"  trace: {self.trace_id}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<SlowQueryEntry {self.query!r} {self.wall_ms:.2f}ms "
            f"rows={self.rows}>"
        )


class SlowQueryLog:
    """A bounded ring of :class:`SlowQueryEntry`, newest last."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._lock = threading.Lock()
        self._ring: deque[SlowQueryEntry] = deque(maxlen=capacity)
        self._threshold_ms: float | None = default_threshold_ms()
        if self._threshold_ms is not None:
            _bump(+1)

    @property
    def threshold_ms(self) -> float | None:
        """The capture threshold in ms, or ``None`` when capture is off."""
        return self._threshold_ms

    def set_threshold(self, ms: float | None) -> None:
        """Set the capture threshold in milliseconds (``None`` disables)."""
        if ms is not None and ms < 0:
            raise ValueError(f"threshold must be >= 0, got {ms!r}")
        with _active_lock:
            was = self._threshold_ms is not None
            now = ms is not None
            global _active_count
            _active_count += int(now) - int(was)
            self._threshold_ms = ms

    def should_capture(self) -> bool:
        """Is capture enabled for this engine?"""
        return self._threshold_ms is not None

    def record(self, entry: SlowQueryEntry) -> None:
        """Append one entry, evicting the oldest beyond capacity."""
        with self._lock:
            self._ring.append(entry)

    def entries(self) -> list[SlowQueryEntry]:
        """Captured entries, oldest first."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        """Drop every captured entry."""
        with self._lock:
            self._ring.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


def _bump(delta: int) -> None:
    global _active_count
    with _active_lock:
        _active_count += delta


def slowlog_for(engine: Any) -> SlowQueryLog:
    """The lazily-attached :class:`SlowQueryLog` for *engine*."""
    return attached(engine, "slow_log", SlowQueryLog)
