"""Bounded per-commit changelogs with a watermark protocol.

One :class:`ChangeLog` buffers the recent history of one change source:

* a :class:`~repro.storage.engine.StorageEngine` appends one record per
  committed transaction (``ts`` is the MVCC commit timestamp, the deltas
  are keyed by table name);
* a :class:`~repro.fdm.relations.MaterialRelationFunction` with change
  capture enabled appends one record per mutation (``ts`` is its own
  mutation counter, the deltas are keyed by ``None``).

Consumers remember the last ``ts`` they applied (their *watermark*) and
call :meth:`ChangeLog.since` to catch up. The buffer is bounded: when
old records are evicted the floor rises, and a consumer whose watermark
fell below the floor gets ``None`` — the signal to fall back to a full
recompute and jump its watermark to the present.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.ivm.delta import Delta

__all__ = ["ChangeLog", "ensure_capture", "DEFAULT_CAPACITY"]

#: Commits (or mutations) retained before the floor starts rising.
DEFAULT_CAPACITY = 1024


class ChangeLog:
    """A bounded buffer of ``(ts, {source_key: Delta})`` records."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY, start_ts: int = 0):
        if capacity < 1:
            raise ValueError("changelog capacity must be positive")
        self.capacity = capacity
        self._records: deque[tuple[int, dict[Any, Delta]]] = deque()
        #: Newest evicted (or never-recorded) stamp: history at or below
        #: this ts is gone.
        self._floor = start_ts
        self._last = start_ts
        #: Callbacks fired after each append (eager view maintenance).
        self.subscribers: list[Callable[[int], None]] = []
        #: Set (permanently) when a captured row carries a live nested
        #: FDM function: its in-place mutations produce no records, so
        #: watermarks can no longer certify freshness and consumers
        #: must drop to scan-based maintenance.
        self.uncapturable = False

    @property
    def watermark(self) -> int:
        """The newest recorded stamp (what a fresh consumer starts at)."""
        return self._last

    @property
    def floor(self) -> int:
        return self._floor

    def append(self, ts: int, deltas: dict[Any, Delta]) -> None:
        """Record one commit's per-source deltas (empty ones are dropped)."""
        deltas = {key: d for key, d in deltas.items() if d}
        if deltas:
            # the record lands before the watermark moves: a consumer
            # that reads the watermark and then since() never holds a
            # stamp whose record is still missing
            self._records.append((ts, deltas))
            while len(self._records) > self.capacity:
                evicted_ts, _ = self._records.popleft()
                self._floor = max(self._floor, evicted_ts)
        self._last = max(self._last, ts)
        if deltas:
            for subscriber in list(self.subscribers):
                subscriber(ts)

    def observe_row(self, data: Any) -> None:
        """Inspect a captured row; live nested functions poison capture."""
        from repro.fdm.functions import FDMFunction

        if isinstance(data, FDMFunction) or (
            isinstance(data, dict)
            and any(isinstance(v, FDMFunction) for v in data.values())
        ):
            self.uncapturable = True

    def since(
        self, watermark: int
    ) -> list[tuple[int, dict[Any, Delta]]] | None:
        """Records newer than *watermark*, or ``None`` if history was lost."""
        if watermark < self._floor:
            return None
        return [record for record in self._records if record[0] > watermark]

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return (
            f"<ChangeLog {len(self._records)} records, "
            f"floor={self._floor}, watermark={self._last}>"
        )


def ensure_capture(rel: Any, capacity: int = DEFAULT_CAPACITY) -> ChangeLog:
    """Enable change capture on a material relation function.

    Idempotent: the first call attaches a :class:`ChangeLog` whose floor
    is the relation's current mutation counter (changes before capture
    started are unknowable); later calls return the existing log. The
    relation's mutation costumes feed the log from then on (see
    ``MaterialRelationFunction._record_change``).
    """
    log = getattr(rel, "_changes", None)
    if log is None:
        version = getattr(rel, "_version", 0)
        log = ChangeLog(capacity=capacity, start_ts=version)
        rel._changes = log
    return log
