"""Bounded per-commit changelogs with a watermark protocol.

One :class:`ChangeLog` buffers the recent history of one change source,
one record per stamp, each ``{table name: Delta}``. A change source is
whatever owns the tables' write stamps: a
:class:`~repro.storage.engine.StorageEngine` records each committed
transaction at its commit stamp, and a free-standing
:class:`~repro.fdm.relations.MaterialRelationFunction` — the one table it
owns — records each write at the stamp of its own mutation counter.

Consumers remember the last ``ts`` they applied (their *watermark*) and
call :meth:`ChangeLog.since` to catch up. The buffer is bounded: when
old records are evicted the floor rises, and a consumer whose watermark
fell below the floor gets ``None`` — the signal to fall back to a full
recompute and jump its watermark to the present.
"""

from __future__ import annotations

from collections import deque
from typing import Any

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
    """Enable change capture on a free-standing relation function.

    Idempotent: the first call attaches a :class:`ChangeLog` whose floor
    is the relation's current mutation counter (changes before capture
    started are unknowable); later calls return the existing log. Every
    write lands in the log from then on
    (``MaterialRelationFunction._write_rows``).
    """
    if rel.changelog is None:
        rel.changelog = ChangeLog(capacity=capacity, start_ts=rel._version)
    return rel.changelog
