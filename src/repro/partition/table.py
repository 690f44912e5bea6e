"""Horizontally partitioned MVCC tables (DESIGN.md §10).

A :class:`PartitionedTable` presents the exact :class:`VersionedTable`
contract — ``read``/``apply``/``scan_at``/``latest_ts``/``vacuum`` —
while fanning every key's version chain into one of N per-partition
segment tables. The invariant segment-by-segment scans rely on:

    **at any snapshot timestamp, every live key is visible in exactly
    one segment**, so per-segment scans are disjoint and their
    concatenation (in partition order) equals the whole-table scan.

Rows whose partitioning attribute changes *move*: the write appends the
new version to the new segment and a tombstone to the old segment at the
same commit stamp, preserving the invariant for every timestamp. Moves
are derived deterministically from the applied writes, so WAL replay
reproduces the exact same segment layout (the recovery tests pin this
down byte-for-byte).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro._util import TOMBSTONE
from repro.partition.scheme import PartitionScheme
from repro.storage.versioned import VersionedTable

__all__ = ["PartitionedTable"]


class PartitionedTable(VersionedTable):
    """A multi-versioned table whose chains live in per-partition segments."""

    is_partitioned = True

    def __init__(
        self,
        name: str,
        key_name: str | tuple[str, ...] | None = None,
        scheme: PartitionScheme | None = None,
    ):
        super().__init__(name, key_name=key_name)
        if scheme is None:
            raise ValueError("PartitionedTable needs a partition scheme")
        self.scheme = scheme
        self.segments: list[VersionedTable] = [
            VersionedTable(f"{name}.p{pid}", key_name=key_name)
            for pid in range(scheme.n_partitions)
        ]
        #: key → segment holding its *newest* version (moves update this).
        self._placement: dict[Any, int] = {}

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_table(
        cls, table: VersionedTable, scheme: PartitionScheme
    ) -> "PartitionedTable":
        """Re-partition an existing table, version history included.

        Each key's chain replays in stamp order through the normal write
        path, so historical moves get their tombstones exactly as if the
        table had been partitioned from the start.
        """
        out = cls(table.name, key_name=table.key_name, scheme=scheme)
        if isinstance(table, PartitionedTable):
            for key, versions in table.logical_chains():
                for ts, data in versions:
                    out.apply(key, data, ts)
            return out
        for key, chain in table._chains.items():
            for version in chain:
                out.apply(key, version.data, version.ts)
        return out

    def logical_chains(self) -> Iterator[tuple[Any, list[tuple[int, Any]]]]:
        """Per key, the logical version history with move artifacts
        collapsed: at each stamp the live value wins over the move
        tombstone the old segment received."""
        keys: dict[Any, None] = {}
        for segment in self.segments:
            for key in segment._chains:
                keys.setdefault(key, None)
        for key in keys:
            by_ts: dict[int, Any] = {}
            for segment in self.segments:
                for version in segment._chains.get(key, ()):
                    current = by_ts.get(version.ts, TOMBSTONE)
                    if current is TOMBSTONE:
                        by_ts[version.ts] = version.data
            yield key, sorted(by_ts.items())

    @property
    def n_partitions(self) -> int:
        return self.scheme.n_partitions

    def placement_of(self, key: Any) -> int | None:
        """Segment holding the key's newest version (None if never seen)."""
        return self._placement.get(key)

    # -- reads ------------------------------------------------------------------

    def read(self, key: Any, ts: int) -> Any:
        pid = self._placement.get(key)
        if pid is None:
            return TOMBSTONE
        data = self.segments[pid].read(key, ts)
        if data is not TOMBSTONE:
            return data
        # the key may have lived elsewhere at this snapshot (moves); at
        # most one segment holds a live version at any ts
        for other, segment in enumerate(self.segments):
            if other == pid:
                continue
            data = segment.read(key, ts)
            if data is not TOMBSTONE:
                return data
        return TOMBSTONE

    def latest_ts(self, key: Any) -> int:
        return max(segment.latest_ts(key) for segment in self.segments)

    def keys_at(self, ts: int) -> Iterator[Any]:
        for segment in self.segments:
            yield from segment.keys_at(ts)

    def scan_at(self, ts: int) -> Iterator[tuple[Any, Any]]:
        for segment in self.segments:
            yield from segment.scan_at(ts)

    # -- per-partition access ----------------------------------------------------

    def scan_partition(self, pid: int, ts: int) -> Iterator[tuple[Any, Any]]:
        return self.segments[pid].scan_at(ts)

    def keys_partition(self, pid: int, ts: int) -> Iterator[Any]:
        return self.segments[pid].keys_at(ts)

    def partition_counts(self, ts: int) -> list[int]:
        return [segment.count_at(ts) for segment in self.segments]

    # -- writes -----------------------------------------------------------------

    def apply(self, key: Any, data: Any, ts: int) -> None:
        if ts > self.written_ts:
            self.written_ts = ts
        old_pid = self._placement.get(key)
        if data is TOMBSTONE:
            # deletes land where the key currently lives
            pid = old_pid if old_pid is not None else 0
            self.segments[pid].apply(key, TOMBSTONE, ts)
            self._placement[key] = pid
            return
        pid = self.scheme.partition_for(key, data)
        self.segments[pid].apply(key, data, ts)
        if old_pid is not None and old_pid != pid:
            # the row moved: close out the old segment at the same stamp
            self.segments[old_pid].apply(key, TOMBSTONE, ts)
        self._placement[key] = pid

    # -- maintenance ------------------------------------------------------------

    def vacuum(self, watermark: int) -> int:
        return sum(s.vacuum(watermark) for s in self.segments)

    def version_count(self) -> int:
        return sum(s.version_count() for s in self.segments)

    # -- introspection ------------------------------------------------------------

    def layout(self) -> dict[int, dict[Any, list[tuple[int, Any]]]]:
        """Full physical layout: pid → key → [(ts, data)...].

        The recovery tests compare this between an original engine and a
        WAL-replayed one — identical layouts mean replay reproduced every
        placement and move decision exactly.
        """
        out: dict[int, dict[Any, list[tuple[int, Any]]]] = {}
        for pid, segment in enumerate(self.segments):
            out[pid] = {
                key: [(v.ts, v.data) for v in chain]
                for key, chain in segment._chains.items()
            }
        return out

    def __repr__(self) -> str:
        sizes = "/".join(str(len(s._chains)) for s in self.segments)
        return (
            f"<PartitionedTable {self.name!r} {self.scheme.describe()}: "
            f"chains {sizes}>"
        )
