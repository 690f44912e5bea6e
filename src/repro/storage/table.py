"""The engine's table: a relation's rows in segments (DESIGN.md §10).

A :class:`Table` owns a name, a key name, secondary indexes, a
:class:`~repro.partition.scheme.PartitionScheme` and one
:class:`~repro.storage.versioned.VersionedTable` segment per partition
the scheme names. A flat table is the one-segment case, under
:data:`~repro.partition.scheme.FLAT` (whose spec is ``None``). The
invariant segment-by-segment scans rely on:

    **at any snapshot timestamp, every live key is visible in exactly
    one segment**, so per-segment scans are disjoint and their
    concatenation (in partition order) is the whole-table scan.

Rows whose partitioning attribute changes *move*: the write lands the
new version in the new segment and a delete in the old segment at the
same commit stamp, preserving the invariant for every timestamp. Moves
are derived deterministically from the applied writes, so WAL replay
reproduces the exact same segment layout (the recovery tests pin this
down byte-for-byte).
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterator

from repro._util import LATEST, TOMBSTONE
from repro.obs.resources import active_meter
from repro.partition.prune import surviving_partitions
from repro.partition.scheme import FLAT, PartitionScheme
from repro.storage.index import IndexSet
from repro.storage.stats import SummedStatistics, TableStatistics, zone_may_match
from repro.storage.versioned import VersionedTable, fold_batch

__all__ = ["Table"]

_FIRST = (0,)


class Table:
    """A multi-versioned key → row table whose rows live in segments."""

    def __init__(
        self,
        name: str,
        key_name: str | tuple[str, ...] | None = None,
        scheme: PartitionScheme = FLAT,
    ):
        self.name = name
        self.key_name = key_name
        self.scheme = scheme
        n = scheme.n_partitions
        self.segments = [
            VersionedTable(name if n == 1 else f"{name}.p{pid}")
            for pid in range(n)
        ]
        #: key → segment holding its *newest* version (moves update
        #: this); a one-segment table has nowhere to move a key and
        #: keeps none.
        self._placement: dict[Any, int] = {}
        #: Secondary indexes over the latest committed rows; the engine
        #: updates them at commit.
        self.indexes = IndexSet()

    @classmethod
    def from_table(
        cls, table: "Table", scheme: PartitionScheme, horizon: int = -1
    ) -> "Table":
        """Re-partition *table* under *scheme*, the versions it holds
        included.

        Each key's versions replay in stamp order through the normal
        write path under *horizon* (:meth:`VersionedTable.apply`), so
        what a held snapshot reads stays readable, historical moves get
        their deletes exactly as if the table had had *scheme* from the
        start, and each segment's statistics cover every version it
        receives. At each stamp the live value wins over the delete a
        move left in the old segment. The indexes carry over as they
        are: a re-shard changes no latest value.
        """
        out = cls(table.name, key_name=table.key_name, scheme=scheme)
        out.indexes = table.indexes
        versions: dict[Any, dict[int, Any]] = {}
        for segment in table.segments:
            for key, held in segment.history():
                by_ts = versions.setdefault(key, {})
                for ts, data in held:
                    if by_ts.get(ts, TOMBSTONE) is TOMBSTONE:
                        by_ts[ts] = data
        batch: dict = {}
        for key, by_ts in versions.items():
            for ts, data in sorted(by_ts.items()):
                out.apply((key,), (data,), ts, batch, horizon)
        fold_batch(batch)
        return out

    @property
    def stats(self) -> TableStatistics | SummedStatistics:
        """The whole table's statistics: its one segment's, or sums
        over its segments', each of which keeps its own at commit."""
        if len(self.segments) == 1:
            return self.segments[0].stats
        return SummedStatistics([s.stats for s in self.segments])

    # -- reads ------------------------------------------------------------------

    def read(self, key: Any, ts: int) -> Any:
        """The committed value visible at snapshot *ts*, or TOMBSTONE."""
        data = self.segments[self._placement.get(key, 0)].read(key, ts)
        if data is TOMBSTONE and key in self._placement:
            # the key may have lived elsewhere at this snapshot (moves);
            # at most one segment holds a live version at any ts
            for segment in self.segments:
                data = segment.read(key, ts)
                if data is not TOMBSTONE:
                    break
        return data

    def latest_ts(self, key: Any) -> int:
        """Commit stamp of the key's newest version (0 if it never
        existed); a move stamps both segments alike."""
        return self.segments[self._placement.get(key, 0)].latest_ts(key)

    def keys_at(self, ts: int) -> Iterator[Any]:
        return chain.from_iterable(s.keys_at(ts) for s in self.segments)

    def scan_at(self, ts: int) -> Iterator[tuple[Any, Any]]:
        return chain.from_iterable(s.scan_at(ts) for s in self.segments)

    def partition_counts(self, ts: int) -> list[int]:
        return [segment.count_at(ts) for segment in self.segments]

    def count_at(self, ts: int) -> int:
        return sum(self.partition_counts(ts))

    def column_batches(
        self, ts: int, batch_size: int, name: str, zone_predicate: Any = None
    ) -> Iterator[Any]:
        """The rows visible at snapshot *ts* as column batches, segment
        by segment (the table's enumeration order; DESIGN.md §13).

        Each segment serves its cached column image, copying its rows
        into a new one when the cached image does not serve *ts*; a
        snapshot older than the segment's newest write, or a segment
        holding a non-dict value, is scanned uncached. Only the segments *zone_predicate* reaches are read
        (:func:`~repro.partition.prune.surviving_partitions`); each of
        those whose own statistics rule the predicate out is skipped
        and counted as a zone skip.
        """
        # local: the executor's package imports the storage layer
        from repro.exec.batch import entry_batches, image_batches

        reach = surviving_partitions(self.scheme, zone_predicate)
        for pid, segment in enumerate(self.segments):
            if pid not in reach:
                continue
            # per segment: an enumeration's meter is installed per pull
            meter = active_meter()
            if zone_predicate is not None:
                if not zone_may_match(segment.stats, zone_predicate):
                    if meter is not None:
                        meter.zone_segments_skipped += 1
                    continue
                if meter is not None:
                    meter.zone_segments_scanned += 1
            image = segment.image_at(ts)
            if image is None:
                image = segment.build_image(ts)
                if image is not None and meter is not None:
                    meter.images_built += 1
            if image is None:
                yield from entry_batches(segment.scan_at(ts), batch_size, name)
            else:
                yield from image_batches(image, batch_size, name)

    # -- writes -----------------------------------------------------------------

    def apply(
        self, keys: Any, datas: Any, ts: int, batch: dict, horizon: int = -1
    ) -> tuple[list, Any]:
        """Land one committed version per key, ``datas[i]`` under
        ``keys[i]``, where the scheme places it; returns the values
        they replace and the segments they touched (a move touches
        two). *batch* collects the commit's rows for the statistics,
        and *horizon* says what to keep (:meth:`VersionedTable.apply`)."""
        segments = self.segments
        if len(segments) == 1:  # nowhere to move: nothing to place
            return segments[0].apply(keys, datas, ts, batch, horizon), _FIRST
        olds, touched = [], set()
        for key, data in zip(keys, datas):
            olds.append(self.read(key, LATEST))
            old_pid = self._placement.get(key)
            if data is TOMBSTONE:
                # deletes land where the key currently lives
                pid = old_pid if old_pid is not None else 0
            else:
                pid = self.scheme.partition_for(key, data)
            segments[pid].apply((key,), (data,), ts, batch, horizon)
            self._placement[key] = pid
            touched.add(pid)
            if old_pid is not None and old_pid != pid:
                # the row moved: close out the old segment at the same stamp
                segments[old_pid].apply((key,), (TOMBSTONE,), ts, batch, horizon)
                touched.add(old_pid)
        return olds, touched

    # -- introspection ----------------------------------------------------------

    def version_count(self) -> int:
        return sum(s.version_count() for s in self.segments)

    def layout(self) -> dict[int, dict[Any, list[tuple[int, Any]]]]:
        """Full physical layout, pid → key → [(ts, data)...]: equal
        layouts mean WAL replay reproduced every placement and move."""
        return {
            pid: dict(segment.history())
            for pid, segment in enumerate(self.segments)
        }

    def __repr__(self) -> str:
        sizes = "/".join(str(len(s.rows)) for s in self.segments)
        return f"<Table {self.name!r} {self.scheme.describe()}: rows {sizes}>"
