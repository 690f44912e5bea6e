"""MVCC segments: the storage behind stored relation functions.

A segment keeps, per key, its newest committed row (``rows``) and the
stamp of the commit that wrote it (``stamps``). Readers resolve a key
against a snapshot stamp; writers buffer in their transaction and land
at commit. A version that a commit replaces, or a key's absence before
its first insert, is kept only while a registered snapshot still reads
it (:class:`Snapshots`, DESIGN.md §4), and is dropped when that snapshot
ends. This gives:

* snapshot reads that never block and never see torn state (Fig. 11);
  a read below every registered snapshot raises
  :class:`~repro.errors.StorageError`, never answers from a newer row;
* first-committer-wins conflict detection (the transaction manager
  compares a key's stamp against the writer's snapshot);
* a store whose size follows the live rows plus the writes since the
  oldest live snapshot, with nothing to collect by hand.

A :class:`VersionedTable` is one *segment* of a table
(:class:`repro.storage.table.Table`, DESIGN.md §10): a flat table has
one, a partitioned table one per partition, and a free-standing
relation's one segment is the case no snapshot is ever registered
against. A segment carries what is derived from its own rows: one
:class:`ColumnImage` (its live rows at the newest write, laid out for
column reads) and its :class:`~repro.storage.stats.TableStatistics`,
which double as zone maps (DESIGN.md §13).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Any, Iterator

from repro._util import LATEST, MISSING, TOMBSTONE
from repro.errors import StorageError
from repro.storage.stats import TableStatistics

__all__ = [
    "ColumnImage", "Snapshots", "VersionedTable", "TOMBSTONE", "fold_batch",
]


class ColumnImage:
    """The live keys and row dicts of one segment at one snapshot, in
    ``scan_at`` order. Immutable: a commit makes the next scan build a
    new image and leaves readers of this one on the rows they started
    with.

    Column derivations are lazy and kept for the image's life: one
    value list per attribute here, and whatever typed forms the
    executor's kernels derive through :attr:`derived`.
    """

    __slots__ = ("keys", "rows", "stamp", "derived", "_columns")

    def __init__(self, keys: list, rows: list, stamp: int | None = None):
        self.keys = keys
        self.rows = rows  # committed dicts, shared (never mutated in place)
        #: The segment's ``written_ts`` when this image was scanned
        #: (``None``: a throwaway image no segment caches).
        self.stamp = stamp
        self.derived: dict = {}
        self._columns: dict = {}

    def __len__(self) -> int:
        return len(self.keys)

    def column(self, attr: str) -> list:
        """One attribute over every row; undefined slots are MISSING."""
        got = self._columns.get(attr)
        if got is None:
            got = self._columns[attr] = [
                row.get(attr, MISSING) for row in self.rows
            ]
        return got


class Snapshots:
    """The stamps registered readers read at (DESIGN.md §4): every
    reader whose stamp can fall behind the newest write holds it here
    while it reads. A commit keeps a version it replaces only while a
    held stamp reads it (:meth:`VersionedTable.apply`); when a holder
    lets go, what no remaining holder reads is dropped
    (:meth:`VersionedTable.trim`). A held stamp is at most the commit
    clock and a commit takes the clock plus one, so nothing is kept for
    a later reader. The transaction manager changes it under its
    commit lock, but for a transaction-free reader's hold and release
    (:meth:`~repro.txn.manager.TransactionManager.hold`).
    """

    __slots__ = ("held", "retiring")

    def __init__(self) -> None:
        #: the stamp each reader holds, one entry a reader: a list, so
        #: that a hold or a release is one step under the interpreter lock
        self.held: list[int] = []
        #: ``(stamp, segments)``, oldest first: segments in which a write
        #: at *stamp* may have kept versions, to trim once every holder
        #: is past *stamp*
        self.retiring: deque = deque()

    def hold(self, ts: int) -> None:
        """Register one more reader at *ts*."""
        self.held.append(ts)

    def release(self, ts: int) -> None:
        """Let go of one hold on *ts*; drop the versions that no
        remaining holder reads."""
        self.held.remove(ts)
        retiring = self.retiring
        if retiring:
            floor = min(self.held, default=LATEST)
            while retiring and retiring[0][0] <= floor:
                for segment in retiring.popleft()[1]:
                    segment.trim(floor)


class VersionedTable:
    """One segment: each key's newest row, plus the older versions that
    registered snapshots still read."""

    def __init__(self, name: str):
        self.name = name
        #: key → newest live row, in the enumeration order: a key sits
        #: where it was first inserted since it was last absent
        self.rows: dict[Any, Any] = {}
        #: key → stamp of its newest write (a delete's too, while a
        #: snapshot that predates it is held): the first-committer-wins
        #: test, and what tells a reader a row is newer than its stamp
        self.stamps: dict[Any, int] = {}
        #: key → ``[(stamp, data), …]``, oldest first: the versions a
        #: held snapshot still reads; TOMBSTONE marks the key absent
        self.retired: dict[Any, list[tuple[int, Any]]] = {}
        #: The newest commit stamp applied (0 if none). Moved before a
        #: commit changes a row, so a reader whose snapshot is at or
        #: past it reads :attr:`rows` as they are.
        self.written_ts = 0
        self._image: ColumnImage | None = None
        #: Latest-state counts and accumulate-only bounds, folded in by
        #: each commit (:func:`fold_batch`); ``None`` (a free-standing
        #: relation's, until read) folds nothing and is built when read.
        self._stats: TableStatistics | None = TableStatistics()

    @property
    def stats(self) -> TableStatistics:
        """The segment's statistics; built from its rows when first read
        if no commit built them (a free-standing relation's)."""
        if self._stats is None:  # nothing but the rows to cover
            self._stats = TableStatistics()
            self._stats.fold([TOMBSTONE] * len(self.rows), list(self.rows.values()))
        return self._stats

    # -- reads ------------------------------------------------------------------

    def read(self, key: Any, ts: int) -> Any:
        """The committed value visible at snapshot *ts*, or TOMBSTONE.

        The row is read before its stamp, and :meth:`apply` writes them
        the other way round, so a row newer than *ts* is always seen as
        such."""
        data = self.rows.get(key, TOMBSTONE)
        if self.stamps.get(key, 0) <= ts:
            return data
        for stamp, old in reversed(self.retired.get(key, ())):
            if stamp <= ts:
                return old
        raise StorageError(
            f"{self.name!r}[{key!r}] changed after stamp {ts}, and no "
            "registered snapshot kept the version it read"
        )

    def latest_ts(self, key: Any) -> int:
        """Commit stamp of the newest write (0 if none is remembered).

        The transaction manager's write-write conflict test: a key changed
        since snapshot ``s`` iff ``latest_ts(key) > s``. A delete's stamp
        is forgotten only once no registered snapshot predates it.
        """
        return self.stamps.get(key, 0)

    def keys_at(self, ts: int) -> Iterator[Any]:
        """Keys with a live version at snapshot *ts*."""
        image = self.image_at(ts)
        if image is not None:
            return iter(image.keys)
        return (key for key, _data in self.scan_at(ts))

    def scan_at(self, ts: int) -> Iterator[tuple[Any, Any]]:
        """``(key, value)`` of every live version at snapshot *ts*: in
        :attr:`rows` order, then (at a snapshot older than the newest
        write) the keys deleted since."""
        rows = self.rows
        keys, datas = list(rows), list(rows.values())
        if ts >= self.written_ts:  # read after the copies (see written_ts)
            return zip(keys, datas)
        return self._scan_older(ts)

    def _scan_older(self, ts: int) -> Iterator[tuple[Any, Any]]:
        for key in {**dict.fromkeys(self.rows), **dict.fromkeys(self.retired)}:
            data = self.read(key, ts)
            if data is not TOMBSTONE:
                yield key, data

    def count_at(self, ts: int) -> int:
        """Live keys at snapshot *ts* (a scan only for a snapshot older
        than the newest write)."""
        count = len(self.rows)
        if ts >= self.written_ts:
            return count
        return sum(1 for _ in self._scan_older(ts))

    def image_at(self, ts: int) -> ColumnImage | None:
        """The cached image, if it serves a read at snapshot *ts*.

        It does while no write has landed since it was scanned and *ts*
        is at or past that write: every such snapshot sees the same
        rows. The stamp check, not the drop in :meth:`apply`, is what
        keeps an image scanned concurrently with a commit from serving.
        """
        image = self._image
        if image is not None and image.stamp == self.written_ts <= ts:
            return image
        return None

    def build_image(self, ts: int) -> ColumnImage | None:
        """Copy :attr:`rows` into a new cached image, or ``None`` when
        *ts* predates the newest write (an older snapshot: scan
        uncached), a commit began mid-copy, or a row is not a dict."""
        stamp = self.written_ts  # read before copying (see image_at)
        if ts < stamp:
            return None
        rows = self.rows
        keys, datas = list(rows), list(rows.values())
        if self.written_ts != stamp:
            return None
        stats = self._stats
        if (stats is None or stats.opaque) and not all(
            isinstance(d, dict) for d in datas
        ):
            return None
        image = self._image = ColumnImage(keys, datas, stamp)
        return image

    # -- writes -----------------------------------------------------------------

    def apply(
        self, keys: Any, datas: Any, ts: int, batch: dict, horizon: int = -1
    ) -> list:
        """Make ``datas[i]`` the newest version of ``keys[i]``, stamped
        *ts* (TOMBSTONE deletes), and return the values they replace.

        *horizon* is the newest held snapshot stamp (-1: none). A
        replaced version, or a key's absence, is kept in
        :attr:`retired` when a held snapshot reads it: one at or past
        its stamp, so when that stamp is at most *horizon*. While any
        snapshot is held a delete also keeps what it replaces, so that
        the delete's stamp stays for the conflict test until
        :meth:`trim` drops both. The statistics take the writes with
        the rest of the commit's *batch* (:func:`fold_batch`)."""
        rows, stamps, retired = self.rows, self.stamps, self.retired
        olds, news = batch.get(self) or batch.setdefault(self, ([], []))
        first = len(olds)
        if ts > self.written_ts:  # re-partitioning replays out of order
            self.written_ts = ts
        self._image = None
        for key, data in zip(keys, datas):
            old = rows.get(key, TOMBSTONE)
            stamp = stamps.get(key, 0)
            if stamp > ts:
                raise StorageError(
                    f"non-monotonic commit stamp {ts} after {stamp}"
                    f" on {self.name!r}[{key!r}]"
                )
            # retired, then the stamp, then the row (see read())
            if (
                0 <= horizon
                and stamp < ts
                and (stamp <= horizon or data is TOMBSTONE)
            ):
                retired.setdefault(key, []).append((stamp, old))
            if data is TOMBSTONE:
                if key in retired:
                    stamps[key] = ts
                else:
                    stamps.pop(key, None)
                rows.pop(key, None)
            else:
                stamps[key] = ts
                rows[key] = data
            olds.append(old)
        news += datas
        return olds[first:]

    def trim(self, floor: int) -> None:
        """Drop the kept versions that no snapshot at or past *floor*
        reads: those replaced at or before it."""
        retired, stamps = self.retired, self.stamps
        for key, versions in list(retired.items()):
            replaced = [stamp for stamp, _data in versions[1:]] + [stamps[key]]
            gone = bisect_right(replaced, floor)
            if gone == len(versions):
                del retired[key]
                if key not in self.rows:
                    del stamps[key]
            elif gone:
                retired[key] = versions[gone:]

    def history(self) -> Iterator[tuple[Any, list[tuple[int, Any]]]]:
        """Per key, the versions held, oldest first: the kept ones, then
        the newest (TOMBSTONE for a delete a snapshot still predates)."""
        rows, stamps, retired = self.rows, self.stamps, self.retired
        for key in {**dict.fromkeys(rows), **dict.fromkeys(retired)}:
            yield key, [
                *retired.get(key, ()), (stamps[key], rows.get(key, TOMBSTONE))
            ]

    def version_count(self) -> int:
        """Versions held: the live rows plus the kept ones."""
        return len(self.rows) + sum(map(len, self.retired.values()))

    def __repr__(self) -> str:
        return (
            f"<VersionedTable {self.name!r}: {len(self.rows)} rows, "
            f"{self.version_count()} versions>"
        )


def fold_batch(batch: dict) -> None:
    """Fold each segment's share of one commit, collected by
    :meth:`VersionedTable.apply`, into its statistics."""
    for segment, (olds, news) in batch.items():
        if segment._stats is not None:
            segment._stats.fold(olds, news)
