"""MVCC versioned tables: the storage behind stored relation functions.

Each key maps to a *version chain* — committed versions stamped with the
logical commit timestamp that created them. Readers resolve a key against a
snapshot timestamp and see the latest version at or before it; writers
buffer in their transaction and append at commit. Deletes append a
tombstone. This gives:

* snapshot reads that never block and never see torn state (Fig. 11),
* first-committer-wins conflict detection (the transaction manager
  compares a chain's newest stamp against the writer's snapshot),
* time travel (`as_of`) and cheap garbage collection below the oldest
  active snapshot.

A :class:`VersionedTable` is one *segment* of a table
(:class:`repro.storage.table.Table`, DESIGN.md §10): a flat table has
one, a partitioned table one per partition, and a free-standing
relation's one segment keeps a single version per key
(:meth:`VersionedTable.put`, DESIGN.md §4). A segment carries what is
derived from its own rows: one :class:`ColumnImage` (its live rows at
the newest write, laid out for column reads) and its
:class:`~repro.storage.stats.TableStatistics`, which double as zone
maps (DESIGN.md §13).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterator

from repro._util import MISSING, TOMBSTONE
from repro.errors import StorageError
from repro.storage.stats import TableStatistics

__all__ = ["ColumnImage", "Version", "VersionedTable", "TOMBSTONE", "fold_batch"]


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


class Version:
    """One committed version of one key."""

    __slots__ = ("ts", "data")

    def __init__(self, ts: int, data: Any):
        self.ts = ts
        self.data = data  # attribute dict, nested FDM function, or TOMBSTONE

    def __repr__(self) -> str:
        label = "⊥" if self.data is TOMBSTONE else repr(self.data)
        return f"@{self.ts}:{label}"


class VersionedTable:
    """One segment: a multi-versioned key → attribute-dict store."""

    def __init__(self, name: str):
        self.name = name
        self._chains: dict[Any, list[Version]] = {}
        #: The newest commit stamp applied (0 if none). Set before the
        #: commit's stamp is published, so a reader whose snapshot is at
        #: or past it sees every version this segment holds.
        self.written_ts = 0
        self._image: ColumnImage | None = None
        #: Chains whose newest version is live: the row count at any
        #: snapshot at or past :attr:`written_ts`.
        self._live = 0
        #: Latest-state counts and accumulate-only bounds, folded in by
        #: each commit (:func:`fold_batch`) and rebuilt by :meth:`vacuum`;
        #: ``None`` once :meth:`put` left them to be rebuilt when read.
        self._stats: TableStatistics | None = TableStatistics()
        #: ``(olds, news)`` of the writes :meth:`put` applied that the
        #: statistics have not folded yet.
        self._unfolded: tuple[list, list] = ([], [])

    @property
    def stats(self) -> TableStatistics:
        """The segment's statistics, with the writes :meth:`put` left
        waiting folded in (or rebuilt from the chains)."""
        olds, news = self._unfolded
        if self._stats is None:
            self._stats = self._rebuilt_stats()
        elif olds:
            self._stats.fold(olds, news)
        if olds:
            self._unfolded = ([], [])
        return self._stats

    def _rebuilt_stats(self) -> TableStatistics:
        """Statistics of every version the chains hold, folded in chain
        order (what the commits that wrote them folded)."""
        olds: list = []
        news: list = []
        for chain in self._chains.values():
            previous = TOMBSTONE
            for version in chain:
                olds.append(previous)
                news.append(version.data)
                previous = version.data
        stats = TableStatistics()
        stats.fold(olds, news)
        return stats

    # -- reads ------------------------------------------------------------------

    def read(self, key: Any, ts: int) -> Any:
        """The committed value visible at snapshot *ts*, or TOMBSTONE."""
        chain = self._chains.get(key)
        if not chain:
            return TOMBSTONE
        # fast path: the newest version is visible (current snapshots —
        # the overwhelmingly common case); no stamp list, no bisect
        newest = chain[-1]
        if newest.ts <= ts:
            return newest.data
        stamps = [v.ts for v in chain]
        index = bisect_right(stamps, ts) - 1
        if index < 0:
            return TOMBSTONE
        return chain[index].data

    def exists(self, key: Any, ts: int) -> bool:
        """Whether *key* has a live version at snapshot *ts*."""
        return self.read(key, ts) is not TOMBSTONE

    def latest_ts(self, key: Any) -> int:
        """Commit stamp of the newest version (0 if the key never existed).

        The transaction manager's write-write conflict test: a key changed
        since snapshot ``s`` iff ``latest_ts(key) > s``.
        """
        chain = self._chains.get(key)
        return chain[-1].ts if chain else 0

    def keys_at(self, ts: int) -> Iterator[Any]:
        """Keys with a live (non-tombstone) version at snapshot *ts*."""
        image = self.image_at(ts)
        if image is not None:
            return iter(image.keys)
        return (key for key, _data in self.scan_at(ts))

    def scan_at(self, ts: int) -> Iterator[tuple[Any, Any]]:
        """``(key, value)`` of every live version at snapshot *ts*, in
        chain order."""
        for key, chain in list(self._chains.items()):
            newest = chain[-1] if chain else None
            if newest is not None and newest.ts <= ts:
                data = newest.data  # fast path (see read())
            else:
                data = self.read(key, ts)
            if data is not TOMBSTONE:
                yield key, data

    def count_at(self, ts: int) -> int:
        """Live keys at snapshot *ts* (walks the chains only for a
        snapshot older than the newest write)."""
        if ts >= self.written_ts:
            return self._live
        return sum(1 for _ in self.keys_at(ts))

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
        """Scan the chains at *ts* into a new cached image, or ``None``
        when *ts* predates the newest write (an older snapshot: walk
        the chains uncached) or a row is not a dict."""
        stamp = self.written_ts  # read before scanning (see image_at)
        if ts < stamp:
            return None
        keys: list = []
        rows: list = []
        for key, data in self.scan_at(ts):
            if not isinstance(data, dict):
                return None
            keys.append(key)
            rows.append(data)
        image = self._image = ColumnImage(keys, rows, stamp)
        return image

    # -- writes (called by the transaction manager only) ---------------------------

    def apply(self, keys: Any, datas: Any, ts: int, batch: dict) -> list:
        """Append one committed version per key, ``datas[i]`` under
        ``keys[i]``, and return the values they replace. Stamps must be
        monotone per chain. The statistics take them with the rest of
        the commit's *batch* (:func:`fold_batch`)."""
        chains = self._chains
        olds, news = batch.get(self) or batch.setdefault(self, ([], []))
        first = len(olds)
        live = self._live
        for key, data in zip(keys, datas):
            chain = chains.get(key)
            if chain is None:
                chains[key] = [Version(ts, data)]
                old = TOMBSTONE
            else:
                old = chain[-1].data
                if chain[-1].ts < ts:
                    chain.append(Version(ts, data))
                elif chain[-1].ts == ts:
                    chain[-1] = Version(ts, data)  # same-txn overwrite
                else:
                    raise StorageError(
                        f"non-monotonic commit stamp {ts} after {chain[-1].ts}"
                        f" on {self.name!r}[{key!r}]"
                    )
            olds.append(old)
            live += (data is not TOMBSTONE) - (old is not TOMBSTONE)
        news += datas
        self._live = live
        if ts > self.written_ts:  # re-partitioning replays out of order
            self.written_ts = ts
        self._image = None
        return olds[first:]

    def put(self, writes: Any, ts: int) -> list:
        """Make each ``(key, data)`` write's *data* the key's one version,
        stamped *ts* (TOMBSTONE: drop the key), and return the values
        they replace. This is a free-standing relation's write: no
        snapshot reads an older version, so none is kept. The
        statistics take the writes when next read (:attr:`stats`); once
        more writes wait than the segment has rows, they are rebuilt
        from the chains instead, so waiting writes never outgrow it."""
        chains = self._chains
        olds, news = self._unfolded
        first = len(olds)
        live = self._live
        for key, data in writes:
            chain = chains.get(key)
            old = chain[-1].data if chain else TOMBSTONE
            olds.append(old)
            news.append(data)
            if data is TOMBSTONE:
                if chain is not None:
                    del chains[key]
            else:
                chains[key] = [Version(ts, data)]
            live += (data is not TOMBSTONE) - (old is not TOMBSTONE)
        self._live = live
        self.written_ts = ts
        self._image = None
        replaced = olds[first:]
        if len(olds) > len(chains):
            self._unfolded = ([], [])
            self._stats = None
        return replaced

    # -- maintenance -----------------------------------------------------------------

    def vacuum(self, watermark: int) -> int:
        """Drop versions invisible to every snapshot ≥ *watermark*.

        Keeps, per chain, the newest version at or before the watermark
        plus everything after it; empty chains whose survivor is a
        tombstone disappear entirely. When anything went, the statistics
        are rebuilt from the survivors, so their bounds narrow. Returns
        versions dropped.
        """
        # vacuum drops no live row, so the image stays correct; drop it
        # anyway to free its memory
        self._image = None
        dropped = 0
        for key in list(self._chains):
            chain = self._chains[key]
            stamps = [v.ts for v in chain]
            keep_from = max(0, bisect_right(stamps, watermark) - 1)
            dropped += keep_from
            chain = chain[keep_from:]
            if len(chain) == 1 and chain[0].data is TOMBSTONE:
                dropped += 1
                del self._chains[key]
            else:
                self._chains[key] = chain
        if dropped:
            self._stats = self._rebuilt_stats()
        return dropped

    def version_count(self) -> int:
        """Stored versions, tombstones included."""
        return sum(len(chain) for chain in self._chains.values())

    def __repr__(self) -> str:
        return (
            f"<VersionedTable {self.name!r}: {len(self._chains)} chains, "
            f"{self.version_count()} versions>"
        )


def fold_batch(batch: dict) -> None:
    """Fold each segment's share of one commit, collected by
    :meth:`VersionedTable.apply`, into its statistics."""
    for segment, (olds, news) in batch.items():
        segment.stats.fold(olds, news)
