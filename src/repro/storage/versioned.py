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
one, a partitioned table one per partition. A segment carries what is
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

__all__ = ["ColumnImage", "Version", "VersionedTable", "TOMBSTONE"]


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
        #: Latest-state counts and accumulate-only bounds, kept in step
        #: by :meth:`apply` and rebuilt by :meth:`vacuum`.
        self.stats = TableStatistics()

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
        for key, chain in list(self._chains.items()):
            newest = chain[-1] if chain else None
            if newest is not None and newest.ts <= ts:
                data = newest.data  # fast path (see read())
            else:
                data = self.read(key, ts)
            if data is not TOMBSTONE:
                yield key

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
        """Live keys at snapshot *ts* (walks the chains)."""
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

    def apply(self, key: Any, data: Any, ts: int) -> None:
        """Append a committed version. Stamps must be monotone per chain."""
        chain = self._chains.setdefault(key, [])
        if chain and chain[-1].ts > ts:
            raise StorageError(
                f"non-monotonic commit stamp {ts} after {chain[-1].ts} on "
                f"{self.name!r}[{key!r}]"
            )
        if ts > self.written_ts:  # re-partitioning replays out of order
            self.written_ts = ts
        self._image = None
        self.stats.on_write(chain[-1].data if chain else TOMBSTONE, data)
        if chain and chain[-1].ts == ts:
            chain[-1] = Version(ts, data)  # same-txn overwrite
        else:
            chain.append(Version(ts, data))

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
            stats = TableStatistics()
            for chain in self._chains.values():
                previous = TOMBSTONE
                for version in chain:
                    stats.on_write(previous, version.data)
                    previous = version.data
            self.stats = stats
        return dropped

    def version_count(self) -> int:
        """Stored versions, tombstones included."""
        return sum(len(chain) for chain in self._chains.values())

    def __repr__(self) -> str:
        return (
            f"<VersionedTable {self.name!r}: {len(self._chains)} chains, "
            f"{self.version_count()} versions>"
        )
