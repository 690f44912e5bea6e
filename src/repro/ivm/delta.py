"""Delta sets: the unit of change flowing through the IVM subsystem.

A :class:`Delta` maps keys of one function's keyspace to ``(old, new)``
value pairs, with :data:`~repro._util.MISSING` marking absence — so an
insert is ``(MISSING, v)``, a delete ``(v, MISSING)``, an update
``(v, v')``. Values are stored as *snapshots* (plain tuple functions or
materialized nested functions), because by the time a lazily-maintained
view consumes a delta the base data has already moved on.

Deltas compose: consecutive commits touching the same key coalesce to
net changes (insert-then-delete vanishes, update chains keep the first
old and last new value).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro._util import MISSING, TOMBSTONE
from repro.fdm.functions import FDMFunction, values_equal
from repro.fdm.tuples import BoundTuple, TupleFunction

__all__ = ["Delta", "snapshot_value"]


def snapshot_value(value: Any) -> Any:
    """Normalize a raw changed value into a stable snapshot.

    A row dict becomes a tuple function that shares it (so predicates
    and transforms see the same shape enumeration yields): it is a
    committed row or a transform's fresh output, and neither is mutated
    in place, so wrapping it copies nothing, checks nothing and cannot
    raise. Live FDM functions are deep copied (the original keeps
    mutating); tombstones map to MISSING.
    """
    if value is MISSING or value is TOMBSTONE:
        return MISSING
    if isinstance(value, dict):
        return TupleFunction.of(value)
    if isinstance(value, FDMFunction):
        from repro.fql.copy import deep_copy

        if isinstance(value, BoundTuple):
            return value.snapshot()
        return deep_copy(value)
    return value


class Delta:
    """Net changes against one function's keyspace, in first-seen order."""

    __slots__ = ("changes", "partition_tags")

    def __init__(self) -> None:
        #: key → (old, new); MISSING marks an absent side.
        self.changes: dict[Any, tuple[Any, Any]] = {}
        #: Partitions this delta's changes touch (DESIGN.md §10), or
        #: ``None`` when the source is untracked. The storage engine
        #: tags every commit delta with the segments it touched;
        #: consumers treat ``None`` as "possibly anywhere".
        self.partition_tags: set[int] | None = None

    def tag_partitions(self, pids: Any) -> None:
        """Mark the partitions these changes live in (engine-side)."""
        if self.partition_tags is None:
            self.partition_tags = set()
        self.partition_tags.update(pids)

    def record(self, key: Any, old: Any, new: Any) -> None:
        """Record one observed change (values are snapshotted here).

        Coalesces with any change already recorded for *key*; a change
        that nets out to no-op (equal old and new) is dropped.
        """
        self.record_snapshotted(
            key, snapshot_value(old), snapshot_value(new)
        )

    def record_snapshotted(self, key: Any, old: Any, new: Any) -> None:
        """Like :meth:`record` for values that are already snapshots."""
        if key in self.changes:
            old = self.changes[key][0]
        if old is MISSING and new is MISSING:
            self.changes.pop(key, None)
            return
        if old is not MISSING and new is not MISSING and values_equal(old, new):
            self.changes.pop(key, None)
            return
        self.changes[key] = (old, new)

    def merge(self, later: "Delta") -> None:
        """Fold a strictly *later* delta into this one (net effect).

        Partition tags union; a tagless side with changes poisons the
        tags (``None`` = "possibly anywhere"), while a fresh empty delta
        adopts the later tags unchanged.
        """
        mine = self.partition_tags
        if mine is None and self.changes:
            mine_unknown = True
        else:
            mine_unknown = False
            mine = set() if mine is None else mine
        theirs = later.partition_tags
        theirs_unknown = theirs is None and bool(later.changes)
        for key, (old, new) in later.changes.items():
            self.record_snapshotted(key, old, new)
        if mine_unknown or theirs_unknown:
            self.partition_tags = None
        else:
            self.partition_tags = mine | (theirs or set())

    # -- views -------------------------------------------------------------------

    def keys(self) -> Iterator[Any]:
        return iter(self.changes)

    def items(self) -> Iterator[tuple[Any, tuple[Any, Any]]]:
        return iter(self.changes.items())

    def classify(self) -> tuple[set, set, set]:
        """``(added, removed, changed)`` key sets — the stale_keys shape."""
        added, removed, changed = set(), set(), set()
        for key, (old, new) in self.changes.items():
            if old is MISSING:
                added.add(key)
            elif new is MISSING:
                removed.add(key)
            else:
                changed.add(key)
        return added, removed, changed

    def __len__(self) -> int:
        return len(self.changes)

    def __bool__(self) -> bool:
        return bool(self.changes)

    def __repr__(self) -> str:
        added, removed, changed = self.classify()
        return (
            f"<Delta +{len(added)} -{len(removed)} ~{len(changed)}>"
        )
