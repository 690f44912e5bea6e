"""Stored relation functions: the carrier of a database's relations.

A stored relation function is a *view of one engine table through the
caller's snapshot*. Its two carrier primitives (:mod:`repro.fdm.relations`)
are transactional: a read sees the current transaction's start stamp
(its buffered writes first), or the commit clock outside one, held in
the snapshot registry while the read runs, and every
Fig. 10 mutation costume routes through the transaction manager — inside
an explicit transaction if one is active, else in an implicit
per-statement transaction (the Fig. 10 footnote's two modes). Every other
read and write path is :class:`~repro.fdm.relations.RelationFunction`'s.

Stored relationship functions add §3's shared-domain checks on top.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Iterator

from repro._util import TOMBSTONE
from repro.errors import TransactionConflictError
from repro.fdm.relations import RelationFunction
from repro.fdm.relationships import RelationshipSurface
from repro.storage.engine import StorageEngine
from repro.txn.manager import TransactionManager, _NO_WRITE

__all__ = ["StoredRelationFunction", "StoredRelationshipFunction"]


class StoredRelationFunction(RelationFunction):
    """A relation function backed by an MVCC table."""

    def __init__(
        self,
        engine: StorageEngine,
        manager: TransactionManager,
        table_name: str,
        name: str | None = None,
    ):
        super().__init__(name=name or table_name)
        self._engine = engine
        self._manager = manager
        self._table_name = table_name

    # -- the carrier's primitives --------------------------------------------------

    @property
    def table_name(self) -> str:
        return self._table_name

    @property
    def key_name(self) -> str | tuple[str, ...] | None:
        return self.table().key_name

    def table(self) -> Any:
        return self._engine.table(self._table_name)

    def _snapshot(self) -> Any:
        txn = self._manager.current()
        if txn is None:
            return self._manager.snapshot()
        return nullcontext(txn.start_ts)  # registered since begin()

    def _write_rows(self, writes: Any) -> None:
        txn = self._manager.current()
        if txn is None:  # an implicit statement, current while it runs
            with self._manager.autocommit():
                return self._write_rows(writes)
        for key, data in writes:
            txn.write(self._table_name, key, data)

    # -- the open transaction's buffered writes ------------------------------------

    def _raw_read(self, key: Any) -> Any:
        manager = self._manager
        txn = manager.current()
        if txn is None:  # the hot point read: hold and release inline
            ts = manager.hold()
            try:
                return self._engine.table(self._table_name).read(key, ts)
            finally:
                manager.release(ts)
        buffered = txn.get_write(self._table_name, key)
        if buffered is not _NO_WRITE:
            return buffered
        return self.table().read(key, txn.start_ts)

    def keys(self) -> Iterator[Any]:
        txn = self._manager.current()
        if txn is None:
            yield from super().keys()
            return
        buffered = dict(txn.writes.get(self._table_name, ()))
        for key in self.table().keys_at(txn.start_ts):
            if key in buffered:
                continue  # decided by the buffer below
            yield key
        for key, data in buffered.items():
            if data is not TOMBSTONE:
                yield key

    def __len__(self) -> int:
        if self._manager.current() is None:
            return super().__len__()
        return sum(1 for _ in self.keys())

    def _entries(self) -> Iterator[tuple[Any, Any]]:
        if self._manager.current() is None:
            return super()._entries()
        return (
            (key, data)
            for key in self.keys()
            if (data := self._raw_read(key)) is not TOMBSTONE
        )

    def iter_columnar_batches(
        self, batch_size: int = 1024, zone_predicate: Any = None
    ) -> Iterator[Any]:
        """Inside an open transaction the buffered writes make a scan of
        the segments (and both skips) unsound, so the scan falls back to
        the row-batch path."""
        if self._manager.current() is not None:
            yield from self.iter_batches(batch_size)
        else:
            yield from super().iter_columnar_batches(batch_size, zone_predicate)

    def add(self, value: Any) -> Any:
        """Insert under the next integer key; returns it. The key is
        read in the statement that writes it, so a concurrent add that
        takes it first makes this one conflict, never overwrite; an
        implicit statement then retries on the fresh state."""
        while self._manager.current() is None:
            try:
                with self._manager.autocommit():
                    return self.add(value)
            except TransactionConflictError:
                continue
        key = self.next_auto_key()
        self[key] = value
        return key

    # -- index-assisted access (snapshot-rechecked) -----------------------------------------

    def lookup_eq(self, attr: str, value: Any) -> Iterator[Any]:
        """Keys whose *attr* equals *value*, via a secondary index if one
        exists (with snapshot recheck), else by scan."""
        index = self._engine.table(self._table_name).indexes.get(attr)
        if index is None:  # one scan, at one snapshot
            for key, data in self._entries():
                if isinstance(data, dict) and data.get(attr) == value:
                    yield key
            return
        for key in index.lookup(value):
            data = self._raw_read(key)  # recheck under snapshot
            if data is not TOMBSTONE and isinstance(data, dict) and (
                data.get(attr) == value
            ):
                yield key

    def lookup_range(
        self,
        attr: str,
        lo: Any = None,
        hi: Any = None,
        lo_open: bool = False,
        hi_open: bool = False,
    ) -> Iterator[Any]:
        """Keys whose *attr* falls in the range, via a sorted index if one
        exists (with snapshot recheck), else by scan."""
        index = self._engine.table(self._table_name).indexes.get(attr)
        if index is not None and index.kind == "sorted":
            for key in index.range(lo, hi, lo_open=lo_open, hi_open=hi_open):
                data = self._raw_read(key)
                if data is TOMBSTONE or not isinstance(data, dict):
                    continue
                value = data.get(attr)
                if value is None and attr not in data:
                    continue
                if _in_range(value, lo, hi, lo_open, hi_open):
                    yield key
            return
        for key, data in self._entries():
            if not isinstance(data, dict) or attr not in data:
                continue
            if _in_range(data[attr], lo, hi, lo_open, hi_open):
                yield key

    def has_index(self, attr: str, kind: str | None = None) -> bool:
        index = self._engine.table(self._table_name).indexes.get(attr)
        if index is None:
            return False
        return kind is None or index.kind == kind

    def __repr__(self) -> str:
        return f"<StoredRelationF {self._name!r} on {self._table_name!r}>"


def _in_range(value: Any, lo: Any, hi: Any, lo_open: bool, hi_open: bool) -> bool:
    try:
        if lo is not None and (value < lo or (lo_open and value == lo)):
            return False
        if hi is not None and (value > hi or (hi_open and value == hi)):
            return False
        return True
    except TypeError:
        return False


class StoredRelationshipFunction(RelationshipSurface, StoredRelationFunction):
    """A stored, transactional relationship function (§3): the
    participants and shared-domain key check of
    :class:`~repro.fdm.relationships.RelationshipSurface` on top of MVCC
    storage, so foreign-key-style violations abort before buffering."""

    def __init__(
        self,
        engine: StorageEngine,
        manager: TransactionManager,
        table_name: str,
        participants: Any,
        name: str | None = None,
        enforce: bool = True,
    ):
        super().__init__(engine, manager, table_name, name=name)
        self._take_participants(participants, enforce)

    def __setitem__(self, key: Any, value: Any) -> None:
        super().__setitem__(self._checked_key(key), value)

    def related(self, *key: Any) -> bool:
        return self.defined_at(*key)
