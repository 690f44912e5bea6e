"""Stored relation functions: the transactional twin of
:class:`repro.fdm.relations.MaterialRelationFunction`.

A stored relation function is a *view of one table through the caller's
snapshot*: reads resolve against the current transaction (its buffered
writes first, then the snapshot), and every Fig. 10 mutation costume routes
through the transaction manager — inside an explicit transaction if one is
active, else in an implicit per-statement transaction (the Fig. 10
footnote's two modes).

Stored relationship functions add §3's shared-domain checks on top.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro._util import TOMBSTONE, normalize_key
from repro.errors import (
    ConstraintViolationError,
    DuplicateKeyError,
    SchemaError,
    TransactionConflictError,
    UndefinedInputError,
)
from repro.fdm.domains import Domain, PredicateDomain
from repro.fdm.functions import FDMFunction
from repro.fdm.relations import RelationFunction
from repro.fdm.relationships import Participant
from repro.fdm.tuples import BoundTuple, TupleFunction
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

    # -- plumbing ---------------------------------------------------------------

    @property
    def table_name(self) -> str:
        return self._table_name

    @property
    def key_name(self) -> str | tuple[str, ...] | None:
        return self._engine.table(self._table_name).key_name

    def _raw_read(self, key: Any) -> Any:
        """Row dict, nested function, or TOMBSTONE — txn buffer first."""
        txn = self._manager.current()
        if txn is not None:
            buffered = txn.get_write(self._table_name, key)
            if buffered is not _NO_WRITE:
                return buffered
            ts = txn.start_ts
        else:
            ts = self._manager.now()
        return self._engine.table(self._table_name).read(key, ts)

    # -- FDM function interface ------------------------------------------------------

    @property
    def domain(self) -> Domain:
        return PredicateDomain(
            lambda k: self._raw_read(k) is not TOMBSTONE,
            f"keys of {self._table_name!r}",
        )

    @property
    def is_enumerable(self) -> bool:
        return True

    def _apply(self, key: Any) -> Any:
        data = self._raw_read(key)
        if data is TOMBSTONE:
            raise UndefinedInputError(self._name, key)
        if isinstance(data, dict):
            return BoundTuple(self, key)
        return data  # nested FDM function stored directly

    def defined_at(self, *args: Any) -> bool:
        if not args:
            return False
        key = normalize_key(args[0] if len(args) == 1 else tuple(args))
        return self._raw_read(key) is not TOMBSTONE

    def keys(self) -> Iterator[Any]:
        txn = self._manager.current()
        table = self._engine.table(self._table_name)
        if txn is None:
            yield from table.keys_at(self._manager.now())
            return
        buffered = dict(txn.written_keys(self._table_name))
        for key in table.keys_at(txn.start_ts):
            if key in buffered:
                continue  # decided by the buffer below
            yield key
        for key, data in buffered.items():
            if data is not TOMBSTONE:
                yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def iter_batches(self, batch_size: int = 256) -> Iterator[list]:
        """Chunked snapshot enumeration feeding the physical executor.

        Each entry's row is resolved once under the caller's snapshot
        (buffered transaction writes first), so downstream batch
        operators are fed without a per-tuple read through the full
        transaction/version stack.
        """
        from repro._util import chunked

        def entries() -> Iterator[tuple[Any, Any]]:
            for key in self.keys():
                data = self._raw_read(key)
                if data is TOMBSTONE:  # deleted between keys() and read
                    raise UndefinedInputError(self._name, key)
                yield key, (
                    BoundTuple(self, key) if isinstance(data, dict) else data
                )

        return chunked(entries(), batch_size)

    def iter_columnar_batches(
        self, batch_size: int = 1024, zone_predicate: Any = None
    ) -> Iterator[Any]:
        """Columnar snapshot enumeration with segment skipping.

        Serves each segment's column image segment by segment (the
        table's enumeration order), scanning the version chains into a
        new one when the cached image does not serve the snapshot; a
        snapshot older than the segment's newest write, or a segment
        holding a nested function, walks the chains uncached. Only the
        segments *zone_predicate* reaches are read
        (:func:`~repro.partition.prune.surviving_partitions`); each of
        those whose own statistics rule the predicate out is skipped
        and counted as a zone skip. Inside an open transaction the
        buffered writes make chain-direct scanning (and both skips)
        unsound, so the scan falls back to the row-batch path.
        """
        txn = self._manager.current()
        if txn is not None:
            yield from self.iter_batches(batch_size)
            return

        from repro.exec.batch import entry_batches, image_batches
        from repro.obs.resources import active_meter
        from repro.partition.prune import surviving_partitions
        from repro.storage.stats import zone_may_match

        ts = self._manager.now()
        table = self._engine.table(self._table_name)
        reach = surviving_partitions(table.scheme, zone_predicate)
        name = self._name
        for pid, segment in enumerate(table.segments):
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

    # -- BoundTuple write-through protocol ----------------------------------------------

    def _read_data(self, key: Any) -> Mapping[str, Any]:
        data = self._raw_read(key)
        if data is TOMBSTONE:
            raise UndefinedInputError(self._name, key)
        if not isinstance(data, dict):
            raise SchemaError(
                f"{self._name!r}[{key!r}] holds a nested function, not a "
                "tuple"
            )
        return data

    def _write_row(self, key: Any, data: Any) -> None:
        txn = self._manager.current()
        if txn is not None:
            txn.write(self._table_name, key, data)
        else:
            with self._manager.autocommit() as statement:
                statement.write(self._table_name, key, data)

    def _write_attr(self, key: Any, attr: str, value: Any) -> None:
        data = dict(self._read_data(key))
        data[attr] = value
        self._write_row(key, data)

    def _delete_attr(self, key: Any, attr: str) -> None:
        data = dict(self._read_data(key))
        if attr not in data:
            raise UndefinedInputError(f"{self._name}[{key!r}]", attr)
        del data[attr]
        self._write_row(key, data)

    # -- Fig. 10 costumes ---------------------------------------------------------------

    def _coerce_row(self, value: Any) -> Any:
        if isinstance(value, BoundTuple):
            value = value.snapshot()
        if isinstance(value, TupleFunction):
            return dict(value.items())
        if isinstance(value, Mapping):
            return dict(value)
        if isinstance(value, FDMFunction):
            return value
        raise SchemaError(
            f"cannot store {value!r} in stored relation {self._name!r}; "
            "provide a mapping or an FDM function"
        )

    def __setitem__(self, key: Any, value: Any) -> None:
        self._write_row(normalize_key(key), self._coerce_row(value))

    def __delitem__(self, key: Any) -> None:
        key = normalize_key(key)
        if self._raw_read(key) is TOMBSTONE:
            raise UndefinedInputError(self._name, key)
        txn = self._manager.current()
        if txn is not None:
            txn.delete(self._table_name, key)
        else:
            with self._manager.autocommit() as statement:
                statement.delete(self._table_name, key)

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

    def next_auto_key(self) -> int:
        int_keys = [
            k
            for k in self.keys()
            if isinstance(k, int) and not isinstance(k, bool)
        ]
        return (max(int_keys) + 1) if int_keys else 1

    def insert(self, key: Any, value: Any) -> None:
        key = normalize_key(key)
        if self.defined_at(key):
            raise DuplicateKeyError(self._name, key)
        self[key] = value

    # -- index-assisted access (snapshot-rechecked) -----------------------------------------

    def lookup_eq(self, attr: str, value: Any) -> Iterator[Any]:
        """Keys whose *attr* equals *value*, via a secondary index if one
        exists (with snapshot recheck), else by scan."""
        index = self._engine.table(self._table_name).indexes.get(attr)
        if index is None:
            for key in self.keys():
                data = self._raw_read(key)
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
        for key in self.keys():
            data = self._raw_read(key)
            if not isinstance(data, dict) or attr not in data:
                continue
            if _in_range(data[attr], lo, hi, lo_open, hi_open):
                yield key

    def has_index(self, attr: str, kind: str | None = None) -> bool:
        index = self._engine.table(self._table_name).indexes.get(attr)
        if index is None:
            return False
        return kind is None or index.kind == kind

    def statistics(self) -> Any:
        """The table's :class:`~repro.storage.stats.TableStatistics`."""
        return self._engine.table(self._table_name).stats

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


class StoredRelationshipFunction(StoredRelationFunction):
    """A stored, transactional relationship function (§3).

    Adds the shared-domain key checks of
    :class:`repro.fdm.relationships.RelationshipFunction` on top of MVCC
    storage, so foreign-key-style violations abort before buffering.
    """

    kind = "relationship"

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
        if isinstance(participants, Mapping):
            participants = list(participants.items())
        self._participants = tuple(
            p if isinstance(p, Participant) else Participant(*p)
            for p in participants
        )
        self._enforce = enforce

    @property
    def participants(self) -> tuple[Participant, ...]:
        return self._participants

    @property
    def arity(self) -> int:
        return len(self._participants)

    def param_names(self) -> tuple[str, ...]:
        return tuple(p.param for p in self._participants)

    def _normalize_rel_key(self, key: Any) -> tuple:
        if self.arity == 1:
            return (key,)
        if not isinstance(key, tuple) or len(key) != self.arity:
            raise ConstraintViolationError(
                f"relationship {self._name!r} expects {self.arity} inputs, "
                f"got {key!r}"
            )
        return key

    def __setitem__(self, key: Any, value: Any) -> None:
        components = self._normalize_rel_key(normalize_key(key))
        if self._enforce:
            for part, component in zip(self._participants, components):
                if not part.domain.contains(component):
                    raise ConstraintViolationError(
                        f"{self._name!r}: input {component!r} for "
                        f"{part.param!r} is outside the shared domain of "
                        f"{part!r}"
                    )
        super().__setitem__(key, value)

    def related(self, *key: Any) -> bool:
        k = key[0] if len(key) == 1 else tuple(key)
        return self.defined_at(normalize_key(k))

    def partners_of(self, param: str, value: Any) -> Iterator[tuple]:
        names = self.param_names()
        index = names.index(param)
        for key in self.keys():
            components = key if isinstance(key, tuple) else (key,)
            if components[index] == value:
                yield components
