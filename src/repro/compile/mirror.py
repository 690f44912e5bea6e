"""Per-engine relation mirrors backing the SQL offload path.

A mirror is a columnar snapshot of one table inside an embedded SQL
engine (stdlib ``sqlite3``), kept current from the commit log:

* **log-fed** — each table's snapshot is stamped with the commit it
  reflects; a sync reads the engine's retained WAL records since that
  stamp and applies the rows they wrote to this table. What the
  log cannot say is read off the table object itself: a snapshot
  remembers the object it was built from, so a re-shard, a drop and
  re-create or a replica snapshot install (each a new object) force a
  whole-table rebuild — as does a suffix record that changes the
  table's schema, or a log that no longer reaches back to the stamp.
* **presence-aware** — every attribute gets a data column *and* a
  presence column, because FDM distinguishes a tuple that defines
  ``bonus = None`` from one that does not define ``bonus`` at all,
  while SQL has only NULL.
* **profiled** — while syncing, each column accumulates a hostility
  profile (None/NaN/bools/mixed types/ints beyond 2^53/non-scalars).
  The compiler consults the profiles and declines exactly the
  operations whose SQL semantics would diverge from Python's. Between
  rebuilds profiles only widen.

Rows are stored under an ``ord`` column: a rebuild numbers the live
rows in ``scan_at`` order, a delete drops its key's number and an
insert of a key without one takes the next, so ``ord`` order is the
store's enumeration order (a key sits where it was first inserted
since it was last absent, DESIGN.md §4) and so the relation's naive
one. Offloaded queries return ``ord`` values and the decoder re-reads
the surviving rows from the table at the sync snapshot, which the
caller holds registered (late materialization), so result *objects*
are exactly what the interpreted paths produce.
"""

from __future__ import annotations

import math
import sqlite3
import threading
import weakref
from itertools import chain, repeat
from operator import itemgetter
from typing import Any

from repro._util import attached

__all__ = [
    "ColumnProfile",
    "TableMirror",
    "EngineMirror",
    "OffloadCounters",
    "mirror_for",
    "stats_for",
]

#: SQLite INTEGERs are signed 64-bit; anything at or past 2^63 cannot
#: even be bound as a parameter.
_INT64_LIMIT = 2**63

#: Past 2^53, int arithmetic inside the SQL engine (SUM) risks drifting
#: from Python's arbitrary-precision ints, so Sum/Avg decline.
_EXACT_INT_LIMIT = 2**53

#: A timestamp later than any real commit stamp (storage idiom).
_LATEST = 2**62


#: The embedded engine behind every mirror (``stats()["offload"]["backend"]``).
BACKEND = "sqlite"


#: Covering indexes per mirrored table (DESIGN.md §14). On a 120 000-row,
#: five-attribute table each one is a sort when first read (60–140 ms),
#: ~2.3 MB, and ~6 µs more per mirrored row: four keep a one-row sync
#: within 1.4× of an unindexed one (60 → 81 µs).
MAX_INDEXES = 4

#: Fills a column slot whose row lacks the attribute.
_ABSENT = type("_Absent", (), {})()

#: What :meth:`ColumnProfile.observe_column` profiles a column at a time.
_SCALARS = {type(None), bool, int, float, str}


class ColumnProfile:
    """Hostility facts about one mirrored attribute.

    Accumulated during sync; consulted by the compiler to decide which
    operations keep exact Python semantics when pushed into SQL.
    """

    __slots__ = (
        "has_missing",
        "has_none",
        "has_nan",
        "has_bool",
        "has_int",
        "has_big_int",
        "has_float",
        "has_text",
        "has_other",
    )

    def __init__(self) -> None:
        for flag in self.__slots__:
            setattr(self, flag, False)

    # -- capability verdicts -----------------------------------------------------

    @property
    def storable(self) -> bool:
        """All present values round-trip through the SQL engine."""
        return not self.has_other

    @property
    def numeric_only(self) -> bool:
        """Every present, non-None value is int/float/bool (no NaN)."""
        return not (
            self.has_text or self.has_none or self.has_nan or self.has_other
        )

    @property
    def text_only(self) -> bool:
        """Every present, non-None value is a string."""
        return self.has_text and not (
            self.has_none
            or self.has_nan
            or self.has_bool
            or self.has_int
            or self.has_float
            or self.has_other
        )

    @property
    def allows_order(self) -> bool:
        """ORDER BY on this column matches ``_SortKey`` semantics.

        Missing values are fine (the rank expression segregates them
        exactly as the Python sort does); None/NaN/mixed families are
        not — their ``_SortKey`` fallback compares by type name, which
        no SQL collation reproduces.
        """
        return self.storable and (self.numeric_only or self.text_only)

    @property
    def allows_minmax(self) -> bool:
        """SQL MIN/MAX returns the very object Python's fold would.

        Bools decline (SQL would return ``1`` where Python preserves
        ``True``) and int/float mixes decline (a ``1`` vs ``1.0`` tie
        may resolve to either representation in SQL, while Python's
        strict-inequality fold keeps the first seen).
        """
        if not (self.storable and (self.numeric_only or self.text_only)):
            return False
        if self.has_bool:
            return False
        return not (self.has_int and self.has_float)

    @property
    def allows_sum(self) -> bool:
        """SQL SUM folds to the bit-identical Python total.

        Requires pure numerics in enumeration order (a grouped statement
        reads an index keyed ``ord`` right after the group columns, any
        other reads the table in ``ord`` order, so float accumulation
        order matches the Python fold) with ints small
        enough that 64-bit engine arithmetic stays exact. Since 3.43
        SQLite sums floats with Kahan–Babuška–Neumaier compensation,
        which is not Python's left fold (ten ``0.1`` sum to ``1.0``, not
        ``0.9999999999999999``), so float columns decline there.
        """
        if self.has_float and sqlite3.sqlite_version_info >= (3, 43, 0):
            return False
        return self.numeric_only and not self.has_big_int

    @property
    def allows_group(self) -> bool:
        """GROUP BY partitions rows exactly like Python dict keys.

        NaN declines: stored as NULL it would collapse with None, and
        Python groups NaN by object identity anyway.
        """
        return self.storable and not self.has_nan

    def signature(self) -> tuple:
        """Hashable capability snapshot, for compiled-plan staleness."""
        return tuple(getattr(self, flag) for flag in self.__slots__)

    def observe(self, value: Any) -> tuple[Any, int]:
        """Profile one present value; returns ``(sql_value, presence)``."""
        if value is None:
            self.has_none = True
            return None, 1
        if isinstance(value, bool):
            self.has_bool = True
            return value, 1
        if isinstance(value, int):
            if abs(value) >= _INT64_LIMIT:
                self.has_other = True
                return None, 1
            self.has_int = True
            if abs(value) > _EXACT_INT_LIMIT:
                self.has_big_int = True
            return value, 1
        if isinstance(value, float):
            if math.isnan(value):
                self.has_nan = True
                return None, 1
            self.has_float = True
            return value, 1
        if isinstance(value, str):
            self.has_text = True
            return value, 1
        self.has_other = True
        return None, 1

    def observe_column(self, values: list) -> tuple[Any, Any]:
        """Profile a column (``_ABSENT`` where a row lacks the attribute)
        to the flags folding :meth:`observe` over it sets, read off its
        type set, int extremes and float NaNs; returns its data and
        presence columns. Other types, ints SQL cannot bind and NaNs
        are observed value by value."""
        kinds = set(map(type, values))
        absent = type(_ABSENT) in kinds
        kinds.discard(type(_ABSENT))
        self.has_missing |= absent
        ints = [v for v in values if v.__class__ is int] if int in kinds else []
        low, high = (min(ints), max(ints)) if ints else (0, 0)
        floats = [v for v in values if v.__class__ is float] if float in kinds else []
        if (
            kinds <= _SCALARS
            and -_INT64_LIMIT < low
            and high < _INT64_LIMIT
            and not any(map(math.isnan, floats))
        ):
            self.has_none |= type(None) in kinds
            self.has_bool |= bool in kinds
            self.has_int |= bool(ints)
            self.has_big_int |= low < -_EXACT_INT_LIMIT or high > _EXACT_INT_LIMIT
            self.has_float |= bool(floats)
            self.has_text |= str in kinds
            if not absent:
                return values, repeat(1)
            return (
                [None if v is _ABSENT else v for v in values],
                [int(v is not _ABSENT) for v in values],
            )
        pairs = [(None, 0) if v is _ABSENT else self.observe(v) for v in values]
        return [p[0] for p in pairs], [p[1] for p in pairs]


class TableMirror:
    """One table's synced snapshot inside the embedded engine."""

    def __init__(self, sql_name: str):
        self.sql_name = sql_name
        #: attribute → data-column index (``c<i>`` / ``p<i>``).
        self.columns: dict[str, int] = {}
        self.profiles: dict[str, ColumnProfile] = {}
        #: ``ord`` → mapping key. Between rebuilds entries are only ever
        #: appended, so a list captured under the lock stays valid.
        self.keys: list[Any] = []
        #: live mapping key → ``ord`` (a deleted key's entry in
        #: :attr:`keys` stays, unreferenced).
        self.ords: dict[Any, int] = {}
        #: The table object the last rebuild scanned (a weakref);
        #: ``None`` forces the next rebuild.
        self.source: weakref.ref | None = None
        self.synced_ts: int = 0
        #: False when any row holds a non-tuple value (nested function).
        self.mirrorable = True
        #: Names of the indexes built on the SQL table since its rebuild.
        self.indexes: set[str] = set()

    def signature(self) -> tuple:
        """Capability snapshot and number of every column (compile
        staleness key: a rebuild may number the columns anew)."""
        return tuple(
            sorted(
                (attr, idx, self.profiles[attr].signature())
                for attr, idx in self.columns.items()
            )
        )

    def column(self, attr: str) -> int | None:
        """The data-column index for *attr*, or ``None`` if absent."""
        return self.columns.get(attr)

    def index_for(self, key: tuple[str, ...]) -> str | None:
        """The name of the index on *key* columns if it is built or
        :data:`MAX_INDEXES` leaves room for it, else ``None``."""
        name = f"{self.sql_name}_{'_'.join(key)}"
        if name in self.indexes or len(self.indexes) < MAX_INDEXES:
            return name
        return None


class OffloadCounters:
    """The ``db.stats()["offload"]`` counters for one engine."""

    def __init__(self) -> None:
        self.queries_offloaded = 0
        #: syncs that wrote something (a rebuild or a non-empty delta)
        self.mirror_syncs = 0
        #: of which whole-table rebuilds
        self.mirror_rebuilds = 0
        #: rows written to (or deleted from) the SQL tables
        self.rows_mirrored = 0
        #: covering indexes created for grouped and selective row statements
        self.indexes_built = 0
        self.fallbacks = 0
        self.fallback_reasons: dict[str, int] = {}

    def note_fallback(self, reason: str) -> None:
        """Count one decline/fallback under its reason bucket."""
        self.fallbacks += 1
        self.fallback_reasons[reason] = (
            self.fallback_reasons.get(reason, 0) + 1
        )

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view for ``db.stats()`` / the STATS verb."""
        return {
            "backend": BACKEND,
            **vars(self),
            "fallback_reasons": dict(self.fallback_reasons),
        }


class EngineMirror:
    """All of one storage engine's table mirrors plus their connection.

    One embedded-engine connection per storage engine, guarded by an
    RLock: offloaded queries are executed eagerly (fetchall before the
    first yield), so the lock is held only for the SQL round trip, and
    concurrent server sessions serialize on it exactly as they do on
    the plan cache.
    """

    def __init__(self, engine: Any):
        self.engine = engine
        self.lock = threading.RLock()
        self.backend = BACKEND
        self.counters = OffloadCounters()
        self._conn: Any = None
        self._tables: dict[str, TableMirror] = {}
        self._closed = False

    def connection(self) -> Any:
        """The lazily-opened embedded connection (callers hold the lock)."""
        if self._conn is None:
            # shared across sessions, serialized by :attr:`lock`;
            # autocommit, so each sync spells out its own transaction
            self._conn = sqlite3.connect(
                ":memory:", check_same_thread=False, isolation_level=None
            )
        return self._conn

    def pending(self, table_name: str, ts: int) -> list | None:
        """The logged commits in ``(synced_ts, ts]`` that write
        *table_name* — what a delta sync would apply — or ``None`` when
        only a rebuild can bring the mirror to *ts*."""
        mirror = self._tables.get(table_name)
        table = self.engine.tables.get(table_name)
        if (
            mirror is None
            or table is None
            or mirror.source is None
            or mirror.source() is not table
        ):
            return None
        records = self.engine.wal.records_since(mirror.synced_ts)
        if records is None:  # the stamp is below the WAL floor
            return None
        out = []
        for record in records:
            if record.commit_ts > ts:
                break
            if record.schemas and table_name in record.schemas:
                return None
            if table_name in record.writes:
                out.append(record)
        if out and (
            not mirror.mirrorable
            # a write may move a key, or put a new one mid-enumeration
            or not table.scheme.appends_in_order
        ):
            return None
        return out

    def is_fresh(self, table_name: str) -> bool:
        """True when no rebuild is due and no retained logged commit
        newer than the snapshot writes *table_name*."""
        return self.pending(table_name, _LATEST) == []

    def ensure_synced(self, table_name: str, ts: int) -> TableMirror:
        """The mirror for *table_name* brought forward to *ts*.

        *ts* is the commit stamp the caller's (transaction-free) read
        uses, registered by the caller until it has decoded what it
        read. The rows logged since the mirror's stamp are applied; a
        rebuild captures ``scan_at(ts)`` whole when :meth:`pending`
        says the log cannot. A newer stamp whose commits never touched
        this table is adopted as is. Callers must hold :attr:`lock`.
        """
        table = self.engine.table(table_name)
        mirror = self._tables.get(table_name)
        if mirror is None:
            mirror = TableMirror(sql_name=f"m{len(self._tables)}")
            self._tables[table_name] = mirror
        records = self.pending(table_name, ts)
        if records is None:
            self._transact(mirror, self._rebuild, table, ts)
            self.counters.mirror_rebuilds += 1
            mirror.source = weakref.ref(table)
            mirror.synced_ts = ts
            return mirror
        if records:
            blocks = [record.writes[table_name] for record in records]
            self._transact(mirror, self._patch, table, blocks, ts)
        mirror.synced_ts = max(mirror.synced_ts, ts)
        return mirror

    def execute(self, mirror: TableMirror, compiled: Any) -> list:
        """*compiled*'s rows over *mirror*, building the index it reads
        ``INDEXED BY`` on first use. Callers hold :attr:`lock`."""
        conn = self.connection()
        if compiled.index is not None and compiled.index[0] not in mirror.indexes:
            name, key = compiled.index
            conn.execute(
                f'CREATE INDEX IF NOT EXISTS "{name}" '
                f'ON "{mirror.sql_name}" ({", ".join(key)})'
            )
            mirror.indexes.add(name)
            self.counters.indexes_built += 1
        return conn.execute(compiled.sql, compiled.params).fetchall()

    def _transact(self, mirror: TableMirror, write: Any, *args: Any) -> None:
        """Run *write* as one SQL transaction, counting what it wrote.

        On any error the transaction rolls back whole and the mirror
        is marked for a rebuild: its Python side (keys, columns,
        profiles) may have moved past the SQL table it describes.
        """
        conn = self.connection()
        conn.execute("BEGIN")
        try:
            rows = write(conn, mirror, *args)
            conn.execute("COMMIT")
        except BaseException:
            mirror.source = None
            try:
                conn.execute("ROLLBACK")
            except Exception:
                pass
            raise
        self.counters.mirror_syncs += 1
        self.counters.rows_mirrored += rows

    def _rebuild(
        self, conn: Any, mirror: TableMirror, table: Any, ts: int
    ) -> int:
        keys: list = []
        rows: list = []
        for key, data in table.scan_at(ts):
            keys.append(key)
            rows.append(data)
        # fresh containers: a concurrent decoder keeps the list it captured
        mirror.keys = keys
        ords = list(range(len(keys)))
        mirror.ords = dict(zip(keys, ords))
        mirror.columns = {}
        mirror.profiles = {}
        mirror.mirrorable = True
        mirror.indexes = set()  # dropped with the table: rebuilt on use
        conn.execute(f'DROP TABLE IF EXISTS "{mirror.sql_name}"')
        conn.execute(f'CREATE TABLE "{mirror.sql_name}" (ord INTEGER PRIMARY KEY)')
        return self._apply(conn, mirror, ords, rows)

    def _patch(
        self, conn: Any, mirror: TableMirror, table: Any, blocks: list, ts: int
    ) -> int:
        """Apply logged *blocks* in commit order, as the store did: a
        delete drops its key's ``ord``, and a key without one takes the
        next, so a re-inserted key enumerates last. Each key written and
        live at the end is re-read at *ts*."""
        ords, gone, written = mirror.ords, [], {}
        for block in blocks:
            for key in block.deleted:
                written.pop(key, None)
                if key in ords:
                    gone.append(ords.pop(key))
            for key in block.keys:
                written[key] = None
                if key not in ords:
                    ords[key] = len(mirror.keys)
                    mirror.keys.append(key)
        conn.executemany(
            f'DELETE FROM "{mirror.sql_name}" WHERE ord = ?',
            [(o,) for o in gone],
        )
        rows = [table.read(key, ts) for key in written]
        return len(gone) + self._apply(conn, mirror, [ords[k] for k in written], rows)

    def _apply(
        self, conn: Any, mirror: TableMirror, ords: list, rows: list
    ) -> int:
        """Write ``rows[i]`` under ``ords[i]``, a column at a time: each
        attribute is profiled once and the rows stream into SQL as a
        lazy ``zip`` of their columns."""
        if not all(issubclass(kind, dict) for kind in set(map(type, rows))):
            # a nested function: offload declines until a write to the
            # table lets a rebuild look again (see :meth:`pending`)
            mirror.mirrorable = False
            return 0
        name = mirror.sql_name
        new_attrs = [
            attr
            for attr in dict.fromkeys(chain.from_iterable(rows))
            if attr not in mirror.columns
        ]
        if new_attrs:  # rows already in the table lack them
            (had_rows,) = conn.execute(
                f'SELECT EXISTS (SELECT 1 FROM "{name}")'
            ).fetchone()
        for attr in new_attrs:
            idx = mirror.columns[attr] = len(mirror.columns)
            mirror.profiles[attr] = ColumnProfile()
            mirror.profiles[attr].has_missing = bool(had_rows)
            conn.execute(f'ALTER TABLE "{name}" ADD COLUMN c{idx}')
            conn.execute(f'ALTER TABLE "{name}" ADD COLUMN p{idx} DEFAULT 0')
        if rows:
            columns: list = []
            for attr in mirror.columns:
                try:
                    values = list(map(itemgetter(attr), rows))
                except KeyError:
                    values = [row.get(attr, _ABSENT) for row in rows]
                columns.extend(mirror.profiles[attr].observe_column(values))
            placeholders = ", ".join("?" * (1 + len(columns)))
            conn.executemany(
                f'INSERT OR REPLACE INTO "{name}" VALUES ({placeholders})',
                zip(ords, *columns),
            )
        return len(rows)

    def close(self) -> None:
        """Release the embedded connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._conn is not None:
            try:
                self._conn.close()
            except Exception:
                pass
            self._conn = None
        self._tables.clear()

    def __repr__(self) -> str:
        return (
            f"<EngineMirror {self.backend}: {len(self._tables)} tables, "
            f"{self.counters.mirror_syncs} syncs>"
        )


def mirror_for(engine: Any) -> EngineMirror:
    """The lazily-created :class:`EngineMirror` attached to *engine*."""
    return attached(engine, "offload_mirror", lambda: EngineMirror(engine))


def stats_for(engine: Any) -> dict[str, Any]:
    """Offload counters for *engine* (zeros when nothing offloaded yet)."""
    mirror = getattr(engine, "offload_mirror", None)
    if mirror is None:
        return OffloadCounters().snapshot()
    return mirror.counters.snapshot()
