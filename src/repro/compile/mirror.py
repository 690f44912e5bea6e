"""Per-engine relation mirrors backing the SQL offload path.

A mirror is a columnar snapshot of one table inside an embedded SQL
engine (stdlib ``sqlite3``), kept current from the commit log:

* **log-fed** — each table's snapshot is stamped with the commit it
  reflects; a sync reads the engine's retained WAL records since that
  stamp and applies the rows they wrote to this table. What the
  log cannot say is read off the table object itself: a snapshot
  remembers the object it was built from and that object's vacuum
  count, so a re-shard, a drop and re-create or a replica snapshot
  install (each a new object) and a vacuum that dropped versions all
  force a whole-table rebuild — as does a suffix record that changes
  the table's schema, or a log that no longer reaches back to the
  stamp.
* **presence-aware** — every attribute gets a data column *and* a
  presence column, because FDM distinguishes a tuple that defines
  ``bonus = None`` from one that does not define ``bonus`` at all,
  while SQL has only NULL.
* **profiled** — while syncing, each column accumulates a hostility
  profile (None/NaN/bools/mixed types/ints beyond 2^53/non-scalars).
  The compiler consults the profiles and declines exactly the
  operations whose SQL semantics would diverge from Python's. Between
  rebuilds profiles only widen.

Rows are stored under an ``ord`` column: a rebuild numbers every
version chain in chain order (which is ``scan_at`` order) and a key
first written later takes the next number, so ``ord`` order is the
relation's naive enumeration order. Offloaded queries return ``ord``
values and the decoder re-reads the surviving rows from the versioned
table at the sync snapshot (late materialization), so result
*objects* are exactly what the interpreted paths produce.
"""

from __future__ import annotations

import math
import sqlite3
import threading
import weakref
from itertools import chain, repeat
from operator import itemgetter
from typing import Any

from repro._util import TOMBSTONE, attached

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
        self.has_missing = False
        self.has_none = False
        self.has_nan = False
        self.has_bool = False
        self.has_int = False
        self.has_big_int = False
        self.has_float = False
        self.has_text = False
        self.has_other = False

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

        Requires pure numerics in enumeration order (the mirror has no
        indexes, so the engine scans in ``ord`` order and float
        accumulation order matches the Python fold) with ints small
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
        return (
            self.has_missing,
            self.has_none,
            self.has_nan,
            self.has_bool,
            self.has_int,
            self.has_big_int,
            self.has_float,
            self.has_text,
            self.has_other,
        )

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
        #: mapping key → ``ord`` (the inverse of :attr:`keys`).
        self.ords: dict[Any, int] = {}
        #: The table object the last rebuild scanned (a weakref) and its
        #: vacuum count then; ``None`` forces the next rebuild.
        self.source: weakref.ref | None = None
        self.source_vacuums = 0
        self.synced_ts: int = 0
        #: False when any row holds a non-tuple value (nested function).
        self.mirrorable = True

    def signature(self) -> tuple:
        """Capability snapshot of every column (compile staleness key)."""
        return tuple(
            sorted(
                (attr, self.profiles[attr].signature())
                for attr in self.columns
            )
        )

    def column(self, attr: str) -> int | None:
        """The data-column index for *attr*, or ``None`` if absent."""
        return self.columns.get(attr)


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
            "queries_offloaded": self.queries_offloaded,
            "mirror_syncs": self.mirror_syncs,
            "mirror_rebuilds": self.mirror_rebuilds,
            "rows_mirrored": self.rows_mirrored,
            "fallbacks": self.fallbacks,
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
            or mirror.source_vacuums != table.vacuums
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
            if any(name == table_name for name, _k, _d in record.writes):
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
        would use. The rows logged since the mirror's stamp are
        applied; a rebuild captures ``scan_at(ts)`` whole
        when :meth:`pending` says the log cannot. A newer stamp whose
        commits never touched this table is adopted as is. Callers
        must hold :attr:`lock`.
        """
        table = self.engine.table(table_name)
        vacuums = table.vacuums  # read before the rebuild scans
        mirror = self._tables.get(table_name)
        if mirror is None:
            mirror = TableMirror(sql_name=f"m{len(self._tables)}")
            self._tables[table_name] = mirror
        records = self.pending(table_name, ts)
        if records is None:
            self._transact(mirror, self._rebuild, table, ts)
            self.counters.mirror_rebuilds += 1
            mirror.source = weakref.ref(table)
            mirror.source_vacuums = vacuums
            mirror.synced_ts = ts
            return mirror
        if records:
            keys = list(dict.fromkeys(  # first-written first, like the chains
                key
                for record in records
                for name, key, _data in record.writes
                if name == table_name
            ))
            rows = [table.read(key, ts) for key in keys]
            self._transact(mirror, self._apply, keys, rows)
        mirror.synced_ts = max(mirror.synced_ts, ts)
        return mirror

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
        # every chain, dead ones included, segment by segment in chain
        # (= scan_at) order: a key keeps its ord while its chain exists,
        # so a reinserted key lands back where naive enumeration puts
        # it; a key moved between segments takes its live chain's ord
        keys: list = []
        ords: dict = {}
        live: list = []
        rows: list = []
        for segment in table.segments:
            for key in list(segment._chains):
                data = segment.read(key, ts)
                if data is not TOMBSTONE:
                    live.append(key)
                    rows.append(data)
                elif key in ords:
                    continue
                ords[key] = len(keys)
                keys.append(key)
        # fresh containers: a concurrent decoder keeps the list it captured
        mirror.keys = keys
        mirror.ords = ords
        mirror.columns = {}
        mirror.profiles = {}
        mirror.mirrorable = True
        conn.execute(f'DROP TABLE IF EXISTS "{mirror.sql_name}"')
        conn.execute(f'CREATE TABLE "{mirror.sql_name}" (ord INTEGER PRIMARY KEY)')
        return self._apply(conn, mirror, live, rows)

    def _apply(
        self, conn: Any, mirror: TableMirror, keys: list, rows: list
    ) -> int:
        """Write ``rows[i]`` under ``keys[i]`` (a tombstone deletes),
        a column at a time: each attribute is profiled once and the
        rows stream into SQL as a lazy ``zip`` of their columns."""
        kinds = set(map(type, rows))
        if not all(k is type(TOMBSTONE) or issubclass(k, dict) for k in kinds):
            # a nested function: offload declines until a write to the
            # table lets a rebuild look again (see :meth:`pending`)
            mirror.mirrorable = False
            return 0
        name = mirror.sql_name
        known = mirror.ords
        for key in keys:
            if key not in known:  # a new chain enumerates after every other
                known[key] = len(mirror.keys)
                mirror.keys.append(key)
        ords = list(map(known.__getitem__, keys))
        if type(TOMBSTONE) in kinds:
            conn.executemany(
                f'DELETE FROM "{name}" WHERE ord = ?',
                [(o,) for o, data in zip(ords, rows) if data is TOMBSTONE],
            )
            ords = [o for o, data in zip(ords, rows) if data is not TOMBSTONE]
            rows = [data for data in rows if data is not TOMBSTONE]
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
        return len(keys)

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
