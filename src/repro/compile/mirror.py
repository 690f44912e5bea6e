"""Per-engine relation mirrors backing the SQL offload path.

A mirror is a columnar snapshot of one table inside an embedded SQL
engine (stdlib ``sqlite3``), kept fresh off the commit clock:

* **version-keyed** — each table's snapshot records the engine's
  ``mirror_epochs`` token it was built from; DML, WAL replay, replica
  apply, re-sharding, and rollback all bump the token (the same
  funnels that invalidate the plan cache), so a stale mirror is never
  read — it is rebuilt lazily on the next offloaded query instead.
* **presence-aware** — every attribute gets a data column *and* a
  presence column, because FDM distinguishes a tuple that defines
  ``bonus = None`` from one that does not define ``bonus`` at all,
  while SQL has only NULL.
* **profiled** — while syncing, each column accumulates a hostility
  profile (None/NaN/bools/mixed types/ints beyond 2^53/non-scalars).
  The compiler consults the profiles and declines exactly the
  operations whose SQL semantics would diverge from Python's.

Rows are stored with a monotonically assigned ``ord`` column capturing
the relation's naive enumeration order at sync time; offloaded queries
return ``ord`` values and the decoder re-reads the surviving rows from
the versioned table at the sync snapshot (late materialization), so
result *objects* are exactly what the interpreted paths produce.
"""

from __future__ import annotations

import math
import sqlite3
import threading
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
        enough that 64-bit engine arithmetic stays exact.
        """
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


class TableMirror:
    """One table's synced snapshot inside the embedded engine."""

    def __init__(self, sql_name: str):
        self.sql_name = sql_name
        #: attribute → data-column index (``c<i>`` / ``p<i>``).
        self.columns: dict[str, int] = {}
        self.profiles: dict[str, ColumnProfile] = {}
        #: position → mapping key, in the enumeration order ``ord`` encodes.
        self.keys: list[Any] = []
        self.synced_epoch: int | None = None
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

    def profile(self, attr: str) -> ColumnProfile | None:
        """The profile for *attr*, or ``None`` if never present."""
        return self.profiles.get(attr)

    def column(self, attr: str) -> int | None:
        """The data-column index for *attr*, or ``None`` if absent."""
        return self.columns.get(attr)

    @property
    def row_count(self) -> int:
        """Rows in the synced snapshot."""
        return len(self.keys)


class OffloadCounters:
    """The ``db.stats()["offload"]`` counters for one engine."""

    def __init__(self) -> None:
        self.queries_offloaded = 0
        self.mirror_syncs = 0
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
            # shared across sessions, serialized by :attr:`lock`
            self._conn = sqlite3.connect(
                ":memory:", check_same_thread=False
            )
        return self._conn

    def current_epoch(self, table_name: str) -> int:
        """The engine's staleness token for *table_name* right now."""
        return self.engine.mirror_epochs.get(table_name, 0)

    def is_fresh(self, table_name: str) -> bool:
        """True when the synced snapshot matches the current token."""
        mirror = self._tables.get(table_name)
        return (
            mirror is not None
            and mirror.synced_epoch == self.current_epoch(table_name)
        )

    def ensure_synced(self, table_name: str, ts: int) -> TableMirror:
        """The fresh mirror for *table_name*, rebuilding if stale.

        *ts* is the commit stamp the caller's (transaction-free) read
        would use; the rebuilt snapshot captures ``scan_at(ts)`` in
        enumeration order. Callers must hold :attr:`lock`.
        """
        epoch = self.current_epoch(table_name)
        mirror = self._tables.get(table_name)
        if mirror is not None and mirror.synced_epoch == epoch:
            # the epoch is the per-table staleness token: every write
            # funnel that touches this table bumps it, so an unchanged
            # epoch means ``scan_at(ts)`` equals the synced snapshot
            # even when the global commit clock moved (a commit to some
            # *other* table) — adopt the newer stamp, don't rebuild
            mirror.synced_ts = ts
            return mirror
        if mirror is None:
            mirror = TableMirror(sql_name=f"m{len(self._tables)}")
            self._tables[table_name] = mirror
        self._sync(mirror, table_name, ts, epoch)
        return mirror

    def _sync(
        self, mirror: TableMirror, table_name: str, ts: int, epoch: int
    ) -> None:
        table = self.engine.table(table_name)
        rows: list[tuple[Any, Any]] = []
        keys: list[Any] = []
        columns: dict[str, int] = {}
        profiles: dict[str, ColumnProfile] = {}
        mirrorable = True
        for key, data in table.scan_at(ts):
            if not isinstance(data, dict):
                mirrorable = False
                break
            keys.append(key)
            rows.append((key, data))
            for attr in data:
                if attr not in columns:
                    columns[attr] = len(columns)
                    profiles[attr] = ColumnProfile()

        if not mirrorable:
            mirror.synced_epoch = epoch
            mirror.synced_ts = ts
            mirror.mirrorable = False
            mirror.keys = keys
            mirror.columns = columns
            mirror.profiles = profiles
            self.counters.mirror_syncs += 1
            return

        params: list[tuple] = []
        for ord_, (_key, data) in enumerate(rows):
            row: list[Any] = [ord_]
            for attr, _idx in columns.items():
                if attr in data:
                    value, present = profiles[attr].observe(data[attr])
                else:
                    profiles[attr].has_missing = True
                    value, present = None, 0
                row.append(value)
                row.append(present)
            params.append(tuple(row))

        conn = self.connection()
        cols = ", ".join(
            f"c{i}, p{i}" for i in range(len(columns))
        )
        try:
            conn.execute(f'DROP TABLE IF EXISTS "{mirror.sql_name}"')
            conn.execute(
                f'CREATE TABLE "{mirror.sql_name}" '
                f"(ord INTEGER PRIMARY KEY{', ' + cols if cols else ''})"
            )
            if params:
                placeholders = ", ".join("?" * (1 + 2 * len(columns)))
                conn.executemany(
                    f'INSERT INTO "{mirror.sql_name}" '
                    f"VALUES ({placeholders})",
                    params,
                )
        except Exception:
            # the previous SQL table may be half-destroyed (DROP ran,
            # INSERT failed): never let ensure_synced serve it again
            mirror.synced_epoch = None
            raise
        # only a fully rebuilt snapshot is recorded as fresh; a raise
        # anywhere above leaves the mirror stale and the next offloaded
        # query retries (or keeps falling back)
        mirror.synced_epoch = epoch
        mirror.synced_ts = ts
        mirror.mirrorable = True
        mirror.keys = keys
        mirror.columns = columns
        mirror.profiles = profiles
        self.counters.mirror_syncs += 1
        self.counters.rows_mirrored += len(params)

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
