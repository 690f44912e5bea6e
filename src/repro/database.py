"""The stored database function: a DBMS behind a function call.

:func:`connect` returns a :class:`FunctionalDatabase` — a database function
(paper §2.5) whose relation-valued mappings are backed by the MVCC storage
engine and the snapshot-isolation transaction manager. Everything from the
figures works on it:

* ``db['customers'] = {1: {...}, ...}`` creates a stored table (Fig. 10),
* ``db['view'] = fql_expr`` registers a **dynamic view** — the lazy derived
  function itself (§4.4),
* ``db['mv'] = fql.copy(expr)`` stores a **materialized** snapshot, because
  ``copy`` returns material functions (§4.4's distinction falls out of the
  value's own nature),
* ``db.begin() / db.commit()`` or ``with db.transaction(): ...`` for
  Fig. 11, with bare ``repro.begin()/commit()`` costumes against the
  default database in :mod:`repro.txn.context`,
* ``db.create_index('customers', 'age', kind='sorted')`` materializes the
  alternative-view machinery of §2.4 at the storage level.
"""

from __future__ import annotations

import os
from typing import Any, Iterator, Mapping

from repro._util import LATEST, normalize_key
from repro.errors import SchemaError, TransactionStateError, UnknownRelationError
from repro.fdm.databases import DatabaseFunction
from repro.fdm.domains import Domain, DiscreteDomain
from repro.fdm.functions import DerivedFunction, FDMFunction
from repro.fdm.relations import MaterialRelationFunction
from repro.fdm.relationships import RelationshipFunction
from repro.storage.engine import StorageEngine
from repro.storage.persist import load_checkpoint, save_checkpoint
from repro.storage.wal import WriteAheadLog
from repro.storage.relation import (
    StoredRelationFunction,
    StoredRelationshipFunction,
)
from repro.txn.manager import Transaction, TransactionManager

__all__ = ["FunctionalDatabase", "connect"]


class FunctionalDatabase(DatabaseFunction):
    """A database function over an MVCC engine plus dynamic views."""

    #: Hook for subclasses that need different commit semantics — the
    #: replica database substitutes a read-only manager here so every
    #: stored relation built below shares it.
    _manager_cls = TransactionManager

    def __init__(self, name: str = "DB", wal_path: str | None = None):
        super().__init__(name=name)
        self._adopt(_open_engine(name, wal_path))

    def _adopt(self, engine: StorageEngine) -> None:
        """Start serving *engine*: a manager whose clock resumes at the
        engine's newest logged stamp, and a handle per table."""
        self._engine = engine
        self._manager = self._manager_cls(engine)
        self._stored: dict[str, StoredRelationFunction] = {}
        self._views: dict[str, FDMFunction] = {}
        self._closed = False
        self._sync_stored()

    def _sync_stored(self) -> None:
        """Make ``_stored`` name exactly the engine's tables: a handle
        for each table that has none (recovery, checkpoint restore, a
        snapshot or a schema record on a replica brought it), none for
        a table that is gone."""
        tables = self._engine.tables
        stored = {
            name: handle
            for name, handle in self._stored.items()
            if handle.table_name in tables
        }
        for name in tables:
            if name not in stored:
                stored[name] = StoredRelationFunction(
                    self._engine, self._manager, name, name=name
                )
        self._stored = stored  # one swap: readers never see it half-built

    # -- engine access ---------------------------------------------------------------

    @property
    def engine(self) -> StorageEngine:
        return self._engine

    @property
    def manager(self) -> TransactionManager:
        return self._manager

    # -- database function interface ----------------------------------------------------

    @property
    def domain(self) -> Domain:
        return DiscreteDomain(list(self._stored) + list(self._views))

    def _apply(self, key: Any) -> Any:
        if key in self._stored:
            return self._stored[key]
        if key in self._views:
            return self._views[key]
        raise UnknownRelationError(key, self._name)

    def defined_at(self, *args: Any) -> bool:
        return len(args) == 1 and (
            args[0] in self._stored or args[0] in self._views
        )

    def keys(self) -> Iterator[str]:
        yield from self._stored
        for name in self._views:
            if name not in self._stored:
                yield name

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # -- assignment: tables, dynamic views, materialized views -----------------------------

    def __setitem__(self, key: Any, value: Any) -> None:
        if not isinstance(key, str):
            raise SchemaError(
                f"database function inputs are relation names, got {key!r}"
            )
        if isinstance(value, Mapping) and not isinstance(value, FDMFunction):
            self._store_rows(key, value.items(), key_name=None)
            return
        if isinstance(value, RelationshipFunction):
            self._store_relationship(key, value)
            return
        if isinstance(value, MaterialRelationFunction):
            # materialized content (e.g. the result of fql.copy) → stored
            self._store_rows(
                key, value.items(), key_name=value.key_name
            )
            return
        if isinstance(value, StoredRelationFunction):
            # re-binding an existing stored relation under a new name:
            # alias the view object
            self._drop_name(key)
            self._stored[key] = value
            return
        if isinstance(value, (DerivedFunction, FDMFunction)):
            # a lazy FQL expression (or tuple/λ function): dynamic view
            self._drop_name(key)
            self._views[key] = value
            return
        raise SchemaError(
            f"cannot store {value!r} in database {self._name!r}"
        )

    def _drop_name(self, name: str) -> None:
        if name in self._stored:
            table_name = self._stored[name].table_name
            self._manager.commit_schema(
                table_name, lambda: self._engine.drop_table(table_name)
            )
            del self._stored[name]
        self._views.pop(name, None)

    def _create_table(
        self,
        name: str,
        key_name: str | tuple[str, ...] | None,
        partition_by: Any = None,
    ) -> None:
        self._manager.commit_schema(
            name,
            lambda: self._engine.create_table(
                name, key_name=key_name, partition_by=partition_by
            ),
        )

    def _store_rows(
        self,
        name: str,
        items: Any,
        key_name: str | tuple[str, ...] | None,
        partition_by: Any = None,
    ) -> None:
        self._drop_name(name)
        self._create_table(name, key_name, partition_by)
        stored = StoredRelationFunction(
            self._engine, self._manager, name, name=name
        )
        with self._manager.autocommit() as txn:
            for key, row in items:
                if isinstance(row, FDMFunction):
                    if row.kind == "tuple" and row.is_enumerable:
                        row = dict(row.items())
                txn.write(name, normalize_key(key), _coerce_stored(row))
        self._stored[name] = stored

    def _store_relationship(
        self, name: str, value: RelationshipFunction
    ) -> None:
        self._drop_name(name)
        # participants that reference relations of *this* database re-point
        # to the stored views so the shared-domain checks stay live
        participants = []
        for part in value.participants:
            target = part.target
            if isinstance(target, FDMFunction):
                for stored_name, stored in self._stored.items():
                    if target is stored or (
                        hasattr(target, "fn_name")
                        and target.fn_name == stored_name
                    ):
                        target = stored
                        break
            participants.append((part.param, target))
        self._create_table(name, value.param_names())
        stored = StoredRelationshipFunction(
            self._engine,
            self._manager,
            name,
            participants,
            name=name,
            enforce=value._enforce,
        )
        with self._manager.autocommit() as txn:
            for key, row in value.table().scan_at(LATEST):
                txn.write(name, key, _coerce_stored(row))
        self._stored[name] = stored

    def __delitem__(self, key: Any) -> None:
        if key not in self._stored and key not in self._views:
            raise UnknownRelationError(key, self._name)
        self._drop_name(key)

    # -- horizontal partitioning (DESIGN.md §10) -----------------------------------------

    def create_table(
        self,
        name: str,
        rows: Mapping[Any, Any] | None = None,
        key_name: str | tuple[str, ...] | None = None,
        partition_by: Any = None,
    ) -> FDMFunction:
        """Create a stored table explicitly, optionally partitioned.

        ``partition_by`` accepts a :class:`repro.partition.PartitionScheme`
        (``hash_partition('state', 4)``, ``range_partition('age', [30, 60])``),
        a spec dict, or a bare int *n* (hash on the key into *n* parts)::

            db.create_table('customers', rows, key_name='cid',
                            partition_by=hash_partition('state', n=4))
        """
        self._store_rows(
            name,
            (rows or {}).items(),
            key_name=key_name,
            partition_by=partition_by,
        )
        return self._stored[name]

    def partition_table(self, name: str, partition_by: Any) -> FDMFunction:
        """Re-partition an existing stored table in place (history kept).

        Plans over the table are invalidated structurally: the next
        enumeration re-lowers against the new segment layout.
        """
        if name not in self._stored:
            raise UnknownRelationError(name, self._name)
        self._manager.commit_schema(
            name, lambda: self._engine.partition_table(name, partition_by)
        )
        return self._stored[name]

    def partition_layout(self, name: str) -> dict[str, Any]:
        """Scheme + per-partition row counts of a partitioned table;
        the row count of a flat one (its scheme's spec is ``None``)."""
        table = self._engine.table(name)
        spec = table.scheme.spec()
        if spec is None:
            return {"partitioned": False, "rows": table.count_at(LATEST)}
        return {
            "partitioned": True,
            "scheme": spec,
            "rows": table.partition_counts(LATEST),
        }

    # -- maintained views (DESIGN.md §9) ----------------------------------------------------

    def create_maintained_view(
        self, name: str, expression: FDMFunction, eager: bool = False
    ) -> FDMFunction:
        """Register *expression* as a self-maintaining view.

        The view answers from a snapshot kept fresh by the storage
        engine's changelog: lazy (at read time) by default, or inside
        every commit with ``eager=True``. It is reachable like any other
        relation: ``db.dashboard`` / ``db('dashboard')``.
        """
        from repro.ivm import maintained_view

        view = maintained_view(expression, name=name, eager=eager)
        self._drop_name(name)
        self._views[name] = view
        return view

    @property
    def view_registry(self) -> Any:
        """The per-database registry of maintained views."""
        from repro.ivm.registry import registry_for

        return registry_for(self._engine)

    # -- relationships & indexes -----------------------------------------------------------

    def add_relationship(
        self,
        name: str,
        participants: Mapping[str, Any],
        mappings: Mapping[Any, Any] | None = None,
        enforce: bool = True,
    ) -> StoredRelationshipFunction:
        """Create a stored relationship function among existing relations.

        Participant targets may be relation names (resolved against this
        database), FDM functions, or domains.
        """
        resolved = []
        for param, target in participants.items():
            if isinstance(target, str):
                target = self(target)
            resolved.append((param, target))
        self._drop_name(name)
        self._create_table(name, tuple(p for p, _t in resolved))
        stored = StoredRelationshipFunction(
            self._engine, self._manager, name, resolved, name=name,
            enforce=enforce,
        )
        self._stored[name] = stored
        if mappings:
            for key, row in mappings.items():
                stored[key] = row
        return stored

    def create_index(
        self, relation: str, attr: str, kind: str = "hash"
    ) -> None:
        """Create a secondary index (the storage face of §2.4's alternative
        views)."""
        if relation not in self._stored:
            raise UnknownRelationError(relation, self._name)
        self._manager.commit_schema(
            relation,
            lambda: self._engine.create_index(relation, attr, kind=kind),
        )

    def drop_index(self, relation: str, attr: str) -> None:
        self._manager.commit_schema(
            relation, lambda: self._engine.drop_index(relation, attr)
        )

    # -- transactions (Fig. 11) ---------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start (and activate) a snapshot-isolated transaction."""
        return self._manager.begin()

    def commit(self) -> None:
        """Commit the current transaction."""
        self._manager.commit(self._current())

    def rollback(self) -> None:
        """Abort the current transaction."""
        self._manager.abort(self._current())

    def _current(self) -> Transaction:
        txn = self._manager.current()
        if txn is None:
            raise TransactionStateError("no transaction is active")
        return txn

    #: Context-manager costume: ``with db.transaction(): ...``.
    transaction = begin

    # -- failover fencing (DESIGN.md §12) ---------------------------------------------------

    def fence(self, token: int | None = None) -> None:
        """Demote this database after a failover: writes are rejected.

        Call this on the *old leader* with the fencing token returned
        by the promoted follower's ``promote()``. Reads keep answering
        from the frozen snapshot; every writing commit raises
        :class:`~repro.errors.FencedLeaderError` from then on.

        A token this node has itself minted or witnessed is refused —
        and so is a bare ``fence()`` against a promoted node: the
        promoted leader's own epoch is at least the token, so fencing
        it (the classic post-failover mis-aim — the routed client's
        leader connection now points at the *new* leader) would take
        down the only writable node. To force-demote anyway, call
        ``db.manager.fence()`` directly.
        """
        own = (
            int(self.epoch)
            if hasattr(type(self), "epoch")
            else (
                self._engine.replication_hub.epoch
                if self._engine.replication_hub is not None
                else 1
            )
        )
        if (token is not None and own >= int(token)) or (
            token is None and own > 1
        ):
            from repro.errors import ReplicationError

            raise ReplicationError(
                f"refusing to fence: this node is at fencing epoch "
                f"{own}"
                + (f" >= token {token}" if token is not None else "")
                + ", so it is the current leader — aim the fence at "
                "the demoted one"
            )
        self._manager.fence(token)
        from repro.obs.events import emit

        emit(self._engine, "fence", token=token, epoch=own)

    @property
    def fenced(self) -> bool:
        """Whether a failover fence currently rejects writes here."""
        return self._manager.fenced

    # -- lifecycle (DESIGN.md §11) ----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush and release the WAL handle; drop cached plans.

        Idempotent. A closed durable database refuses further commits
        (the WAL would silently lose them otherwise); reopening is just
        ``connect(wal_path=same_path)`` — the constructor replays the
        existing log back into its tables.
        """
        if self._closed:
            return
        self._closed = True
        self._engine.close()

    def __enter__(self) -> "FunctionalDatabase":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.close()
        return False

    # -- introspection (DESIGN.md §11: the STATS verb) --------------------------------------------

    def stats(self) -> dict[str, Any]:
        """One dict describing the runtime state of this database.

        Covers the executor plan cache, per-view maintenance counters,
        per-table row counts and partition layout, WAL size, changelog
        depth, and the transaction manager's commit/abort totals —
        everything a dashboard (or the server's STATS verb) needs
        without reaching into subsystem internals.
        """
        from repro.compile import offload_stats
        from repro.exec.kernels import kernel_backend
        from repro.obs.resources import resources_for

        engine = self._engine
        manager = self._manager
        views: dict[str, Any] = {}
        for view_name, view in self._views.items():
            maintenance = getattr(view, "maintenance_stats", None)
            if maintenance is not None:
                views[view_name] = dict(maintenance)
        changelog = engine.changelog
        return {
            "name": self._name,
            "closed": self._closed,
            "plan_cache": (
                engine.plan_cache.stats()
                if engine.plan_cache is not None
                else None
            ),
            "executor": {"kernel_backend": kernel_backend()},
            # per-query cost attribution — scans, zone skips and image
            # builds included: cumulative totals, the meters of queries
            # running right now, and per-session / per-fingerprint
            # rollups (docs/observability.md)
            "resources": resources_for(engine).snapshot(),
            # SQL-offload backend: queries offloaded, mirror syncs,
            # rows mirrored, and fallbacks by reason (DESIGN.md §14)
            "offload": offload_stats(engine),
            "views": views,
            "tables": {
                table_name: self.partition_layout(table_name)
                for table_name in engine.table_names()
            },
            "wal": {
                "records": len(engine.wal),
                "bytes": engine.wal.size_bytes(),
                "path": engine.wal.path,
            },
            "changelog": (
                None
                if changelog is None
                else {
                    "records": len(changelog._records),
                    "watermark": changelog.watermark,
                }
            ),
            "transactions": {
                "commits": manager.commits,
                "aborts": manager.aborts,
                "active": len(manager._active),
                "clock": manager.now(),
            },
            "versions": engine.version_count(),
            "replication": (
                engine.replication_hub.stats()
                if engine.replication_hub is not None
                else None
            ),
        }

    # -- observability (docs/observability.md) ---------------------------------------------------

    def metrics(self) -> Any:
        """This database's :class:`~repro.obs.metrics.MetricsRegistry`.

        Lazily created and wired with engine gauges (plan-cache hit
        rate, WAL bytes, replication lag, resource totals) on first
        use; ``.prometheus()`` renders the text exposition the METRICS
        verb serves.
        """
        from repro.obs.metrics import metrics_for

        return metrics_for(self._engine)

    def slow_queries(self) -> list[Any]:
        """Captured :class:`~repro.obs.slowlog.SlowQueryEntry` rows,
        oldest first — a bounded ring, so old entries age out."""
        from repro.obs.slowlog import slowlog_for

        return slowlog_for(self._engine).entries()

    def set_slow_query_threshold(self, ms: float | None) -> None:
        """Capture any query slower than *ms* milliseconds into the
        slow-query log (``None`` disables capture for this database)."""
        from repro.obs.slowlog import slowlog_for

        slowlog_for(self._engine).set_threshold(ms)

    def trace_export(self, trace_id: str | None = None) -> dict[str, Any]:
        """The latest finished trace (or *trace_id*) as a Chrome
        trace-event JSON dict — dump it and load in ``about:tracing``
        or Perfetto."""
        from repro.obs.trace import export_chrome

        return export_chrome(trace_id)

    def workload_profile(self) -> dict[str, dict[str, Any]]:
        """The workload profile: one dict per query-class fingerprint
        (calls, rows, p50/p95 latency, current plan hash, plan-change
        and regression counters, and the class's cost row), keyed by
        fingerprint. Every finished query folds into its class; the
        WORKLOAD verb serves the same rows remotely."""
        from repro.obs.resources import resources_for

        return resources_for(self._engine).classes()

    def plan_diff(self, fingerprint: str) -> dict[str, Any] | None:
        """Last-good vs current physical plan for one query class, or
        ``None`` for an unknown fingerprint — the evidence trail behind
        a ``plan_change`` event (docs/operations.md has the recipe)."""
        from repro.obs.resources import resources_for

        return resources_for(self._engine).plan_diff(fingerprint)

    def health(self) -> dict[str, Any]:
        """The cluster-health snapshot the HEALTH verb serves: role,
        epoch, commit clock, fencing state, WAL floor/size, replication
        lag in commits and seconds, and the newest lifecycle events."""
        from repro.obs.health import health_snapshot

        return health_snapshot(self)

    def lifecycle_events(
        self, kind: str | None = None, limit: int | None = None
    ) -> list[Any]:
        """Lifecycle :class:`~repro.obs.events.Event` rows from this
        database's bounded ring, oldest first — failovers, fencing,
        snapshot syncs, shedding, slow queries, plan changes. Filter
        with *kind*; cap with *limit* (keeps the newest). Named to
        stay out of the relation namespace: ``db.events`` must keep
        resolving a table called ``events``."""
        from repro.obs.events import events_for

        return events_for(self._engine).events(kind=kind, limit=limit)

    def set_event_sink(self, path: str | None) -> None:
        """Mirror every lifecycle event to *path* as JSON lines
        (``None`` stops mirroring). The in-memory ring keeps working
        either way; ``REPRO_EVENTS_PATH`` sets the same sink at
        startup."""
        from repro.obs.events import events_for

        events_for(self._engine).set_sink(path)

    # -- durability ------------------------------------------------------------------------------

    def checkpoint(self, path: str) -> None:
        with self._manager.snapshot() as ts:
            save_checkpoint(self._engine, path, ts)

    @classmethod
    def restore(cls, path: str, name: str = "DB") -> "FunctionalDatabase":
        engine, clock = load_checkpoint(path, name=name)
        # the fresh WAL holds nothing below the checkpoint stamp: a
        # follower syncing from further back must take a snapshot
        engine.wal.set_floor(clock)
        db = cls.__new__(cls)
        DatabaseFunction.__init__(db, name=name)
        db._adopt(engine)
        return db

    def __repr__(self) -> str:
        return (
            f"<FunctionalDatabase {self._name!r}: "
            f"{len(self._stored)} stored, {len(self._views)} views>"
        )


def _open_engine(name: str, wal_path: str | None) -> StorageEngine:
    """A fresh engine — or one recovered from an existing WAL file.

    ``connect(wal_path=p)`` against a non-empty log replays it back
    into its tables (reopen-after-close), then reattaches the
    append handle so new commits extend the same file. Schema changes
    ride the log, so tables come back with their key names, partition
    layout and indexes, and dropped tables stay dropped.
    """
    if (
        wal_path is not None
        and os.path.exists(wal_path)
        and os.path.getsize(wal_path) > 0
    ):
        wal = WriteAheadLog.load(wal_path)
        engine = StorageEngine.recover(wal, name=name)
        engine.wal = wal
        wal.reopen()
        if wal.torn_bytes:
            from repro.obs.events import emit

            emit(engine, "wal_torn_tail", path=wal_path, bytes=wal.torn_bytes)
        return engine
    return StorageEngine(name=name, wal_path=wal_path)


def _coerce_stored(row: Any) -> Any:
    if row.__class__ is dict:  # the common row: skip the Mapping ABC check
        return row.copy()
    if isinstance(row, FDMFunction):
        return row
    if isinstance(row, Mapping):
        return dict(row)
    raise SchemaError(f"cannot store row {row!r}")


def connect(
    name: str = "DB",
    wal_path: str | None = None,
    default: bool = True,
) -> FunctionalDatabase:
    """Open a new functional database; optionally make it the default for
    the bare ``begin()/commit()`` costumes of Fig. 11."""
    db = FunctionalDatabase(name=name, wal_path=wal_path)
    if default:
        from repro.txn.context import set_default_database

        set_default_database(db)
    return db
