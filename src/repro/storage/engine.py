"""The storage engine: versioned tables + WAL + indexes + statistics.

One engine backs one database function. The engine owns no transaction
logic — the :mod:`repro.txn` manager validates and orders commits, then
hands the engine a batch of writes to apply atomically (WAL first, then
version chains, then index/statistics maintenance).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterator

from repro._util import TOMBSTONE
from repro.errors import StorageError, UnknownRelationError, WALError
from repro.ivm.changelog import ChangeLog
from repro.ivm.delta import Delta
from repro.storage.index import HashIndex, IndexSet, SortedIndex
from repro.storage.stats import (
    PartitionedTableStatistics,
    TableStatistics,
    ZoneMap,
    rebuild_zone_maps,
)
from repro.storage.versioned import VersionedTable
from repro.storage.wal import WALRecord, WriteAheadLog

__all__ = ["StorageEngine"]

#: A timestamp later than any real commit stamp.
_LATEST = 2**62


class StorageEngine:
    """Owns tables, indexes, statistics, and the WAL for one database."""
    def __init__(self, name: str = "engine", wal_path: str | None = None):
        self.name = name
        self.tables: dict[str, VersionedTable] = {}
        self.indexes: dict[str, IndexSet] = {}
        self.stats: dict[str, TableStatistics] = {}
        #: Per-segment zone maps (DESIGN.md §13): one per partition for
        #: partitioned tables, a single-element list otherwise. Bounds
        #: accumulate over every committed version, so a zone miss is
        #: sound at any snapshot.
        self.zones: dict[str, list[ZoneMap]] = {}
        self.wal = WriteAheadLog(wal_path)
        #: Per-database executor plan cache; created lazily by
        #: :func:`repro.exec.cache_for` so storage stays import-light.
        self.plan_cache = None
        #: Per-commit change capture feeding incremental view maintenance
        #: (DESIGN.md §9); created on the first view attachment so
        #: view-less engines pay nothing on the commit path.
        self.changelog: ChangeLog | None = None
        #: Maintained views over this engine; created lazily by
        #: :func:`repro.ivm.registry.registry_for`.
        self.view_registry = None
        #: Leader-side WAL shipping (DESIGN.md §12); created lazily by
        #: :func:`repro.replication.hub_for` on the first REPLICA_HELLO
        #: so unreplicated databases pay nothing on the commit path.
        self.replication_hub = None
        #: Per-table tokens for the changes the WAL cannot tell the SQL
        #: offload mirror about (DESIGN.md §14): an engine-level
        #: re-shard or drop, a vacuum that dropped versions, a replica
        #: snapshot install. Any bump makes the next sync a rebuild;
        #: commits reach the mirror through the log instead.
        self.mirror_epochs: defaultdict[str, int] = defaultdict(int)
        #: The lazily-attached :class:`repro.compile.mirror.EngineMirror`
        #: (``None`` until the first offloaded query plans).
        self.offload_mirror = None

    def bump_mirror_epoch(self, name: str) -> None:
        """Make the offload mirror's next sync of *name* a rebuild."""
        self.mirror_epochs[name] += 1

    def ensure_changelog(self) -> ChangeLog:
        """Start change capture (idempotent). The floor sits at the
        current commit clock — earlier history was never recorded. A
        recovered engine's own WAL is empty (records were replayed,
        not re-appended), so the version chains are consulted too."""
        if self.changelog is None:
            clock = max(
                [self.wal.last_commit_ts()]
                + [t.written_ts for t in self.tables.values()]
            )
            self.changelog = ChangeLog(start_ts=clock)
        return self.changelog

    # -- DDL (logged, not versioned; DESIGN.md §4) --------------------------------

    def create_table(
        self,
        name: str,
        key_name: str | tuple[str, ...] | None = None,
        partition_by: Any = None,
    ) -> VersionedTable:
        if name in self.tables:
            raise StorageError(f"table {name!r} already exists")
        if partition_by is not None:
            # lazy: repro.partition subclasses this module's tables
            from repro.partition import PartitionedTable, as_scheme

            scheme = as_scheme(partition_by)
            table: VersionedTable = PartitionedTable(
                name, key_name=key_name, scheme=scheme
            )
            self.stats[name] = PartitionedTableStatistics(
                name, scheme.n_partitions
            )
            self.zones[name] = [ZoneMap() for _ in range(scheme.n_partitions)]
        else:
            table = VersionedTable(name, key_name=key_name)
            self.stats[name] = TableStatistics(name)
            self.zones[name] = [ZoneMap()]
        self.tables[name] = table
        self.indexes[name] = IndexSet()
        return table

    def partition_table(self, name: str, partition_by: Any) -> VersionedTable:
        """Re-partition an existing table in place, history included.

        The version chains replay into per-partition segments (historic
        attribute changes get their move tombstones as if the table had
        always been partitioned) and the statistics are rebuilt from the
        latest committed state.
        """
        from repro.partition import PartitionedTable, as_scheme

        old = self.table(name)
        scheme = as_scheme(partition_by)
        table = PartitionedTable.from_table(old, scheme)
        stats = PartitionedTableStatistics(name, scheme.n_partitions)
        for key, data in table.scan_at(_LATEST):
            stats.on_write(
                TOMBSTONE, data, new_pid=table.placement_of(key)
            )
        self.tables[name] = table
        self.stats[name] = stats
        # Zones rebuild from ALL versions (not just latest) so readers at
        # old snapshots stay covered by the new segment layout.
        self.zones[name] = rebuild_zone_maps(table)
        # re-sharding changes the table's enumeration order (segment by
        # segment), which the offload mirror bakes into its row order
        self.bump_mirror_epoch(name)
        self._invalidate_partition_consumers(name)
        # cached plans were lowered against the old segment layout
        if self.plan_cache is not None:
            self.plan_cache.clear()
        return table

    def _invalidate_partition_consumers(self, name: str) -> None:
        """After a re-shard, no pre-existing partition metadata is
        trustworthy: buffered changelog deltas were tagged under the old
        scheme (so strip the tags — untagged means dirty-anywhere), and
        maintained views' static prune sets were computed against it
        (so recompute them against the new one)."""
        if self.changelog is not None:
            for _ts, tables in self.changelog._records:
                delta = tables.get(name)
                if delta is not None:
                    delta.partition_tags = None
        registry = self.view_registry
        if registry is not None:
            from repro.partition.prune import expression_partition_prunes

            for view in registry.views():
                state = getattr(view, "_ivm", None)
                if state is not None:
                    state.partition_prunes = expression_partition_prunes(
                        state.expression
                    )

    def drop_table(self, name: str) -> None:
        if name not in self.tables:
            raise UnknownRelationError(name, self.name)
        del self.tables[name]
        del self.indexes[name]
        del self.stats[name]
        self.zones.pop(name, None)
        self.bump_mirror_epoch(name)

    def table(self, name: str) -> VersionedTable:
        try:
            return self.tables[name]
        except KeyError:
            raise UnknownRelationError(name, self.name) from None

    def table_names(self) -> list[str]:
        return list(self.tables)

    def create_index(
        self, table: str, attr: str, kind: str = "hash"
    ) -> HashIndex | SortedIndex:
        """Create and backfill a secondary index on latest-committed data."""
        if table not in self.tables:
            raise UnknownRelationError(table, self.name)
        index = self.indexes[table].create(attr, kind)
        for key, data in self.tables[table].scan_at(_LATEST):
            index.update(key, TOMBSTONE, data)
        return index

    def drop_index(self, table: str, attr: str) -> None:
        if table in self.indexes:
            self.indexes[table].drop(attr)

    def apply_schema(self, name: str, schema: dict[str, Any] | None) -> None:
        """Make table *name* match *schema*, a
        :func:`~repro.storage.image.table_schema` dict; ``None`` drops it.

        Recovery, replica apply and image install all learn DDL here. A
        missing table is created; an existing one has its key name
        aligned, is re-partitioned in place when the scheme differs
        (history kept), and gains or loses indexes to match.
        """
        if schema is None:
            if name in self.tables:
                self.drop_table(name)
            return
        key_name = schema.get("key_name")
        if isinstance(key_name, list):
            key_name = tuple(key_name)
        spec = schema.get("partition")
        table = self.tables.get(name)
        if table is None:
            self.create_table(name, key_name=key_name, partition_by=spec)
        else:
            table.key_name = key_name
            if spec is not None and (
                not table.is_partitioned or table.scheme.spec() != spec
            ):
                self.partition_table(name, spec)
        wanted = {i["attr"]: i["kind"] for i in schema.get("indexes", ())}
        indexes = self.indexes[name]
        for attr in indexes.attrs():
            if indexes.get(attr).kind != wanted.get(attr):
                indexes.drop(attr)
        for attr, kind in wanted.items():
            if indexes.get(attr) is None:
                self.create_index(name, attr, kind)

    # -- commit application ----------------------------------------------------------

    def apply_commit(
        self,
        commit_ts: int,
        writes: list[tuple[str, Any, Any]],
        schemas: dict[str, Any] | None = None,
    ) -> None:
        """Durably apply one commit: row *writes*, and the new catalog
        entry of each table in *schemas*.

        Order matters: WAL first (durability), then schemas, then
        version chains, then index/statistics maintenance and changelog
        publication.
        """
        self.wal.append(WALRecord(commit_ts, list(writes), schemas))
        self._apply_writes(commit_ts, writes, schemas)

    def _apply_writes(
        self,
        commit_ts: int,
        writes: list[tuple[str, Any, Any]],
        schemas: dict[str, Any] | None = None,
    ) -> None:
        """Schema changes, then version-chain application plus
        per-table delta capture.

        Only committed writes pass through here, so aborted transactions
        never publish a delta. With no changelog attached (no view ever
        created over this engine) capture is skipped entirely.
        """
        for name, schema in (schemas or {}).items():
            self.apply_schema(name, schema)
        changelog = self.changelog
        deltas: dict[str, Delta] = {}
        for table_name in {t for t, _k, _d in writes}:
            if table_name not in self.tables:
                # no schema record named it (a log from before schemas
                # rode it, or an engine-level caller): create it bare
                self.create_table(table_name)
        for table_name, key, data in writes:
            table = self.table(table_name)
            old = table.read(key, _LATEST)
            if table.is_partitioned:
                old_pid = table.placement_of(key)
                table.apply(key, data, commit_ts)
                new_pid = table.placement_of(key)
                self.stats[table_name].on_write(
                    old, data, old_pid=old_pid, new_pid=new_pid
                )
            else:
                old_pid = new_pid = None
                table.apply(key, data, commit_ts)
                self.stats[table_name].on_write(old, data)
            if data is not TOMBSTONE:
                zones = self.zones.get(table_name)
                if zones is not None:
                    zones[new_pid if new_pid is not None else 0].observe(data)
            self.indexes[table_name].update(key, old, data)
            if changelog is not None:
                changelog.observe_row(data)
                delta = deltas.setdefault(table_name, Delta())
                delta.record(key, old, data)
                if table.is_partitioned:
                    # tag the commit's delta with the partitions it
                    # touched, so maintained views whose filters prune
                    # those partitions can skip upkeep (DESIGN.md §10)
                    delta.tag_partitions(
                        pid for pid in (old_pid, new_pid) if pid is not None
                    )
        if changelog is not None:
            changelog.append(commit_ts, deltas)

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Flush and release durable resources (idempotent).

        The WAL handle is the only OS resource an engine owns; plans
        cached for this engine are dropped too so a closed database
        cannot serve stale reads through the executor.
        """
        self.wal.close()
        if self.plan_cache is not None:
            self.plan_cache.clear()
        if self.offload_mirror is not None:
            self.offload_mirror.close()

    # -- maintenance ------------------------------------------------------------------

    def vacuum(self, watermark: int) -> int:
        """GC dead versions below *watermark*; returns versions dropped."""
        total = 0
        for name, table in self.tables.items():
            dropped = table.vacuum(watermark)
            if dropped:
                # a dropped chain shifts the enumeration positions the
                # offload mirror numbered, and no log record says so
                self.bump_mirror_epoch(name)
            total += dropped
        return total

    def version_count(self) -> int:
        return sum(t.version_count() for t in self.tables.values())

    # -- recovery ---------------------------------------------------------------------

    @classmethod
    def recover(
        cls, wal: WriteAheadLog, name: str = "engine"
    ) -> "StorageEngine":
        """Rebuild an engine by replaying a WAL in commit order.

        Schema records restore key names, indexes and partition schemes
        in the order they were committed, and placement is a pure
        function of the scheme and the write order, both of which the
        WAL preserves, so the recovered segment layout is bit-identical
        to the original's.
        """
        engine = cls(name=name)
        records = wal.records_since(0)
        if records is None:
            raise WALError(
                f"WAL history below ts {wal.floor} was truncated; replay "
                "the checkpoint first, then the WAL suffix"
            )
        for record in records:
            engine._apply_writes(
                record.commit_ts, record.writes, record.schemas
            )
        return engine

    # -- introspection ------------------------------------------------------------------

    def scan(self, table: str, ts: int) -> Iterator[tuple[Any, Any]]:
        return self.table(table).scan_at(ts)

    def __repr__(self) -> str:
        return (
            f"<StorageEngine {self.name!r}: {len(self.tables)} tables, "
            f"{len(self.wal)} WAL records>"
        )
