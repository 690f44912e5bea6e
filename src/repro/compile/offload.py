"""The offload pipeline: glue between compiler, mirror, and router.

:func:`try_offload` is the plan-time hook :func:`repro.exec.run.
pipeline_for` calls between optimization and lowering. It walks the
optimized graph (:func:`~repro.compile.sqlgen.parse_graph`), applies
the mode/transaction/cost gates, syncs the relation mirror, compiles
SQL (:func:`~repro.compile.sqlgen.generate_sql`), and returns an
:class:`OffloadPipeline` — or ``None``, recording the fallback reason,
in which case the router lowers onto the batched executor as before.

The pipeline re-validates at **execution** time, not just plan time:
a cached offload plan brings the mirror forward to the run's stamp
(applying the commits logged since its last sync), re-checks the
column profile signature its SQL was compiled against, and falls back
to the batched pipeline on any surprise — open transaction,
unmirrorable rows, or a runtime SQL error.

Results are decoded by **late materialization**: the SQL returns row
ordinals (or per-group representative ordinals plus fold state); keys
and row objects come from the versioned table at the sync snapshot,
so result objects are bit-identical to the interpreted paths'.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro._util import TOMBSTONE
from repro.compile import offload_mode
from repro.compile.mirror import EngineMirror, mirror_for
from repro.compile.sqlgen import (
    CompiledQuery,
    QueryShape,
    Unsupported,
    generate_sql,
    parse_graph,
)
from repro.fdm.tuples import RowTuple
from repro.optimizer.physical import offload_worthwhile

__all__ = ["OffloadPipeline", "try_offload", "offload_worthwhile",
           "explain_offload"]


class _OffloadRoot:
    """Minimal physical-node duck type for explain/workload walkers."""

    children: tuple = ()

    def __init__(self, text: str):
        self._text = text

    def describe(self) -> str:
        """One-line operator label (walked like any physical node)."""
        return self._text


class OffloadPipeline:
    """A compiled-to-SQL physical plan, cache- and router-compatible.

    Duck-types :class:`repro.exec.lower.PhysicalPipeline`: the router,
    plan cache and query context consume it unchanged. Execution is eager (the SQL result is fully fetched and
    decoded before the first yield) so a runtime fallback can restart
    cleanly on the batched pipeline.
    """

    def __init__(
        self,
        logical: Any,
        optimized: Any,
        fired_rules: list[str],
        shape: QueryShape,
        mirror: EngineMirror,
        compiled: CompiledQuery,
    ):
        self.logical = logical
        self.fired_rules = list(fired_rules)
        self.engine = mirror.engine
        self.workload_info: tuple | None = None
        self._optimized = optimized
        self._shape = shape
        self._mirror = mirror
        self._compiled = compiled
        self._fallback: Any = None
        self.root = _OffloadRoot(
            f"offload[{mirror.backend}]({shape.table_name})"
        )

    # -- pipeline surface --------------------------------------------------------

    def iter_entries(self) -> Iterator[tuple]:
        """(key, value) stream; batched-executor fallback when stale."""
        result = self._execute(keys=False)
        if result is None:
            return self._batched().iter_entries()
        return iter(result)

    def iter_keys(self) -> Iterator[Any]:
        """Key stream (row values are never materialized)."""
        result = self._execute(keys=True)
        if result is None:
            return self._batched().iter_keys()
        return iter(result)

    def iter_batches(self) -> Iterator[list]:
        """The decoded result as one entry list (``iter_entries``'
        stream, unflattened)."""
        result = self._execute(keys=False)
        if result is None:
            return self._batched().iter_batches()
        # a generator, so the stream closes like the batched one's
        return (batch for batch in (result,) if batch)

    def explain(self) -> str:
        """Indented rendering: the offload root plus its compiled SQL."""
        lines = [self.root.describe()]
        lines.append(f"  sql: {self._compiled.sql}")
        if self._compiled.params:
            lines.append(f"  params: {self._compiled.params!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<OffloadPipeline root={self.root.describe()!r}>"

    # -- execution ---------------------------------------------------------------

    def _batched(self) -> Any:
        """The lazily-lowered batched pipeline runtime fallbacks use."""
        if self._fallback is None:
            from repro.exec.lower import lower

            self._fallback = lower(
                self._optimized,
                logical=self.logical,
                fired_rules=self.fired_rules,
                engine=self.engine,
            )
        return self._fallback

    def _execute(self, keys: bool) -> list | None:
        """Run the compiled SQL and decode, or ``None`` to fall back."""
        shape = self._shape
        manager = shape.relation._manager
        mirror = self._mirror
        from repro.obs.resources import active_meter

        meter = active_meter()
        if meter is not None and meter._armed:
            # a budgeted query must stay killable: the batched executor
            # checks the meter per batch, a SQL engine cannot — so
            # budget-armed runs always take the instrumented path
            mirror.counters.note_fallback("metered")
            return None
        if manager.current() is not None:
            # a cached plan from outside any transaction must not serve
            # a snapshot-isolated read (buffered writes are invisible
            # to the mirror); fingerprints normally prevent this, the
            # check makes it a hard guarantee
            mirror.counters.note_fallback("txn")
            return None
        ts = manager.now()
        with mirror.lock:
            try:
                table_mirror = mirror.ensure_synced(shape.table_name, ts)
            except Exception:
                mirror.counters.note_fallback("sync_error")
                return None
            if not table_mirror.mirrorable:
                mirror.counters.note_fallback("unmirrorable_rows")
                return None
            compiled = self._compiled
            if compiled.signature != table_mirror.signature():
                # the synced snapshot's hostility profile moved under
                # the compiled SQL (a delta widened it, or a rebuild
                # reset it): recompile against it, or decline
                try:
                    compiled = generate_sql(shape, table_mirror)
                    self._compiled = compiled
                except Unsupported as unsupported:
                    mirror.counters.note_fallback(unsupported.slug)
                    return None
            try:
                rows = mirror.connection().execute(
                    compiled.sql, compiled.params
                ).fetchall()
            except Exception:
                # e.g. 64-bit SUM overflow that the 2**53 profile bound
                # could not rule out — the batched fold handles it
                mirror.counters.note_fallback("runtime_error")
                return None
            # snapshot the mirror state the ordinals index into while
            # still holding the lock: a concurrent offloaded query may
            # rebuild this TableMirror and replace keys/synced_ts, and
            # fetched ordinals must decode against the list their SQL
            # ran over (a delta only appends to it)
            mirror_keys = table_mirror.keys
            synced_ts = table_mirror.synced_ts
        mirror.counters.queries_offloaded += 1
        if compiled.kind == "aggregate":
            return self._decode_groups(
                rows, mirror_keys, synced_ts, compiled, keys
            )
        return self._decode_rows(rows, mirror_keys, synced_ts, keys)

    def _decode_rows(
        self,
        rows: list[tuple],
        mirror_keys: list[Any],
        ts: int,
        keys: bool,
    ) -> list:
        shape = self._shape
        if keys:
            return [mirror_keys[ordinal] for (ordinal,) in rows]
        relation = shape.relation
        table = relation._engine.table(shape.table_name)
        transforms = list(reversed(shape.transforms))  # innermost first
        out: list[tuple] = []
        for (ordinal,) in rows:
            key = mirror_keys[ordinal]
            data = table.read(key, ts)
            if data is TOMBSTONE:  # vacuumed mid-decode, as in scans
                continue
            value: Any = (
                RowTuple(data, relation._name)
                if isinstance(data, dict)
                else data
            )
            for transform in transforms:
                value = transform(key, value)
            out.append((key, value))
        return out

    def _decode_groups(
        self,
        rows: list[tuple],
        mirror_keys: list[Any],
        ts: int,
        compiled: CompiledQuery,
        keys: bool,
    ) -> list:
        shape = self._shape
        fused = shape.fused
        assert fused is not None
        relation = shape.relation
        table = relation._engine.table(shape.table_name)
        transforms = list(reversed(shape.transforms))
        by = fused._by
        out: list = []
        for row in rows:
            min_ordinal, count = row[0], row[1]
            if not count:  # the by=[] guard row of an empty input
                continue
            # decode the group key from the group's *first* member row:
            # exact Python objects (True stays bool, 1.0 stays float),
            # matching the dict key the naive fold would have kept
            rep_data = table.read(mirror_keys[min_ordinal], ts)
            if rep_data is TOMBSTONE or not isinstance(rep_data, dict):
                continue
            group_key = by.key_of(RowTuple(rep_data, relation._name))
            if keys:
                out.append(group_key)
                continue
            accs: dict[str, Any] = {}
            index = 2
            for agg_name, ncols, decoder in compiled.decoders:
                if ncols:
                    accs[agg_name] = decoder(row[index:index + ncols])
                else:
                    accs[agg_name] = decoder()
                index += ncols
            value: Any = fused._tuple_for(group_key, accs)
            for transform in transforms:
                value = transform(group_key, value)
            out.append((group_key, value))
        return out


def try_offload(
    fn: Any, optimized: Any, fired_rules: list[str], engine: Any
) -> OffloadPipeline | None:
    """Plan-time gate: an :class:`OffloadPipeline` for *optimized* over
    *engine* (the one the router resolved for *fn*), or ``None`` (with
    the fallback reason counted) to lower as usual."""
    if engine is None:
        return None
    mode = offload_mode()
    if mode == "off":
        existing = getattr(engine, "offload_mirror", None)
        if existing is not None:
            existing.counters.note_fallback("mode_off")
        return None
    try:
        shape = parse_graph(optimized)
    except Unsupported as unsupported:
        mirror_for(engine).counters.note_fallback(unsupported.slug)
        return None
    relation = shape.relation
    manager = relation._manager
    mirror = mirror_for(engine)
    if manager.current() is not None:
        mirror.counters.note_fallback("txn")
        return None
    if mode != "force":
        worthwhile, reason = offload_worthwhile(relation)
        if not worthwhile:
            mirror.counters.note_fallback(reason)
            return None
    with mirror.lock:
        try:
            table_mirror = mirror.ensure_synced(
                shape.table_name, manager.now()
            )
        except Exception:
            # a failed rebuild (the mirror stays marked stale) falls
            # back to the batched path, counted — not a planning error
            # that would degrade the whole query to naive interpretation
            mirror.counters.note_fallback("sync_error")
            return None
        if not table_mirror.mirrorable:
            mirror.counters.note_fallback("unmirrorable_rows")
            return None
        try:
            compiled = generate_sql(shape, table_mirror)
        except Unsupported as unsupported:
            mirror.counters.note_fallback(unsupported.slug)
            return None
    return OffloadPipeline(
        fn, optimized, fired_rules, shape, mirror, compiled
    )


def explain_offload(fn: Any, optimized: Any) -> list[str]:
    """The ``== offload ==`` section of ``explain()``: the verdict the
    router would reach for *optimized*, with the compiled SQL on
    success and the decline reason otherwise. Explaining a query is
    not running it: no fallback counter moves and no mirror sync runs
    — the SQL shown is compiled against the existing snapshot's column
    profiles, with a ``mirror:`` line saying whether the next run finds
    it fresh, applies logged commits, rebuilds it, or builds it."""
    from repro.exec.cache import engine_of

    mode = offload_mode()
    lines = [f"  mode: {mode}"]
    if mode == "off":
        lines.append("  verdict: batched (REPRO_OFFLOAD=off)")
        return lines
    engine = engine_of(fn)
    if engine is None:
        lines.append("  verdict: batched (no storage engine)")
        return lines
    try:
        shape = parse_graph(optimized)
    except Unsupported as unsupported:
        lines.append(
            f"  verdict: batched ({unsupported.slug}: {unsupported.detail})"
        )
        return lines
    relation = shape.relation
    if relation._manager.current() is not None:
        lines.append("  verdict: batched (open transaction)")
        return lines
    if mode != "force":
        worthwhile, reason = offload_worthwhile(relation)
        if not worthwhile:
            lines.append(f"  verdict: batched ({reason})")
            return lines
    mirror = mirror_for(engine)
    with mirror.lock:
        table_mirror = mirror._tables.get(shape.table_name)
        if table_mirror is None or table_mirror.source is None:
            # compiling needs the snapshot's column profiles, and
            # explain must not pay (or count) a whole-table copy just
            # to show the SQL — the first real run syncs and compiles
            lines.append(f"  verdict: offload ({mirror.backend})")
            lines.append(
                "  mirror: not yet synced"
                " (first run copies the table and compiles the SQL)"
            )
            return lines
        pending = mirror.pending(shape.table_name, relation._manager.now())
        if pending is None:
            lines.append("  mirror: stale (rebuild pending)")
        elif pending:
            commits = "commit" if len(pending) == 1 else "commits"
            lines.append(f"  mirror: stale ({len(pending)} {commits} to apply)")
        else:
            lines.append("  mirror: fresh")
        if not table_mirror.mirrorable:
            lines.append("  verdict: batched (unmirrorable rows)")
            return lines
        try:
            compiled = generate_sql(shape, table_mirror)
        except Unsupported as unsupported:
            lines.append(
                f"  verdict: batched "
                f"({unsupported.slug}: {unsupported.detail})"
            )
            return lines
    lines.append(f"  verdict: offload ({mirror.backend})")
    lines.append(f"  sql: {compiled.sql}")
    if compiled.params:
        lines.append(f"  params: {compiled.params!r}")
    return lines
