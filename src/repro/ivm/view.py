"""Maintained views: materialized snapshots kept fresh by deltas.

:class:`MaintainedView` extends :class:`~repro.fql.views.MaterializedView`
with automatic maintenance: it tracks a watermark per change source
(storage-engine changelogs for stored relations, per-relation capture
logs for material ones), and on read — or eagerly on commit — consumes
the pending deltas through :func:`~repro.ivm.operators.derive_delta`,
patching only the snapshot mappings that actually changed.

The machinery is shared: plain ``MaterializedView.refresh(incremental=
True)`` routes through :func:`apply_incremental` too when a changelog is
available, and falls back to the classic full-diff when it is not
(truncated history, an operator without a delta rule, ``REPRO_IVM=off``,
or an open transaction whose buffered writes would contaminate the
delta-join probes).
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Iterator

from repro._util import MISSING
from repro.fdm.functions import FDMFunction
from repro.ivm.changelog import ensure_capture
from repro.ivm.delta import Delta
from repro.ivm.operators import FALLBACK, derive_delta
from repro.fql.views import MaterializedView

__all__ = [
    "MaintenanceStats",
    "IVMState",
    "MaintainedView",
    "maintained_view",
    "attach_state",
    "apply_incremental",
]


class MaintenanceStats:
    """Counters a maintained view exposes as ``maintenance_stats``."""

    __slots__ = (
        "syncs",
        "commits_consumed",
        "deltas_applied",
        "keys_touched",
        "group_refolds",
        "fallback_recomputes",
        "diff_refreshes",
        "partition_skips",
    )

    def __init__(self) -> None:
        for field in self.__slots__:
            setattr(self, field, 0)

    def as_dict(self) -> dict[str, int]:
        return {field: getattr(self, field) for field in self.__slots__}

    def __repr__(self) -> str:
        return f"<MaintenanceStats {self.as_dict()}>"


class IVMState:
    """Watermarks, per-node maintained state, and stats for one view."""

    def __init__(self, expression: FDMFunction):
        self.expression = expression
        self.engines: dict[int, Any] = {}
        #: (id(engine), table name) → stored leaf functions on that table
        self.stored: dict[tuple[int, str], list[FDMFunction]] = {}
        self.material: dict[int, Any] = {}
        self.managers: list[Any] = []
        self.inner_views: dict[int, Any] = {}
        self.watermarks: dict[int, int] = {}
        self.view_versions: dict[int, int] = {}
        #: node id → operator state (group membership, accumulators)
        self.aux: dict[Any, Any] = {}
        self.stats = MaintenanceStats()
        #: True when the graph reads data no changelog describes —
        #: computed/opaque leaves, or rows holding live nested
        #: functions whose in-place mutations capture cannot see.
        self.uncapturable = False
        self._walk(expression, set())
        from repro.partition.prune import expression_partition_prunes

        #: id(stored leaf) → partitions any reader of it can see after
        #: static pruning; commits tagged entirely outside that set are
        #: invisible to the view and skip maintenance (DESIGN.md §10).
        self.partition_prunes = expression_partition_prunes(expression)
        self.advance()
        #: A snapshot taken inside an open transaction may contain
        #: buffered uncommitted writes no changelog record describes;
        #: the first out-of-transaction sync must then recompute.
        self.tainted = self.in_active_transaction()

    # -- graph discovery --------------------------------------------------------

    def _walk(self, fn: FDMFunction, seen: set) -> None:
        if id(fn) in seen:
            return
        seen.add(id(fn))
        from repro.fdm.relations import MaterialRelationFunction
        from repro.storage.relation import StoredRelationFunction

        if isinstance(fn, MaterializedView):
            # reads stop at the nested view's snapshot
            self.inner_views[id(fn)] = fn
            return
        if isinstance(fn, StoredRelationFunction):
            engine = fn._engine
            engine.ensure_changelog()
            self.engines[id(engine)] = engine
            self.stored.setdefault(
                (id(engine), fn.table_name), []
            ).append(fn)
            if fn._manager not in self.managers:
                self.managers.append(fn._manager)
            for _key, data in engine.table(fn.table_name).scan_at(2**62):
                if isinstance(data, FDMFunction):
                    # a live nested function in a row mutates without a
                    # changelog record; capture cannot cover this graph
                    self.uncapturable = True
                    break
            return
        if isinstance(fn, MaterialRelationFunction):
            ensure_capture(fn)
            self.material[id(fn)] = fn
            if any(
                isinstance(value, FDMFunction)
                for value in fn._rows.values()
            ):
                self.uncapturable = True
            return
        from repro.fdm.databases import DatabaseFunction
        from repro.fdm.functions import DerivedFunction

        if isinstance(fn, DatabaseFunction) and not isinstance(
            fn, DerivedFunction
        ):
            # database containers hold their relations as mappings, not
            # children: walk the values so joins over subdatabases find
            # their base tables
            for _name, value in fn.items():
                if isinstance(value, FDMFunction):
                    self._walk(value, seen)
            return
        children = getattr(fn, "children", ())
        if not children:
            # an opaque leaf (computed relation, λ, external state):
            # no changelog describes it, so watermarks cannot certify
            # freshness — refuse, and let the scan paths take over
            self.uncapturable = True
            return
        for child in children:
            self._walk(child, seen)

    # -- watermark protocol ------------------------------------------------------

    def in_active_transaction(self) -> bool:
        """True when a base engine has an open transaction on this thread
        (its buffered writes would contaminate current-state probes)."""
        return any(m.current() is not None for m in self.managers)

    def degraded(self) -> bool:
        """True once any watched changelog saw a live nested function:
        from then on mutations can bypass capture, watermarks cannot
        certify freshness, and only scan-based maintenance is sound."""
        return any(
            engine.changelog is not None and engine.changelog.uncapturable
            for engine in self.engines.values()
        ) or any(
            rel._changes.uncapturable for rel in self.material.values()
        )

    def dirty(self) -> bool:
        """Did any change source move past our watermark?"""
        for engine in self.engines.values():
            if engine.changelog.watermark > self.watermarks[id(engine)]:
                return True
        for rel in self.material.values():
            if rel._changes.watermark > self.watermarks[id(rel)]:
                return True
        for vid, view in self.inner_views.items():
            if view._snapshot_version != self.view_versions[vid]:
                return True
        return False

    def pending(
        self,
    ) -> tuple[dict[int, Delta], int, dict[int, int]] | None:
        """Net base deltas since the watermarks, the number of records
        consumed, and — per change source — the watermark those records
        reach, for :meth:`advance`.

        ``None`` means the history needed is gone (truncated changelog,
        or a nested view refreshed under us): recompute fully.
        """
        base: dict[int, Delta] = {}
        consumed = 0
        reached: dict[int, int] = {}

        def drain(source: Any, log: Any) -> list | None:
            # read the watermark *before* the records: a commit landing
            # after since() must stay pending, so with no records the
            # source has provably reached only what it showed before
            mark = log.watermark
            records = log.since(self.watermarks[id(source)])
            if records is not None:
                reached[id(source)] = records[-1][0] if records else mark
            return records

        for engine in self.engines.values():
            records = drain(engine, engine.changelog)
            if records is None:
                return None
            consumed += len(records)
            for _ts, tables in records:
                for table, delta in tables.items():
                    for leaf in self.stored.get((id(engine), table), ()):
                        base.setdefault(id(leaf), Delta()).merge(delta)
        for rel in self.material.values():
            records = drain(rel, rel._changes)
            if records is None:
                return None
            consumed += len(records)
            for _ts, sources in records:
                for delta in sources.values():
                    base.setdefault(id(rel), Delta()).merge(delta)
        for vid, view in self.inner_views.items():
            if view._snapshot_version != self.view_versions[vid]:
                return None  # a nested snapshot moved: no delta exists
        return base, consumed, reached

    def present(self) -> tuple[dict[int, int], dict[int, int]]:
        """Every change source's watermark and every nested view's
        version, now. A full rebuild takes this *before* it reads
        anything and hands it to :meth:`reset`, so a commit landing
        mid-rebuild stays pending instead of being jumped over."""
        marks = {id(e): e.changelog.watermark for e in self.engines.values()}
        for rel in self.material.values():
            marks[id(rel)] = rel._changes.watermark
        versions = {
            vid: view._snapshot_version
            for vid, view in self.inner_views.items()
        }
        return marks, versions

    def advance(self, reached: dict[int, int] | None = None) -> None:
        """Move the watermarks to what :meth:`pending` consumed, or —
        without *reached*, when nothing has been read yet — to the
        present."""
        if reached is not None:
            # nested-view versions stay put: pending() verified them
            self.watermarks.update(reached)
            return
        marks, versions = self.present()
        self.watermarks.update(marks)
        self.view_versions.update(versions)

    def reset(self, before: tuple[dict[int, int], dict[int, int]]) -> None:
        """After a non-delta snapshot rebuild: state is stale, drop it,
        and move to exactly what the rebuild read — *before*, the
        :meth:`present` it took before reading.

        A rebuild inside an open transaction copied that transaction's
        buffered view of the data, so the state stays (or becomes)
        tainted until a rebuild happens outside one — a rollback must
        not leave phantoms the watermarks would then certify as fresh.
        """
        self.aux.clear()
        marks, versions = before
        self.watermarks.update(marks)
        self.view_versions.update(versions)
        self.tainted = self.in_active_transaction()


def attach_state(view: MaterializedView) -> IVMState | None:
    """Build the IVM state for a view; ``None`` if the graph resists.

    ``None`` also covers graphs with uncapturable sources (computed
    leaves, rows holding live nested functions): for those, watermarks
    cannot certify freshness, so every maintenance entry point falls
    back to the pre-IVM scan behaviour instead of silently reporting
    "clean".
    """
    try:
        state = IVMState(view.expression)
    except Exception:
        return None
    if state.uncapturable:
        return None
    return state


# ---------------------------------------------------------------------------
# The shared incremental-application engine
# ---------------------------------------------------------------------------


def apply_incremental(view: MaterializedView) -> int | None:
    """Bring ``view._snapshot`` current by consuming pending deltas.

    Returns the number of snapshot mappings touched, or ``None`` when
    the delta path cannot be used — ``REPRO_IVM=off``, no captured
    bases, an open transaction, truncated history, or an operator
    without a propagation rule. The caller decides the fallback.
    """
    from repro.ivm import ivm_mode

    state = getattr(view, "_ivm", None)
    if state is None or ivm_mode() != "on":
        return None
    if state.in_active_transaction():
        return None
    if state.tainted:
        return None  # snapshot born in a transaction: recompute once
    if state.degraded():
        return None  # capture got poisoned: only scans are sound now
    for inner in state.inner_views.values():
        if isinstance(inner, MaintainedView):
            inner._maintenance_sync()  # settle nested views first
    if not state.dirty():
        return 0
    pending = state.pending()
    if pending is None:
        return None
    base, consumed, reached = pending
    relevant = {
        leaf_id: delta
        for leaf_id, delta in base.items()
        if _delta_reaches_view(state, leaf_id, delta)
    }
    if base and not relevant:
        # every change landed in partitions the view's filters prune
        # away: nothing it reads moved, so just advance the watermarks
        state.advance(reached)
        state.stats.syncs += 1
        state.stats.commits_consumed += consumed
        state.stats.partition_skips += 1
        return 0
    base = relevant
    if not base:
        state.advance(reached)
        return 0
    delta = derive_delta(view.expression, base, state.aux, state.stats)
    if delta is FALLBACK:
        return None
    _apply_delta_to_snapshot(view, delta)
    state.advance(reached)
    state.stats.syncs += 1
    state.stats.commits_consumed += consumed
    state.stats.deltas_applied += sum(len(d) for d in base.values())
    state.stats.keys_touched += len(delta)
    if delta:
        _notify_delta_listeners(view, delta)
    return len(delta)


def _notify_delta_listeners(view: MaterializedView, delta: Any) -> None:
    """Fan an applied view delta out to subscribers (DESIGN.md §11).

    ``delta`` is the :class:`Delta` just patched into the snapshot, or
    ``None`` after a non-incremental rebuild (the subscriber must
    resync from the full snapshot). Listener failures never propagate:
    maintenance correctness cannot depend on a push channel.
    """
    for listener in tuple(getattr(view, "_delta_listeners", ()) or ()):
        try:
            listener(delta)
        except Exception:
            pass


def _delta_reaches_view(state: IVMState, leaf_id: int, delta: Delta) -> bool:
    """Can this base delta affect anything the expression reads?

    False only when the leaf is a stored table, the delta carries
    segment tags, and every tag falls in a segment that *all*
    occurrences of the leaf statically prune away — the one case where
    skipping is provably sound.
    """
    entry = state.partition_prunes.get(leaf_id)
    if entry is None:
        return True  # not a stored leaf (or analysis declined)
    tags = delta.partition_tags
    if tags is None:
        return True  # untagged change: could be anywhere
    _leaf, surviving = entry
    return bool(tags & surviving)


def _apply_delta_to_snapshot(view: MaterializedView, delta: Delta) -> None:
    from repro.fdm.databases import MaterialDatabaseFunction
    from repro.fdm.relations import MaterialRelationFunction

    snap = view._snapshot
    if not delta:
        return
    if isinstance(snap, MaterialDatabaseFunction):
        for key, (_old, new) in delta.items():
            if new is MISSING:
                snap._functions.pop(key, None)
            else:
                snap._functions[key] = new
        snap._version += 1
    elif isinstance(snap, MaterialRelationFunction):
        for key, (_old, new) in delta.items():
            if new is MISSING:
                snap._rows.pop(key, None)
            elif (
                isinstance(new, FDMFunction)
                and new.kind == "tuple"
                and new.is_enumerable
            ):
                snap._rows[key] = dict(new.items())
            else:
                snap._rows[key] = new
        snap._version += 1
    else:  # a snapshot shape deltas cannot patch
        raise TypeError(
            f"cannot patch snapshot of type {type(snap).__name__}"
        )
    view._snapshot_version += 1


# ---------------------------------------------------------------------------
# The maintained view
# ---------------------------------------------------------------------------


class MaintainedView(MaterializedView):
    """A materialized view that keeps itself fresh.

    Lazy by default: every read first consumes the changelog up to the
    current watermark. With ``eager=True`` the view also syncs inside
    each base commit (via the engine's :class:`ViewRegistry`), so reads
    never pay maintenance latency. ``maintenance_stats`` reports what
    the upkeep cost: deltas applied, keys touched, per-group refolds,
    and how often the view had to fall back to recomputation.
    """

    op_name = "maintained_view"

    def __init__(
        self,
        expression: FDMFunction,
        name: str | None = None,
        eager: bool = False,
    ):
        super().__init__(
            expression, name=name or f"mview({expression.name})"
        )
        self._eager = bool(eager)
        self._in_sync = False
        #: Serializes maintenance: under a concurrent server, commits
        #: from many session threads notify eager views simultaneously,
        #: and reads race them — per-node aux state and the snapshot
        #: must only ever be patched by one thread at a time. Reentrant
        #: because nested maintained views sync through their parent.
        self._sync_lock = threading.RLock()
        #: Subscription callbacks fed by ``_notify_delta_listeners``.
        self._delta_listeners: list[Any] = []
        self._register()

    # -- registration ------------------------------------------------------------

    def _register(self) -> None:
        state = self._ivm
        if state is None:
            return
        from repro.ivm.registry import registry_for

        for engine in state.engines.values():
            registry_for(engine).register(self)
        if self._eager:
            ref = weakref.ref(self)

            def subscriber_for(log: Any):
                def on_mutation(_ts: int) -> None:
                    live = ref()
                    if live is None:
                        # the view is gone: self-remove so dropped
                        # eager views do not accumulate dead callbacks
                        try:
                            log.subscribers.remove(on_mutation)
                        except ValueError:
                            pass
                        return
                    if live._eager:
                        live._maintenance_sync()

                return on_mutation

            for rel in state.material.values():
                log = rel._changes
                log.subscribers.append(subscriber_for(log))

    def _on_base_commit(self, _commit_ts: int) -> None:
        """ViewRegistry hook: eager views sync inside the commit path."""
        if self._eager:
            self._maintenance_sync()

    # -- maintenance -------------------------------------------------------------

    def _maintenance_sync(self) -> int:
        """Consume pending changes; returns snapshot mappings touched."""
        with self._sync_lock:
            return self._maintenance_sync_locked()

    def _maintenance_sync_locked(self) -> int:
        if self._in_sync:
            return 0
        state = self._ivm
        if state is not None and state.in_active_transaction():
            return 0  # defer: serve the (stale) snapshot inside open txns
        self._in_sync = True
        try:
            from repro.ivm import ivm_mode

            if (
                state is not None
                and ivm_mode() == "on"
                and not state.degraded()
            ):
                touched = apply_incremental(self)
                if touched is not None:
                    return touched
                self._full_recompute()
                return self.last_refresh_changes
            # REPRO_IVM=off, no analyzable state, or poisoned capture:
            # scan-and-diff keeps the snapshot honest either way
            return self._diff_sync()
        finally:
            self._in_sync = False

    def _full_recompute(self) -> None:
        """The FALLBACK path: rebuild the snapshot, drop derived state."""
        from repro.fql.copy import deep_copy

        state = self._ivm
        before = state.present() if state is not None else None
        old_size = len(self._snapshot)
        self._snapshot = deep_copy(self.source)
        self._snapshot_version += 1
        self.last_refresh_changes = max(old_size, len(self._snapshot))
        if state is not None:
            state.reset(before)
            state.stats.fallback_recomputes += 1
            state.stats.syncs += 1
        _notify_delta_listeners(self, None)  # subscribers must resync

    def _diff_sync(self) -> int:
        """The ``REPRO_IVM=off`` path: classic scan-and-diff upkeep."""
        state = self._ivm
        if state is not None:
            for inner in state.inner_views.values():
                if isinstance(inner, MaintainedView):
                    inner._maintenance_sync()  # settle nested views first
            if (
                not state.tainted
                and not state.degraded()
                and not state.dirty()
            ):
                return 0
        before = state.present() if state is not None else None
        touched = self._apply_diff(*self._stale_keys_scan())
        if touched:
            self._snapshot_version += 1
            _notify_delta_listeners(self, None)  # diff path: resync
        if state is not None:
            state.reset(before)
            state.stats.diff_refreshes += 1
            state.stats.syncs += 1
        return touched

    # -- reads: sync first -------------------------------------------------------

    @property
    def domain(self) -> Any:
        self._maintenance_sync()
        return self._snapshot.domain

    @property
    def is_enumerable(self) -> bool:
        self._maintenance_sync()
        return self._snapshot.is_enumerable

    def _apply(self, key: Any) -> Any:
        self._maintenance_sync()
        return self._snapshot._apply(key)

    def defined_at(self, *args: Any) -> bool:
        self._maintenance_sync()
        return self._snapshot.defined_at(*args)

    def keys(self) -> Iterator[Any]:
        self._maintenance_sync()
        return self._snapshot.keys()

    def items(self) -> Iterator[tuple[Any, Any]]:
        self._maintenance_sync()
        return self._snapshot.items()

    def __len__(self) -> int:
        self._maintenance_sync()
        return len(self._snapshot)

    # -- public API --------------------------------------------------------------

    def sync(self) -> int:
        """Force maintenance now; returns snapshot mappings touched."""
        return self._maintenance_sync()

    def refresh(self, incremental: bool = True) -> int:
        """Kept for MaterializedView API compatibility: incremental
        refresh is a sync; a full refresh rebuilds and resets state."""
        if incremental:
            self.refresh_count += 1
            touched = self._maintenance_sync()
            self.last_refresh_changes = touched
            return touched
        return super().refresh(incremental=False)

    def add_delta_listener(self, listener: Any) -> None:
        """Subscribe to applied deltas (server SUBSCRIBE, DESIGN.md §11).

        *listener* is called with the applied :class:`Delta` after each
        incremental sync that touched the snapshot, or with ``None``
        after a full rebuild (the subscriber must re-read the snapshot).
        """
        self._delta_listeners.append(listener)

    def remove_delta_listener(self, listener: Any) -> None:
        try:
            self._delta_listeners.remove(listener)
        except ValueError:
            pass

    def maintenance_version(self) -> int:
        """Settle pending maintenance first, so plan-cache fingerprints
        key on the snapshot state the plan will actually read."""
        self._maintenance_sync()
        return self._snapshot_version

    @property
    def maintenance_stats(self) -> dict[str, int]:
        state = self._ivm
        if state is None:
            return MaintenanceStats().as_dict()
        return state.stats.as_dict()

    @property
    def eager(self) -> bool:
        return self._eager

    def op_params(self) -> dict[str, Any]:
        return {"eager": self._eager, "refreshes": self.refresh_count}

    def rebuild(self, children: tuple[FDMFunction, ...]) -> "MaintainedView":
        (expression,) = children
        return MaintainedView(
            expression, name=self._name, eager=self._eager
        )


def maintained_view(
    expression: FDMFunction,
    name: str | None = None,
    eager: bool = False,
) -> MaintainedView:
    """Materialize *expression* as a self-maintaining view.

    ``DB['dash'] = maintained_view(expr)`` answers like the materialized
    snapshot of §4.4, but consumes the storage engine's changelog so the
    snapshot follows base DML without recomputation; ``eager=True``
    moves the upkeep from read time to commit time.
    """
    return MaintainedView(expression, name=name, eager=eager)
