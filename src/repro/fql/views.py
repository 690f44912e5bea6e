"""Materialized views with maintenance (§4.4).

The paper: "we need to decide though whether to make these assignments
dynamic or whether we materialize their contents ... It is equivalent to a
deep copy-operation and comes with all the trade-offs known for
traditional materialized views (storage requirements, maintenance,
freshness)."

:class:`MaterializedView` makes those trade-offs observable: it snapshots
an FQL expression, answers from the snapshot (fast, possibly stale),
tracks staleness against the live expression, and refreshes either fully
or incrementally (diff-based: only changed mappings are re-materialized).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.fdm.domains import Domain
from repro.fdm.functions import (
    DerivedFunction,
    FDMFunction,
    values_equal,
)
from repro.fdm.relations import RelationFunction
from repro.fql.copy import deep_copy

__all__ = ["MaterializedView", "materialized_view"]


class MaterializedView(DerivedFunction):
    """A snapshot of an FQL expression, refreshable on demand."""

    op_name = "materialized_view"
    # class-level defaults: public counters must exist on the class so the
    # FDM __setattr__ data-assignment protocol leaves them alone
    refresh_count = 0
    last_refresh_changes = 0

    def __init__(self, expression: FDMFunction, name: str | None = None):
        super().__init__(
            (expression,), name=name or f"mv({expression.name})"
        )
        self.kind = expression.kind
        self._snapshot = deep_copy(expression)
        self.refresh_count = 0
        self.last_refresh_changes = 0
        #: Bumped whenever the snapshot's contents change; part of the
        #: plan-cache fingerprint of anything reading through this view.
        self._snapshot_version = 0
        #: Watermarks + per-operator state for incremental maintenance
        #: (DESIGN.md §9); ``None`` when the graph resists analysis
        #: (attach_state swallows analysis failures itself).
        from repro.ivm.view import attach_state

        self._ivm = attach_state(self)

    # -- reads come from the snapshot -------------------------------------------

    @property
    def domain(self) -> Domain:
        return self._snapshot.domain

    @property
    def is_enumerable(self) -> bool:
        return self._snapshot.is_enumerable

    def _apply(self, key: Any) -> Any:
        return self._snapshot._apply(key)

    def defined_at(self, *args: Any) -> bool:
        return self._snapshot.defined_at(*args)

    def keys(self) -> Iterator[Any]:
        return self._snapshot.keys()

    def items(self) -> Iterator[tuple[Any, Any]]:
        return self._snapshot.items()

    def __len__(self) -> int:
        return len(self._snapshot)

    # -- freshness --------------------------------------------------------------------

    @property
    def expression(self) -> FDMFunction:
        """The live expression this view materializes."""
        return self.source

    def stale_keys(self) -> tuple[set, set, set]:
        """(added, removed, changed) keys versus the live expression.

        Answered from the changelog watermark when change capture covers
        every base (no scan of either side); falls back to the full
        snapshot-vs-live comparison otherwise.
        """
        preview = self._stale_keys_preview()
        if preview is not None:
            return preview
        return self._stale_keys_scan()

    def _stale_keys_preview(self) -> tuple[set, set, set] | None:
        """Classify staleness from pending deltas, without applying them.

        ``None`` when the changelog cannot answer: IVM off, history
        truncated, an open transaction, or an operator without a rule.
        """
        state = self._ivm
        if state is None:
            return None
        from repro.ivm import ivm_mode
        from repro.ivm.operators import FALLBACK, clone_aux, derive_delta
        from repro.ivm.view import MaintainedView

        if ivm_mode() != "on" or state.in_active_transaction():
            return None
        if state.tainted or state.degraded():
            return None  # no watermark can certify this; scan instead
        for inner in state.inner_views.values():
            if isinstance(inner, MaintainedView):
                inner._maintenance_sync()  # settle nested views first
        pending = state.pending()
        if pending is None:
            return None
        base = pending[0]
        if not base:
            return set(), set(), set()
        delta = derive_delta(
            self.expression, base, clone_aux(state.aux), None
        )
        if delta is FALLBACK:
            return None
        return delta.classify()

    def _stale_keys_scan(self) -> tuple[set, set, set]:
        """The O(snapshot + live) comparison (the pre-IVM behaviour)."""
        live = self.source
        snapshot_keys = set(self._snapshot.keys())
        live_keys = set(live.keys())
        added = live_keys - snapshot_keys
        removed = snapshot_keys - live_keys
        changed = set()
        for key in snapshot_keys & live_keys:
            if not values_equal(self._snapshot._apply(key),
                                live._apply(key)):
                changed.add(key)
        return added, removed, changed

    def is_stale(self) -> bool:
        added, removed, changed = self.stale_keys()
        return bool(added or removed or changed)

    def maintenance_version(self) -> int:
        """Snapshot-content version, for plan-cache fingerprints."""
        return self._snapshot_version

    def refresh(self, incremental: bool = True) -> int:
        """Bring the snapshot up to date; returns mappings touched.

        Incremental refresh routes through the delta engine when a
        changelog covers the expression's bases (``REPRO_IVM=off``
        restores the diff), patching only what changed; the diff-based
        path re-materializes the differing mappings after a full
        comparison. ``incremental=False`` rebuilds the whole snapshot
        (a fresh deep copy).
        """
        self.refresh_count += 1
        state = self._ivm
        if not incremental:
            before = state.present() if state is not None else None
            old_size = len(self._snapshot)
            self._snapshot = deep_copy(self.source)
            self._snapshot_version += 1
            if state is not None:
                state.reset(before)
            self.last_refresh_changes = max(old_size, len(self._snapshot))
            return self.last_refresh_changes
        from repro.ivm.view import apply_incremental

        touched = apply_incremental(self)
        if touched is None:
            before = state.present() if state is not None else None
            touched = self._apply_diff(*self._stale_keys_scan())
            if touched:
                self._snapshot_version += 1
            if state is not None:
                state.reset(before)
        self.last_refresh_changes = touched
        return touched

    def _apply_diff(self, added: set, removed: set, changed: set) -> int:
        """Patch the snapshot from scan-classified key sets."""
        live = self.source
        for key in removed:
            del self._snapshot[key]
        for key in added | changed:
            value = live._apply(key)
            if isinstance(value, FDMFunction):
                value = deep_copy(value)
            self._snapshot[key] = value
        return len(added) + len(removed) + len(changed)

    def op_params(self) -> dict[str, Any]:
        return {"refreshes": self.refresh_count}

    def rebuild(self, children: tuple[FDMFunction, ...]) -> "MaterializedView":
        (expression,) = children
        return MaterializedView(expression, name=self._name)

    tuples = RelationFunction.tuples
    first = RelationFunction.first
    count = RelationFunction.count
    attributes = RelationFunction.attributes
    to_rows = RelationFunction.to_rows


def materialized_view(
    expression: FDMFunction, name: str | None = None
) -> MaterializedView:
    """Materialize *expression* as a refreshable view: ``DB['mv'] =
    materialized_view(foo)`` keeps the maintenance handle, unlike the
    plain ``copy(foo)`` snapshot."""
    return MaterializedView(expression, name=name)
