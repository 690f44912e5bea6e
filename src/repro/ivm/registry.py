"""Per-database view registries.

Every :class:`~repro.storage.engine.StorageEngine` owns (lazily) one
:class:`ViewRegistry`. Maintained views whose expressions read that
engine register themselves; the transaction manager notifies the
registry after each successful commit so *eager* views apply the fresh
deltas immediately, while lazy views wait for their next read. Views
are held weakly — dropping the last reference unregisters it.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any

__all__ = ["ViewRegistry", "registry_for"]


class ViewRegistry:
    """Weakly-held maintained views interested in one change source.

    Registration and pruning are lock-protected: server sessions
    subscribe and unsubscribe views concurrently with commit
    notifications from other sessions (DESIGN.md §11), and the
    prune-on-read rebuild of the reference list must not drop a
    registration racing in from another thread.
    """

    def __init__(self) -> None:
        self._refs: list[weakref.ref] = []
        self._lock = threading.Lock()

    def register(self, view: Any) -> None:
        with self._lock:
            if any(ref() is view for ref in self._refs):
                return
            self._refs.append(weakref.ref(view))

    def views(self) -> list[Any]:
        """The live registered views (dead references are pruned)."""
        with self._lock:
            alive = []
            refs = []
            for ref in self._refs:
                view = ref()
                if view is not None:
                    alive.append(view)
                    refs.append(ref)
            self._refs = refs
            return alive

    def notify_commit(self, commit_ts: int) -> None:
        """Fan a committed transaction out to eager views.

        The commit is already durable when this runs, so a maintenance
        failure must not surface as a commit failure (a retried
        "failed" transaction would double-apply); the same error will
        re-raise at the view's next read, where lazy views meet it too.
        """
        from repro.obs.trace import span

        for view in self.views():
            try:
                with span("ivm.sync", view=type(view).__name__):
                    view._on_base_commit(commit_ts)
            except Exception:
                pass

    def __len__(self) -> int:
        return len(self.views())

    def __repr__(self) -> str:
        return f"<ViewRegistry {len(self)} views>"


def registry_for(engine: Any) -> ViewRegistry:
    """The engine's registry, created on first use."""
    registry = getattr(engine, "view_registry", None)
    if registry is None:
        registry = ViewRegistry()
        engine.view_registry = registry
    return registry
