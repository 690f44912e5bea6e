"""Plan cache: LRU of lowered pipelines keyed by graph fingerprint.

Repeated queries over the same data skip optimize+lower entirely. The
fingerprint of a derived-function graph covers the operator structure
(classes, transparent predicate sources, parameters — each operator's
``token`` in :mod:`repro.operators`) plus, at the leaves, the
*identity and data version* of each base function. DML bumps
the version (a mutation counter on material functions, the WAL length on
stored ones), so a mutated database simply stops matching its old cache
entries — invalidation is structural, with the LRU evicting the garbage.

The cache is per database: graphs rooted in a stored database use the
cache attached to that database's :class:`StorageEngine`; purely
in-memory graphs share a process-wide default cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

import repro.operators as operators
from repro._util import attached
from repro.fdm.databases import DatabaseFunction
from repro.fdm.functions import DerivedFunction, FDMFunction
from repro.storage.relation import StoredRelationFunction

__all__ = [
    "PlanCache",
    "engine_of",
    "fingerprint",
    "cache_for",
    "cache_of",
    "default_plan_cache",
]


class PlanCache:
    """A small LRU keyed by graph fingerprint, with hit/miss counters.

    Mutations are lock-protected: one database's cache is shared by
    every concurrent server session reading through its engine
    (DESIGN.md §11), so LRU reordering and eviction must not race.
    """

    def __init__(self, maxsize: int = 256):
        self.maxsize = maxsize
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Any) -> Any:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return f"<PlanCache {self.stats()}>"


_DEFAULT_CACHE = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide cache used for purely in-memory graphs."""
    return _DEFAULT_CACHE


def engine_of(fn: FDMFunction) -> Any:
    """The first storage engine reachable from the graph's leaves, or
    ``None`` for purely in-memory graphs. The routing key for every
    per-database attachment: the plan cache here, and the workload
    profile and event log in :mod:`repro.obs`."""
    if isinstance(fn, StoredRelationFunction):
        return fn._engine
    if isinstance(fn, DatabaseFunction) and not isinstance(
        fn, DerivedFunction
    ):
        # a database container (a join's input) holds its relations as
        # mapping values, not children
        below = (v for _n, v in fn.items() if isinstance(v, FDMFunction))
    else:
        below = getattr(fn, "children", ())
    for child in below:
        engine = engine_of(child)
        if engine is not None:
            return engine
    return None


def cache_of(engine: Any) -> PlanCache:
    """The lazily-attached plan cache of *engine* (the process-wide
    default for ``None``)."""
    return attached(engine, "plan_cache", PlanCache, _DEFAULT_CACHE)


def cache_for(fn: FDMFunction) -> PlanCache:
    """The per-database plan cache owning this graph."""
    return cache_of(engine_of(fn))


def fingerprint(fn: FDMFunction) -> Any:
    """A hashable token identifying graph structure + leaf data versions.

    Equal fingerprints mean "the same plan is valid"; a DML statement
    anywhere beneath the graph changes a leaf version and therefore the
    fingerprint (the plan-cache invalidation tests pin this down). It is
    the graph's plan token read with literals; the workload profiler's
    :func:`~repro.obs.workload.fingerprint_of` reads the same token
    without them.
    """
    return operators.plan_token(fn, literals=True)
