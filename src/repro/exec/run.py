"""Routing: how derived-function enumeration reaches the executor.

``DerivedFunction.items()/keys()`` call :func:`route_items` /
:func:`route_keys`. In ``batch`` mode (the default) the graph is
fingerprinted, looked up in the per-database plan cache, and — on a miss
— optimized and lowered into a physical pipeline. In ``naive`` mode
(``REPRO_EXEC=naive``, or :func:`set_exec_mode`) all three return ``None``
and the caller falls back to the original per-key interpretation; the
differential test suite runs every operator under both modes and asserts
identical results.

Planning is guarded against re-entrancy: optimizer rules may sample a
subexpression's data while the same fingerprint is being planned, in
which case the inner enumeration simply runs naive.

An enumeration somebody is watching (the resource meter, the workload
profiler, slow-query capture, a trace) passes through exactly one
generator, :func:`_enumerate`, under one
:class:`~repro.obs.context.QueryContext`; one nobody watches gets the
pipeline's own stream.
"""

from __future__ import annotations

import threading
from time import perf_counter_ns
from typing import Any, Iterator

from repro.config import EXEC
from repro.fdm.functions import DerivedFunction, FDMFunction
from repro.exec.cache import cache_of, engine_of, fingerprint
from repro.exec.lower import PhysicalPipeline, lower
from repro.obs.context import QueryContext, _local

__all__ = [
    "exec_mode",
    "set_exec_mode",
    "using_exec_mode",
    "route_items",
    "route_keys",
    "route_batches",
    "pipeline_for",
    "join_bindings",
]

#: Sentinel cached for graphs whose root has no specialized lowering.
_NAIVE = object()


#: ``"batch"`` (default) or ``"naive"`` (the per-key escape hatch);
#: ``set_`` forces a mode for this process, ``using_`` temporarily (the
#: differential tests).
exec_mode = EXEC.get
set_exec_mode = EXEC.set
using_exec_mode = EXEC.using


class _Planning(threading.local):
    def __init__(self) -> None:
        self.inflight: set = set()


_planning = _Planning()


def pipeline_rules() -> list:
    """The rewrite rules transparent routing is allowed to use.

    Enumerating a derived function must yield *exactly* the naive keys in
    the naive order — so the executor only applies rules that preserve
    both. Excluded (available to explicit :func:`repro.optimizer.optimize`
    calls only): ``ReorderJoinAtoms`` and ``PushFilterIntoJoin`` change a
    join's key tuples or atom order, ``FilterToIndexLookup`` swaps source
    order for index order.
    """
    from repro.optimizer.rules import (
        CollapseProjects,
        FilterToKeyLookup,
        FuseFilters,
        FuseGroupAggregate,
        PushFilterBelowGroupAggregate,
        PushFilterBelowOrder,
        PushFilterBelowSetOps,
    )

    return [
        FuseFilters(),
        PushFilterBelowOrder(),
        PushFilterBelowSetOps(),
        PushFilterBelowGroupAggregate(),
        FilterToKeyLookup(),
        FuseGroupAggregate(),
        CollapseProjects(),
    ]


def pipeline_for(fn: FDMFunction) -> PhysicalPipeline | None:
    """The physical pipeline for *fn* (cached, planned on a miss), or
    ``None`` when it runs per key."""
    from repro.obs.trace import span
    from repro.operators import operator_of

    if not isinstance(fn, DerivedFunction):
        # a base function's plan is its scan: nothing to optimize or
        # offload, and nothing worth a cache entry that would pin it
        return lower(fn, engine=engine_of(fn))
    if operator_of(fn).lower is None:
        return None  # it runs per key: there is nothing to plan
    try:
        # Offload mode is part of the plan: a compiled-to-SQL pipeline
        # cached under REPRO_OFFLOAD=force must not serve the off mode.
        # (The kernel backend is NOT part of the key — numpy vs python
        # dispatch happens per batch at run time.)
        from repro.compile import offload_mode

        key = (fingerprint(fn), offload_mode())
    except Exception:
        return None
    if key in _planning.inflight:
        return None
    with span("plan") as sp:
        # the plan's engine is resolved here, once: it picks the cache,
        # and the plan carries it for everything that observes a run
        engine = engine_of(fn)
        cache = cache_of(engine)
        cached = cache.get(key)
        if cached is not None:
            sp.annotate(plan_cache="hit")
            return None if cached is _NAIVE else cached
        sp.annotate(plan_cache="miss")
        _planning.inflight.add(key)
        try:
            from repro.optimizer import optimize

            trace: list[str] = []
            optimized = optimize(fn, rules=pipeline_rules(), trace=trace)
            # third physical mode: compile to SQL on the offload backend
            # when the shape is expressible and the cost model agrees;
            # try_offload returning None means "lower as usual"
            from repro.compile import try_offload

            pipeline = try_offload(fn, optimized, trace, engine)
            if pipeline is None:
                pipeline = lower(
                    optimized, logical=fn, fired_rules=trace, engine=engine
                )
        except Exception:
            # a planning failure must never break a query: fall back to
            # the per-key interpretation, and remember the verdict
            pipeline = None
        finally:
            _planning.inflight.discard(key)
        cache.put(key, pipeline if pipeline is not None else _NAIVE)
        if pipeline is not None:
            # plan-cache miss is the workload profiler's registration
            # point: a fingerprint re-lowering to a different plan is
            # detected here, deterministically, off the enumeration
            # hot path (note_planned no-ops under REPRO_PROFILE=off)
            from repro.obs.workload import note_planned

            note_planned(pipeline)
        return pipeline


def route_items(fn: FDMFunction) -> Iterator[tuple] | None:
    """Batched (key, value) stream for *fn*, or ``None`` to run naive."""
    return _route(fn, "iter_entries")


def route_keys(fn: FDMFunction) -> Iterator[Any] | None:
    """Batched key stream for *fn*, or ``None`` to run naive."""
    return _route(fn, "iter_keys")


def route_batches(fn: FDMFunction) -> Iterator[Any] | None:
    """*fn*'s pipeline output batch by batch, or ``None`` to run naive.

    Each batch is a :class:`~repro.exec.batch.ColumnBatch` or a list of
    ``(key, value)`` entries; together they are exactly
    :func:`route_items`' stream. A stored or material leaf lowers to a
    scan, so its batches are the segment's column image. Close the
    stream when stopping early: the query reports when it closes.
    """
    return _route(fn, "iter_batches")


def _route(fn: FDMFunction, stream: str) -> Iterator[Any] | None:
    if exec_mode() != "batch":
        return None
    pipeline = pipeline_for(fn)
    if pipeline is None:
        return None
    query = QueryContext.watching(pipeline)
    if query is None:
        # inner work of an enclosing query, or nobody is watching: the
        # raw stream, at zero added per-row cost
        return getattr(pipeline, stream)()
    return _enumerate(query, stream)


def _enumerate(query: QueryContext, stream: str) -> Iterator[Any]:
    """The one generator between a pipeline and an observed consumer.

    Installs *query* around each pull (generator frames run on the
    consumer's thread between yields, and the consumer may carry a
    context of its own that ours must not shadow), counts rows (a
    batch counts its length) and reads the clock once, and reports
    that one measurement when the stream closes, however it closes.
    """
    plan = query.begin()
    inner = getattr(plan, stream)()
    batched = stream == "iter_batches"
    live = query.meter if query.budgeted else None
    rows = 0
    start = perf_counter_ns()
    try:
        while True:
            outer = _local.context
            _local.context = query
            try:
                item = next(inner)
            except StopIteration:
                break
            finally:
                _local.context = outer
            n = len(item) if batched else 1
            rows += n
            if live is not None:  # budgets are enforced pull by pull
                live.add_result_rows(n)
            yield item
    finally:
        query.report(rows, perf_counter_ns() - start)


def join_bindings(plan: Any) -> Iterator[dict]:
    """Complete join bindings for a :class:`~repro.fql.join.JoinPlan`.

    Prefetched hash probes in batch mode, per-binding point probes
    otherwise. Shared by join enumeration, outer marking and ResultDB
    reduction, so all three ride the same fast path.
    """
    return plan.bindings(prefetch=exec_mode() == "batch")
