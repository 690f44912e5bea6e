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

An enumeration somebody is watching (its own resource meter,
slow-query capture, a trace) passes through exactly one
generator, :func:`_enumerate`, under one
:class:`~repro.obs.context.QueryContext`; one nobody watches gets the
pipeline's own stream.
"""

from __future__ import annotations

import threading
import weakref
from itertools import chain
from operator import length_hint
from time import perf_counter_ns
from typing import Any, Iterator

import repro.operators as operators
from repro.compile import offload_mode
from repro.config import EXEC
from repro.fdm.functions import DerivedFunction, FDMFunction
from repro.fdm.relations import table_of
from repro.exec.cache import cache_of, engine_of, fingerprint
from repro.exec.lower import PhysicalPipeline, lower
from repro.obs.context import QueryContext, _local
from repro.obs.trace import span

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
    if not isinstance(fn, DerivedFunction):
        # a base function's plan is its scan: nothing to optimize or
        # offload, and nothing worth a cache entry that would pin it
        return _scan_plan(fn)
    if operators.operator_of(fn).lower is None:
        return None  # it runs per key: there is nothing to plan
    try:
        # Offload mode is part of the plan: a compiled-to-SQL pipeline
        # cached under REPRO_OFFLOAD=force must not serve the off mode.
        # (The kernel backend is NOT part of the key — numpy vs python
        # dispatch happens per batch at run time.)
        key = (fingerprint(fn), offload_mode())
    except Exception:
        return None
    if key in _planning.inflight:
        return None
    # the plan's engine is resolved here, once: it picks the cache, and
    # the plan carries it for everything that observes a run
    engine = engine_of(fn)
    cache = cache_of(engine)
    cached = cache.get(key)
    if cached is not None:
        span("plan", plan_cache="hit").finish()
        return None if cached is _NAIVE else cached
    with span("plan", plan_cache="miss"):
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
            # plan-cache miss is the query class's plan registration
            # point: a fingerprint re-lowering to a different plan is
            # detected here, deterministically, off the enumeration
            # hot path
            from repro.obs.workload import note_planned

            note_planned(pipeline)
        return pipeline


def _scan_plan(fn: FDMFunction) -> PhysicalPipeline | None:
    """A base function's scan. A relation carrier keeps its last one
    while it scans the same table object, so the class label
    ``obs.workload.info_of`` keeps on it is worked out once per table."""
    engine = engine_of(fn)
    table = table_of(fn)
    kept = getattr(fn, "_scan_plan", None)
    if table is not None and kept is not None and kept[0]() is table:
        return kept[1]
    pipeline = lower(fn, engine=engine)
    if table is not None:
        fn._scan_plan = (weakref.ref(table), pipeline)
    return pipeline


def route_items(fn: FDMFunction) -> Iterator[tuple] | None:
    """Batched (key, value) stream for *fn*, or ``None`` to run naive."""
    return _route(fn, keys=False, flat=True)


def route_keys(fn: FDMFunction) -> Iterator[Any] | None:
    """Batched key stream for *fn*, or ``None`` to run naive."""
    return _route(fn, keys=True, flat=True)


def route_batches(fn: FDMFunction) -> Iterator[Any] | None:
    """*fn*'s pipeline output batch by batch, or ``None`` to run naive.

    Each batch is a :class:`~repro.exec.batch.ColumnBatch` or a list of
    ``(key, value)`` entries; together they are exactly
    :func:`route_items`' stream. A stored or material leaf lowers to a
    scan, so its batches are the segment's column image. Close the
    stream when stopping early: the query reports when it closes.
    """
    return _route(fn, keys=False, flat=False)


def _route(fn: FDMFunction, keys: bool, flat: bool) -> Iterator[Any] | None:
    if exec_mode() != "batch":
        return None
    pipeline = pipeline_for(fn)
    if pipeline is None:
        return None
    query = QueryContext.watching(pipeline)
    if query is None:
        # inner work of an enclosing query, or nobody is watching: the
        # raw stream, at zero added per-row cost
        batches = pipeline.iter_batches(keys)
        return chain.from_iterable(batches) if flat else batches
    return _enumerate(query, keys, flat)


def _enumerate(query: QueryContext, keys: bool, flat: bool) -> Iterator[Any]:
    """The one generator between a pipeline and an observed consumer.

    Pulls the plan's batches with *query* installed (generator frames
    run on the consumer's thread between yields, and the consumer may
    carry a context of its own that ours must not shadow); when *flat*,
    hands their rows over outside it. Counts the rows the consumer got,
    reads the clock once, and reports when the stream closes, however
    it closes. A budgeted meter counts each batch as it is handed over,
    and ``max_result_rows`` cuts the batch it ends in.
    """
    plan = query.begin()
    inner = plan.iter_batches(keys)
    live = query.meter if query.budgeted else None
    rows = 0
    rest: Iterator[Any] = iter(())  # the rows of this batch not handed over
    start = perf_counter_ns()
    try:
        while True:
            outer = _local.context
            _local.context = query
            try:
                batch = next(inner, None)  # a batch is never None
            finally:
                _local.context = outer
            if batch is None:
                break
            n = whole = len(batch)
            if live is not None:
                room = live.max_result_rows
                if room is not None and live.result_rows + n > room:
                    n = max(int(room - live.result_rows), 0)
                    batch = batch[:n]
                live.add_result_rows(n)  # budgets are checked batch by batch
            rows += n
            if flat:
                rest = iter(batch)
                yield from rest
            else:
                yield batch
            if n < whole:  # cut: the next row is over budget
                live.add_result_rows(1)
    finally:
        unhanded = length_hint(rest)
        if live is not None:
            live.result_rows -= unhanded
        query.report(rows - unhanded, perf_counter_ns() - start)


def join_bindings(plan: Any) -> Iterator[dict]:
    """Complete join bindings for a :class:`~repro.fql.join.JoinPlan`.

    Prefetched hash probes in batch mode, per-binding point probes
    otherwise. Shared by join enumeration, outer marking and ResultDB
    reduction, so all three ride the same fast path.
    """
    return plan.bindings(prefetch=exec_mode() == "batch")
