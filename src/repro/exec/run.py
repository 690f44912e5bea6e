"""Routing: how derived-function enumeration reaches the executor.

``DerivedFunction.items()/keys()`` call :func:`route_items` /
:func:`route_keys`. In ``batch`` mode (the default) the graph is
fingerprinted, looked up in the per-database plan cache, and — on a miss
— optimized and lowered into a physical pipeline. In ``naive`` mode
(``REPRO_EXEC=naive``, or :func:`set_exec_mode`) both return ``None``
and the caller falls back to the original per-key interpretation; the
differential test suite runs every operator under both modes and asserts
identical results.

Planning is guarded against re-entrancy: optimizer rules may sample a
subexpression's data while the same fingerprint is being planned, in
which case the inner enumeration simply runs naive.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator

from repro.config import EXEC
from repro.fdm.functions import FDMFunction
from repro.exec.cache import cache_for, engine_of, fingerprint
from repro.exec.lower import PhysicalPipeline, lower

__all__ = [
    "exec_mode",
    "set_exec_mode",
    "using_exec_mode",
    "route_items",
    "route_keys",
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
    """The cached physical pipeline for *fn*, planning it on a miss."""
    from repro.obs.trace import span

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
        cache = cache_for(fn)
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

            pipeline = try_offload(fn, optimized, trace)
            if pipeline is None:
                pipeline = lower(optimized, logical=fn, fired_rules=trace)
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

            note_planned(fn, pipeline)
        return pipeline


def route_items(fn: FDMFunction) -> Iterator[tuple] | None:
    """Batched (key, value) stream for *fn*, or ``None`` to run naive."""
    if exec_mode() != "batch":
        return None
    pipeline = pipeline_for(fn)
    if pipeline is None:
        return None
    it = _observed(fn, pipeline, keys=False)
    if it is None:
        it = _profiled(fn, pipeline, keys=False)
    if it is None:
        it = pipeline.iter_entries()
    return _metered(fn, pipeline, it)


def route_keys(fn: FDMFunction) -> Iterator[Any] | None:
    """Batched key stream for *fn*, or ``None`` to run naive."""
    if exec_mode() != "batch":
        return None
    pipeline = pipeline_for(fn)
    if pipeline is None:
        return None
    it = _observed(fn, pipeline, keys=True)
    if it is None:
        it = _profiled(fn, pipeline, keys=True)
    if it is None:
        it = pipeline.iter_keys()
    return _metered(fn, pipeline, it)


#: Sentinel distinguishing "not memoized yet" from a memoized ``None``.
_NO_ENGINE = object()


def _route_engine(fn: FDMFunction, pipeline: PhysicalPipeline) -> Any:
    """``engine_of(fn)`` memoized on the cached pipeline object."""
    engine = getattr(pipeline, "_meter_engine", _NO_ENGINE)
    if engine is _NO_ENGINE:
        engine = engine_of(fn)
        try:
            pipeline._meter_engine = engine
        except Exception:
            pass
    return engine


def _tag_fingerprint(fn: FDMFunction, pipeline: PhysicalPipeline, meter: Any):
    """Stamp the workload fingerprint on *meter* so the resource rollup
    and the latency profile join on one key. Memoized per cached plan;
    never raises into the query."""
    try:
        from repro.obs.workload import _pipeline_info

        info = _pipeline_info(fn, pipeline)
        meter.fingerprint = info[0]
        if meter.query is None:
            meter.query = info[1]
    except Exception:
        pass


def _metered(
    fn: FDMFunction, pipeline: PhysicalPipeline, inner: Iterator[Any]
) -> Iterator[Any]:
    """Attach this enumeration to a resource meter.

    Two cases. An *enclosing* meter (a server verb, or an outer
    enumeration whose pull we are running inside) is already fed by the
    scan/kernel/join hooks; we only stamp the workload fingerprint on
    it and return *inner* untouched — zero added per-row cost. With no
    enclosing meter and metering on, this enumeration is its own query:
    wrap it so it registers live, counts result rows, enforces budgets,
    and folds into the engine rollup when the stream closes.
    """
    from repro.obs import resources

    meter = resources.active_meter()
    if meter is not None:
        if meter.fingerprint is None:
            _tag_fingerprint(fn, pipeline, meter)
        return inner
    if resources.meter_mode() != "on":
        return inner
    return _metered_iter(fn, pipeline, inner)


def _metered_iter(
    fn: FDMFunction, pipeline: PhysicalPipeline, inner: Iterator[Any]
) -> Iterator[Any]:
    from repro.obs import resources

    engine = _route_engine(fn, pipeline)
    meter = resources.start_meter(engine)
    if meter is None:  # metering flipped off between route and first pull
        yield from inner
        return
    _tag_fingerprint(fn, pipeline, meter)
    accounting = resources.resources_for(engine)
    accounting.begin(meter)
    local = resources._local
    armed = meter._armed
    try:
        while True:
            # the meter is active only *during* our pulls — generator
            # frames run on the consumer's thread between yields, and
            # the consumer may carry its own meter that ours must not
            # shadow
            previous = local.meter
            local.meter = meter
            try:
                item = next(inner)
            except StopIteration:
                break
            finally:
                local.meter = previous
            meter.result_rows += 1
            if armed:
                meter.check()
            yield item
    finally:
        if local.meter is meter:
            local.meter = None
        accounting.finish(meter)


def _profiled(
    fn: FDMFunction, pipeline: PhysicalPipeline, keys: bool
) -> Iterator[Any] | None:
    """A workload-profiled enumeration of *fn*, or ``None``.

    Runs only when the workload profiler's sampling gate fires (every
    Nth enumeration under ``REPRO_PROFILE``); unlike :func:`_observed`
    it streams the *cached* pipeline with nothing but a wall-clock and
    row count around it — no re-plan, no per-node shims — so a sampled
    run costs microseconds, and an unsampled one a counter increment.
    """
    from repro.obs.workload import maybe_profile

    gate = maybe_profile(fn, pipeline)
    if gate is None:
        return None
    return _profiled_iter(pipeline, keys, *gate)


def _profiled_iter(
    pipeline: PhysicalPipeline, keys: bool, profile: Any, info: tuple
) -> Iterator[Any]:
    import time

    rows = 0
    start = time.perf_counter_ns()
    it = pipeline.iter_keys() if keys else pipeline.iter_entries()
    try:
        for item in it:
            rows += 1
            yield item
    finally:
        wall_ns = time.perf_counter_ns() - start
        profile.record(*info, wall_ns, rows)


def _observed(
    fn: FDMFunction, pipeline: PhysicalPipeline, keys: bool
) -> Iterator[Any] | None:
    """An instrumented enumeration of *fn*, or ``None`` for the fast path.

    Active only when this query rides a sampled trace or its engine has
    slow-query capture enabled — the untraced cost is one thread-local
    read plus one global-flag check. Observation never mutates the
    *cached* pipeline (its nodes are shared across threads); it plans a
    fresh one, applies the shared ``repro.obs.instrument`` shims, and
    streams from that instead. Fresh plans are behavior-neutral: lowering
    is deterministic, so the entry stream is identical. An offloaded
    plan is one SQL statement with nothing to shim: it is timed as is.
    """
    from repro.obs.slowlog import any_active, slowlog_for
    from repro.obs.trace import active

    traced = active()
    if not traced and not any_active():
        return None
    slog = None
    engine = None
    if any_active():
        engine = engine_of(fn)
        if engine is not None:
            candidate = slowlog_for(engine)
            if candidate.should_capture():
                slog = candidate
    if not traced and slog is None:
        return None
    return _observed_iter(fn, pipeline, keys, slog, engine)


def _observed_iter(
    fn: FDMFunction,
    pipeline: PhysicalPipeline,
    keys: bool,
    slog: Any,
    engine: Any,
) -> Iterator[Any]:
    import time

    from repro.exec.batch import counters_for
    from repro.obs.instrument import instrument_pipeline, tree_stats, walk
    from repro.obs.slowlog import SlowQueryEntry
    from repro.obs.trace import add_span, span

    # An offloaded plan has no per-node tree to instrument, and
    # re-lowering it would run (and log) a physical mode the query never
    # normally takes: the cached pipeline itself is timed, under one
    # execute span. So is a batched plan whose re-planning fails.
    observed, stats = pipeline, {}
    if isinstance(pipeline, PhysicalPipeline):
        try:
            from repro.optimizer import optimize

            trace: list[str] = []
            optimized = optimize(fn, rules=pipeline_rules(), trace=trace)
            fresh = lower(optimized, logical=fn, fired_rules=trace)
        except Exception:
            fresh = None
        if fresh is not None:
            observed, stats = fresh, instrument_pipeline(fresh.root)
    before = counters_for(engine).snapshot() if slog is not None else None
    # NOT entered as a context manager: the generator's frames run on
    # the consumer's thread between yields, and the execute span must
    # not hang on that thread's span stack while consumer code runs
    exec_span = span("execute", root=observed.root.describe())
    rows = 0
    start = time.perf_counter_ns()
    it = observed.iter_keys() if keys else observed.iter_entries()
    try:
        for item in it:
            rows += 1
            yield item
    finally:
        wall_ns = time.perf_counter_ns() - start
        exec_span.annotate(rows=rows)
        exec_span.finish()
        if exec_span.trace_id is not None:
            for node, _depth in walk(observed.root):
                st = stats.get(id(node))
                if st is None or not st["first_ns"]:
                    continue
                add_span(
                    node.describe(),
                    st["first_ns"],
                    st["wall_ns"],
                    trace_id=exec_span.trace_id,
                    parent_id=exec_span.span_id,
                    batches=st["batches"],
                    rows=st["rows"],
                )
        if slog is not None and slog.should_capture():
            threshold = slog.threshold_ms
            wall_ms = wall_ns / 1e6
            if threshold is not None and wall_ms >= threshold:
                after = counters_for(engine).snapshot()
                slog.record(
                    SlowQueryEntry(
                        query=observed.root.describe(),
                        wall_ms=wall_ms,
                        rows=rows,
                        tree=tree_stats(observed.root, stats),
                        zone_skipped=after["zone_segments_skipped"]
                        - before["zone_segments_skipped"],
                        zone_scanned=after["zone_segments_scanned"]
                        - before["zone_segments_scanned"],
                        trace_id=exec_span.trace_id,
                    )
                )
                from repro.obs.events import emit

                emit(
                    engine,
                    "slow_query",
                    query=observed.root.describe(),
                    wall_ms=wall_ms,
                    rows=rows,
                    trace_id=exec_span.trace_id,
                )
        # this run was fully timed anyway: fold it into the workload
        # profile without waiting for the sampling gate (the cached
        # pipeline keys the memoized fingerprint/plan hash)
        from repro.obs.workload import record_run

        record_run(fn, pipeline, wall_ns, rows)


def join_bindings(plan: Any) -> Iterator[dict]:
    """Complete join bindings for a :class:`~repro.fql.join.JoinPlan`.

    Prefetched hash probes in batch mode, per-binding point probes
    otherwise. Shared by join enumeration, outer marking and ResultDB
    reduction, so all three ride the same fast path.
    """
    return plan.bindings(prefetch=exec_mode() == "batch")
