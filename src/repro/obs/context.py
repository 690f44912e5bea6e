"""One query, one context: the instrumentation spine (DESIGN.md §15).

A :class:`QueryContext` is the single frame a query has while it runs
on a thread. A server verb's carries only its meter
(:func:`repro.obs.resources.metered`). A routed enumeration's
(:meth:`QueryContext.watching`) also carries the plan and whichever
observers decided, once, at route time, to watch this run;
:func:`repro.exec.run._enumerate`, the one generator above the
pipeline, takes the run's one measurement and
:meth:`QueryContext.report` tells every sink.

**The nesting rule.** An enumeration routed while another one's context
is installed on this thread (a join's build side, a set-operation
probe) is inner work of that query: the executor hooks feed the outer
meter, and it gets no timer, sample, slow-log entry or span of its own.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.obs import trace
from repro.obs.events import emit
from repro.obs.instrument import fresh_instrumented, tree_stats, walk
from repro.obs.slowlog import SlowQueryEntry, any_active, slowlog_for
from repro.obs.workload import info_of, sampled_profile

__all__ = ["QueryContext"]


class _Active(threading.local):
    def __init__(self) -> None:
        self.context: QueryContext | None = None


#: The context running on this thread. Generator frames run on the
#: *consumer's* thread between yields, so an enumeration's context is
#: installed only around each pull.
_local = _Active()


class QueryContext:
    """What one query carries while it runs: the meter the executor
    hooks feed, and (for a routed enumeration) the plan and whoever is
    watching it."""

    __slots__ = (
        "meter",
        "pipeline",
        "owns_meter",
        "budgeted",
        "info",
        "profile",
        "slowlog",
        "traced",
        "plan",
        "stats",
        "span",
        "zones",
    )

    def __init__(self, meter: Any = None, pipeline: Any = None) -> None:
        self.meter = meter
        #: The cached plan being enumerated; ``None`` for a server verb.
        self.pipeline = pipeline
        self.owns_meter = self.budgeted = self.traced = False
        self.info = self.profile = self.slowlog = None

    @classmethod
    def watching(cls, pipeline: Any) -> "QueryContext | None":
        """The context for one routed enumeration of *pipeline*, or
        ``None`` when it is inner work or nobody is watching."""
        from repro.obs.resources import start_meter

        outer = _local.context
        if outer is not None and outer.pipeline is not None:
            return None  # the nesting rule
        engine = pipeline.engine
        self = cls(None if outer is None else outer.meter, pipeline)
        if self.meter is None:
            self.meter = start_meter(engine)
            self.owns_meter = self.meter is not None
            self.budgeted = self.owns_meter and self.meter._armed
        self.traced = trace.active()
        if any_active() and engine is not None:
            log = slowlog_for(engine)
            if log.should_capture():
                self.slowlog = log
        # a traced or slow-logged run is shimmed and timed anyway: it
        # is profiled without waiting for the sampling gate
        self.profile = sampled_profile(
            engine, always=self.traced or self.slowlog is not None
        )
        meter = self.meter
        stamp = meter is not None and meter.fingerprint is None
        if stamp or self.profile is not None:
            try:  # class labels must never break the query they label
                self.info = info_of(pipeline)
            except Exception:
                self.profile, stamp = None, False
            if stamp:  # cost and latency join on one key
                meter.fingerprint = self.info[0]
                if meter.query is None:
                    meter.query = self.info[1]
        if (
            self.owns_meter
            or self.traced
            or self.slowlog is not None
            or self.profile is not None
        ):
            return self
        return None

    def begin(self) -> Any:
        """First pull: register with the sinks that keep a live view and
        return the plan to drain: a fresh instrumented copy when per-node
        statistics are wanted (the cached plan's nodes are shared across
        threads and are never shimmed), else the cached plan itself. An
        offloaded plan has nothing to shim and is timed whole."""
        from repro.exec.batch import counters_for
        from repro.exec.lower import PhysicalPipeline
        from repro.obs.resources import resources_for

        pipeline = self.pipeline
        self.plan, self.stats = pipeline, {}
        self.span = self.zones = None
        if self.traced or self.slowlog is not None:
            if isinstance(pipeline, PhysicalPipeline):
                try:
                    fresh, stats = fresh_instrumented(
                        pipeline.logical, pipeline.engine
                    )
                except Exception:
                    fresh = None
                if fresh is not None:
                    self.plan, self.stats = fresh, stats
            if self.slowlog is not None:
                self.zones = counters_for(pipeline.engine).snapshot()
            # NOT entered as a context manager: the execute span must
            # not sit on the consumer's span stack between pulls
            self.span = trace.span("execute", root=self.plan.root.describe())
        if self.owns_meter:
            resources_for(pipeline.engine).begin(self.meter)
        return self.plan

    def report(self, rows: int, wall_ns: int) -> None:
        """The stream closed (drained, abandoned or killed): tell every
        sink that was watching, once."""
        from repro.exec.batch import counters_for
        from repro.obs.resources import resources_for

        engine, root = self.pipeline.engine, self.plan.root
        try:
            trace_id = None
            if self.span is not None:
                self.span.annotate(rows=rows)
                self.span.finish()
                trace_id = self.span.trace_id
            if trace_id is not None:
                for node, _depth in walk(root):
                    st = self.stats.get(id(node))
                    if st is not None and st["first_ns"]:
                        trace.add_span(
                            node.describe(),
                            st["first_ns"],
                            st["wall_ns"],
                            trace_id=trace_id,
                            parent_id=self.span.span_id,
                            batches=st["batches"],
                            rows=st["rows"],
                        )
            slowlog, wall_ms = self.slowlog, wall_ns / 1e6
            threshold = None if slowlog is None else slowlog.threshold_ms
            if threshold is not None and wall_ms >= threshold:
                after = counters_for(engine).snapshot()
                slowlog.record(
                    SlowQueryEntry(
                        query=root.describe(),
                        wall_ms=wall_ms,
                        rows=rows,
                        tree=tree_stats(root, self.stats),
                        zone_skipped=after["zone_segments_skipped"]
                        - self.zones["zone_segments_skipped"],
                        zone_scanned=after["zone_segments_scanned"]
                        - self.zones["zone_segments_scanned"],
                        trace_id=trace_id,
                    )
                )
                emit(
                    engine,
                    "slow_query",
                    query=root.describe(),
                    wall_ms=wall_ms,
                    rows=rows,
                    trace_id=trace_id,
                )
            if self.profile is not None:
                self.profile.record(*self.info, wall_ns, rows)
        finally:
            if self.owns_meter:
                if not self.budgeted:  # a budgeted meter counted live
                    self.meter.add_result_rows(rows)
                resources_for(engine).finish(self.meter)
