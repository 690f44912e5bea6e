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
meter, and it gets no timer, class call, slow-log entry or span of its
own.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.obs import trace
from repro.obs.events import emit
from repro.obs.instrument import tree_stats
from repro.obs.slowlog import SlowQueryEntry, any_active, slowlog_for
from repro.obs.workload import info_of

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
    hooks feed, and (for a routed enumeration) the plan, its node rows
    and whoever is watching it."""

    __slots__ = (
        "meter",
        "pipeline",
        "owns_meter",
        "budgeted",
        "slowlog",
        "traced",
        "timed",
        "tree",
        "nodes",
        "rows",
        "span",
        "zones",
    )

    def __init__(self, meter: Any = None, pipeline: Any = None) -> None:
        self.meter = meter
        #: The cached plan being enumerated; ``None`` for a server verb.
        self.pipeline = pipeline
        self.owns_meter = self.budgeted = self.traced = self.timed = False
        self.slowlog = None
        #: A list that receives the node rows of the run routed under
        #: this context (``analyze()`` installs one on its verb frame).
        self.tree: list | None = None
        #: The plan's nodes once a watched run begins, and their rows:
        #: ``[batches, rows, wall_ns, first_ns]`` by ordinal.
        self.nodes: tuple = ()
        self.rows: list = []

    @classmethod
    def watching(cls, pipeline: Any) -> "QueryContext | None":
        """The context for one routed enumeration of *pipeline*, or
        ``None`` when it is inner work or nobody is watching."""
        outer = _local.context
        if outer is not None and outer.pipeline is not None:
            return None  # the nesting rule
        engine = pipeline.engine
        meter = None if outer is None else outer.meter
        tree = None if outer is None else outer.tree
        traced = trace.active()
        slowlog = None
        if any_active() and engine is not None:
            log = slowlog_for(engine)
            if log.should_capture():
                slowlog = log
        timed = traced or slowlog is not None or tree is not None
        if meter is None:
            meter = resources.start_meter(engine)
        if meter.fingerprint is None:
            try:  # class labels must never break the query they label
                info = info_of(pipeline)
            except Exception:
                pass
            else:  # the meter folds into its fingerprint's class
                meter.fingerprint = info[0]
                if meter.query is None:
                    meter.query = info[1]
        if outer is not None and not timed:
            # a server verb's enumeration nobody watches feeds the
            # verb's meter through the raw stream
            return None
        self = cls(meter, pipeline)
        # a verb's enumeration feeds the verb's meter; its own owns one
        self.owns_meter = outer is None
        self.budgeted = self.owns_meter and meter._armed
        self.tree, self.traced, self.slowlog, self.timed = (
            tree, traced, slowlog, timed
        )
        return self

    def row(self, node: Any) -> list | None:
        """*node*'s counters in this run, or ``None`` when *node* is not
        a node of this context's plan (inner work of another plan)."""
        nodes, ordinal = self.nodes, node.ordinal
        if ordinal < len(nodes) and nodes[ordinal] is node:
            return self.rows[ordinal]
        return None

    def begin(self) -> Any:
        """First pull: register with the sinks that keep a live view,
        open a watched run's node rows and return the cached plan to
        drain."""
        pipeline = self.pipeline
        if self.timed:  # only a watched run's node rows are ever read
            self.nodes = pipeline.nodes
            self.rows = [[0, 0, 0, 0] for _node in self.nodes]
        self.span = self.zones = None
        if self.traced or self.slowlog is not None:
            if self.slowlog is not None:  # this run's share of the meter
                meter = self.meter
                self.zones = (
                    meter.zone_segments_skipped,
                    meter.zone_segments_scanned,
                )
            # NOT entered as a context manager: the execute span must
            # not sit on the consumer's span stack between pulls
            self.span = trace.span("execute", root=pipeline.root.describe())
        if self.owns_meter:
            resources.resources_for(pipeline.engine).begin(self.meter)
        return pipeline

    def report(self, rows: int, wall_ns: int) -> None:
        """The stream closed (drained, abandoned or killed): tell every
        sink that was watching, once."""
        engine, root = self.pipeline.engine, self.pipeline.root
        try:
            trace_id = None
            if self.span is not None:
                self.span.annotate(rows=rows)
                self.span.finish()
                trace_id = self.span.trace_id
            if trace_id is not None:
                for node, (batches, out, wall, first) in zip(
                    self.nodes, self.rows
                ):
                    if first:
                        trace.add_span(
                            node.describe(),
                            first,
                            wall,
                            trace_id=trace_id,
                            parent_id=self.span.span_id,
                            batches=batches,
                            rows=out,
                        )
            if self.tree is not None:
                self.tree.extend(tree_stats(root, self.rows))
            slowlog, wall_ms = self.slowlog, wall_ns / 1e6
            threshold = None if slowlog is None else slowlog.threshold_ms
            if threshold is not None and wall_ms >= threshold:
                meter, (skipped, scanned) = self.meter, self.zones
                slowlog.record(
                    SlowQueryEntry(
                        query=root.describe(),
                        wall_ms=wall_ms,
                        rows=rows,
                        tree=tree_stats(root, self.rows),
                        zone_skipped=meter.zone_segments_skipped - skipped,
                        zone_scanned=meter.zone_segments_scanned - scanned,
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
        finally:
            if self.owns_meter:
                if not self.budgeted:  # a budgeted meter counted live
                    self.meter.result_rows += rows
                resources.resources_for(engine).finish(self.meter)


# at the bottom: the meters' module imports this one's QueryContext
import repro.obs.resources as resources  # noqa: E402
