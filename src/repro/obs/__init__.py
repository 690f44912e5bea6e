"""``repro.obs`` — the unified observability subsystem.

One spine: :mod:`repro.obs.context` gives every query one
:class:`~repro.obs.context.QueryContext`, which decides at route time
which of the observers below are watching and reports the run's one
measurement (rows, wall time, meter, per-node stats) to each of them
when its stream closes. Six pillars hang off it, each usable on its
own:

* :mod:`repro.obs.trace` — structured spans with head-based sampling
  (``REPRO_TRACE``), propagated through the wire protocol and exported
  as Chrome trace-event JSON or a human tree;
* :mod:`repro.obs.metrics` — ``Counter``/``Gauge``/``Histogram`` behind
  one :class:`~repro.obs.metrics.MetricsRegistry` per engine/server,
  with Prometheus text exposition (the METRICS verb);
* :mod:`repro.obs.slowlog` — a bounded ring of slow-query captures
  (``REPRO_SLOW_MS``, ``db.set_slow_query_threshold``) carrying the
  per-node ``analyze()`` stats of the offending run;
* :mod:`repro.obs.workload` — the workload profile: every executed
  query normalized to a stable fingerprint (literals parameterized,
  graph shape canonical), one class record per fingerprint with its
  plan, latency histogram and cost, and a plan-regression detector
  (the WORKLOAD verb);
* :mod:`repro.obs.events` — the structured lifecycle event log
  (failover, fencing, snapshot sync, shedding, slow queries, plan
  changes) as a bounded ring plus optional JSON-lines file sink
  (``REPRO_EVENTS_PATH``);
* :mod:`repro.obs.health` — the one-dict cluster health snapshot the
  HEALTH verb serves on leaders and replicas alike.

:mod:`repro.obs.resources` holds the per-query cost meters, their
budgets and the per-engine accounting they fold into (which owns the
query-class table), and :mod:`repro.obs.instrument` the walk and the
per-node rows ``analyze()``, the slow log and trace spans render.

See ``docs/observability.md`` for the operator-facing guide.
"""

from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    add_span,
    clear_traces,
    current_context,
    export_chrome,
    latest_trace_id,
    maybe_trace,
    render_tree,
    resume,
    set_trace_mode,
    span,
    start_trace,
    trace_ids,
    trace_mode,
    trace_rate,
    using_trace_mode,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_help,
    escape_label_value,
    metrics_for,
)
from repro.obs.slowlog import SlowQueryEntry, SlowQueryLog, slowlog_for
from repro.obs.context import QueryContext
from repro.obs.events import Event, EventLog, emit, events_for
from repro.obs.workload import QueryClass, fingerprint_of, plan_hash_of
from repro.obs.health import health_snapshot

__all__ = [
    "NOOP_SPAN",
    "Span",
    "add_span",
    "clear_traces",
    "current_context",
    "export_chrome",
    "latest_trace_id",
    "maybe_trace",
    "render_tree",
    "resume",
    "set_trace_mode",
    "span",
    "start_trace",
    "trace_ids",
    "trace_mode",
    "trace_rate",
    "using_trace_mode",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "escape_help",
    "escape_label_value",
    "metrics_for",
    "SlowQueryEntry",
    "SlowQueryLog",
    "slowlog_for",
    "QueryContext",
    "Event",
    "EventLog",
    "emit",
    "events_for",
    "QueryClass",
    "fingerprint_of",
    "plan_hash_of",
    "health_snapshot",
]
