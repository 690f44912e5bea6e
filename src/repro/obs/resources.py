"""Per-query resource accounting, budgets, and cooperative cancellation.

Latency observability (traces, the workload profile, slow-query capture)
says *how long* queries take; this module says *what they cost*. A
:class:`ResourceMeter` rides each query in its thread's
:class:`~repro.obs.context.QueryContext`, fed by cheap batch-boundary
hooks in the executor: rows/batches/bytes per scan, zone-map segment
skips, image builds, kernel-vs-python dispatch counts, peak live-batch
estimate, join build-side sizes, result rows, and WAL bytes on the DML
path. It is the executor's only counter: every engine-wide scan figure
is the rollup of its queries' meters.

Finished meters aggregate three ways in the per-engine
:class:`ResourceAccounting` (``resources_for(engine)``): per *active*
query (live, inspectable mid-flight), per session, and per query
class — the fingerprint's :class:`~repro.obs.workload.QueryClass`,
which also holds the class's plan and latency, so the workload
profile and the cost rollup are one record. The rollup is served by
``db.stats()["resources"]``, ``db.workload_profile()``, the
Prometheus page, the ``TOP`` and ``WORKLOAD`` server verbs, and
``tools/repro_top.py``.

On top of the meters sit *budgets*: ``REPRO_MAX_ROWS_SCANNED``,
``REPRO_MAX_RESULT_ROWS`` and ``REPRO_QUERY_DEADLINE_MS`` (overridable
per session via HELLO and per frame via ``deadline_ms``). Budgets are
checked cooperatively at batch boundaries — no thread is ever killed —
and an exceeded budget raises the retryable
:class:`~repro.errors.ResourceExhaustedError`, emits a ``query_killed``
lifecycle event carrying the meter snapshot, and leaves session and
transaction state fully usable. Metering is always on; with no budget
set the enforcement path is a single attribute test per batch.
"""

from __future__ import annotations

import threading
import time
import weakref
from operator import attrgetter
from typing import Any

from repro._util import attached
from repro.config import MAX_RESULT_ROWS, MAX_ROWS_SCANNED, QUERY_DEADLINE_MS
from repro.errors import ResourceExhaustedError
from repro.obs.context import QueryContext, _local
from repro.obs.events import emit
from repro.obs.workload import QueryClass

__all__ = [
    "ResourceMeter",
    "ResourceAccounting",
    "active_meter",
    "set_active_meter",
    "resources_for",
    "reset_resources",
    "start_meter",
    "metered",
]

def active_meter() -> "ResourceMeter | None":
    """The meter attached to the current thread's running query, if any
    (the one its :class:`~repro.obs.context.QueryContext` carries)."""
    context = _local.context
    return None if context is None else context.meter


def set_active_meter(meter: "ResourceMeter | None") -> "ResourceMeter | None":
    """Install *meter* as the thread's active meter (a context that
    carries nothing else); returns the previous meter."""
    previous = active_meter()
    _local.context = None if meter is None else QueryContext(meter)
    return previous


class ResourceMeter:
    """One query's cost ledger, plus its budgets.

    Executor hooks do plain unlocked increments: a meter is only ever
    *written* by the one thread running its query. Every ledger field
    starts as a class-level zero, so a new meter sets none of them.
    ``_armed`` is precomputed at construction: with no budget set, the
    per-batch enforcement cost is a single attribute test.
    """

    #: Every ledger field, with the help text of its ``repro_resource_*``
    #: gauge. The totals, the session and fingerprint rows, TOP and the
    #: gauges all iterate this table.
    FIELDS = {
        "rows_scanned": "Rows pulled out of scan nodes",
        "batches_scanned": "Batches pulled out of scan nodes",
        "bytes_scanned": "Estimated bytes materialized by scans",
        "peak_batch_bytes": "Largest single-batch estimate observed",
        "kernel_batches": "Predicate batches dispatched to numpy",
        "python_batches": "Predicate batches on the python fallback",
        "join_build_rows": "Rows materialized into join build sides",
        "result_rows": "Rows returned to consumers",
        "wal_bytes": "WAL bytes attributed to metered DML",
        "zone_segments_skipped": "Segments skipped by zone-map pruning",
        "zone_segments_scanned": "Segments scanned despite zone maps",
        "images_built": "Segment column images built by scans",
    }

    def __init__(
        self,
        engine: Any = None,
        *,
        session_id: Any = None,
        verb: str | None = None,
        query: str | None = None,
        max_rows_scanned: int | None = None,
        max_result_rows: int | None = None,
        deadline_ms: float | None = None,
    ) -> None:
        self.engine = engine
        self.session_id = session_id
        self.verb = verb
        self.query = query
        self.fingerprint: str | None = None
        self.killed: str | None = None
        self.started_ns = time.perf_counter_ns()
        self.max_rows_scanned = max_rows_scanned
        self.max_result_rows = max_result_rows
        self.deadline_ns = (
            self.started_ns + int(deadline_ms * 1e6)
            if deadline_ms is not None
            else None
        )
        self._armed = (
            max_rows_scanned is not None
            or max_result_rows is not None
            or deadline_ms is not None
        )

    # -- hooks (hot path) ---------------------------------------------

    def on_scan_batch(self, rows: int, nbytes: int) -> None:
        """One scanned batch: *rows* rows, ~*nbytes* bytes live at once."""
        self.rows_scanned += rows
        self.batches_scanned += 1
        self.bytes_scanned += nbytes
        if nbytes > self.peak_batch_bytes:
            self.peak_batch_bytes = nbytes
        if self._armed:
            self.check()

    def add_result_rows(self, rows: int) -> None:
        """*rows* more rows handed to the consumer (or the wire)."""
        self.result_rows += rows
        if self._armed:
            self.check()

    # -- enforcement ---------------------------------------------------

    def exceeded(self) -> str | None:
        """The budget this query has blown, or ``None`` while healthy."""
        limit = self.max_rows_scanned
        if limit is not None and self.rows_scanned > limit:
            return (
                f"rows scanned {self.rows_scanned} exceeds budget "
                f"{int(limit)}"
            )
        limit = self.max_result_rows
        if limit is not None and self.result_rows > limit:
            return (
                f"result rows {self.result_rows} exceeds budget "
                f"{int(limit)}"
            )
        if (
            self.deadline_ns is not None
            and time.perf_counter_ns() > self.deadline_ns
        ):
            elapsed_ms = (time.perf_counter_ns() - self.started_ns) / 1e6
            budget_ms = (self.deadline_ns - self.started_ns) / 1e6
            return (
                f"deadline {budget_ms:g}ms exceeded "
                f"({elapsed_ms:.1f}ms elapsed)"
            )
        return None

    def check(self) -> None:
        """Cooperative checkpoint: kill the query if over budget."""
        reason = self.exceeded()
        if reason is not None:
            self.kill(reason)

    def kill(self, reason: str) -> None:
        """Abort the query: mark it killed, emit ``query_killed``, raise.

        Called at a batch boundary on the thread running the query.
        Never swallows: always raises
        :class:`~repro.errors.ResourceExhaustedError`.
        """
        self.killed = reason
        snap = self.snapshot()
        emit(self.engine, "query_killed", reason=reason, meter=snap)
        raise ResourceExhaustedError(f"query killed: {reason}", snapshot=snap)

    # -- reporting -----------------------------------------------------

    def snapshot(self) -> dict:
        """The meter as a JSON-safe dict (stats, events, TOP frames)."""
        snap = {field: getattr(self, field) for field in self.FIELDS}
        snap["elapsed_ms"] = round(
            (time.perf_counter_ns() - self.started_ns) / 1e6, 3
        )
        if self.fingerprint is not None:
            snap["fingerprint"] = self.fingerprint
        if self.session_id is not None:
            snap["session"] = self.session_id
        if self.verb is not None:
            snap["verb"] = self.verb
        if self.query is not None:
            snap["query"] = self.query
        if self.killed is not None:
            snap["killed"] = self.killed
        return snap


for _field in ResourceMeter.FIELDS:  # the ledger's class-level zeros
    setattr(ResourceMeter, _field, 0)

#: The ledger fields a rollup sums (the peak is kept as a max), and
#: one call that reads them all off a meter.
_SUMMED = tuple(f for f in ResourceMeter.FIELDS if f != "peak_batch_bytes")
_summed_of = attrgetter(*_SUMMED)


def _fold(row: dict, moved: list, peak: int) -> None:
    """Fold one finished meter into a rollup row: its *moved*
    ``(field, value)`` sums (the fields it counted), and its *peak* as
    a max."""
    for field, value in moved:
        row[field] += value
    if peak > row["peak_batch_bytes"]:
        row["peak_batch_bytes"] = peak


def _row() -> dict:
    """An empty session or class row."""
    return dict.fromkeys((*ResourceMeter.FIELDS, "queries", "killed"), 0)


#: Every live accounting, so :func:`reset_resources` zeroes them all.
_instances: "weakref.WeakSet[ResourceAccounting]" = weakref.WeakSet()


class ResourceAccounting:
    """Per-engine rollup of finished meters plus the live-query registry.

    Three aggregations under one lock, all bounded: cumulative totals,
    per-session rows (newest 64 sessions kept), and the engine's query
    classes, one :class:`~repro.obs.workload.QueryClass` per
    fingerprint holding its plan facts, latency and cost. A new class
    beyond :attr:`MAX_FINGERPRINTS` first evicts the one with the
    fewest calls (ties: fewest rows scanned), so an adversarial stream
    of unique shapes cannot grow the table and the top consumers
    survive churn. ``_active`` holds in-flight meters so ``TOP`` can
    inspect queries mid-flight.
    """

    MAX_SESSIONS = 64
    MAX_FINGERPRINTS = 512
    #: Recent-window p95 beyond ``factor * baseline`` flags a latency
    #: regression for the class.
    regression_factor = 3.0

    def __init__(self, engine: Any = None) -> None:
        self._lock = threading.Lock()
        # where the class events go; weak, as the engine holds this
        self._engine = weakref.ref(engine) if engine is not None else lambda: None
        self.queries = 0
        self.killed = 0
        self.totals = {field: 0 for field in ResourceMeter.FIELDS}
        self._active: dict[int, ResourceMeter] = {}
        self._sessions: dict[str, dict] = {}
        self._classes: dict[str, QueryClass] = {}
        _instances.add(self)

    def begin(self, meter: ResourceMeter) -> None:
        """Register a starting query's meter in the live view."""
        with self._lock:
            self._active[id(meter)] = meter

    def finish(self, meter: ResourceMeter) -> None:
        """Deregister a finished meter and fold it into the rollups.

        A fingerprinted meter folds its cost, its result rows and its
        elapsed time since it started into the fingerprint's class: for
        an embedded query that time is the routed enumeration, for a
        served one the whole verb.
        """
        seconds = (time.perf_counter_ns() - meter.started_ns) / 1e9
        # the fields this meter counted, read once for every row it
        # folds into
        moved = [pair for pair in zip(_SUMMED, _summed_of(meter)) if pair[1]]
        peak = meter.peak_batch_bytes
        regressed = None
        with self._lock:
            self._active.pop(id(meter), None)
            _fold(self.totals, moved, peak)
            # a session or class row also counts queries and kills
            self.queries += 1
            moved.append(("queries", 1))
            if meter.killed is not None:
                self.killed += 1
                moved.append(("killed", 1))
            if meter.session_id is not None:
                key = str(meter.session_id)
                row = self._sessions.get(key)
                if row is None:
                    if len(self._sessions) >= self.MAX_SESSIONS:
                        self._sessions.pop(next(iter(self._sessions)))
                    row = self._sessions[key] = _row()
                _fold(row, moved, peak)
            if meter.fingerprint is not None:
                cls = self._class_for(meter.fingerprint)
                _fold(cls.cost, moved, peak)
                regressed = cls.observe(seconds, self.regression_factor)
        if regressed is not None:
            emit(
                self._engine(),
                "latency_regression",
                fingerprint=cls.fingerprint,
                shape=cls.shape,
                baseline_p95_ms=regressed[0] * 1e3,
                recent_p95_ms=regressed[1] * 1e3,
            )

    def _class_for(self, fingerprint: str) -> QueryClass:
        cls = self._classes.get(fingerprint)
        if cls is None:
            # evict before inserting: the newcomer has no calls yet and
            # would always be the coldest
            if len(self._classes) >= self.MAX_FINGERPRINTS:
                coldest = min(
                    self._classes.values(),
                    key=lambda c: (c.cost["queries"], c.cost["rows_scanned"]),
                )
                del self._classes[coldest.fingerprint]
            cls = self._classes[fingerprint] = QueryClass(fingerprint, _row())
        return cls

    def observe_plan(
        self, fingerprint: str, shape: str, plan_hash: str, plan_text: str
    ) -> None:
        """Register the plan a fingerprint lowered to, emitting one
        ``plan_change`` event when the hash on record moved."""
        with self._lock:
            cls = self._class_for(fingerprint)
            if not cls.observe_plan(shape, plan_hash, plan_text):
                return
            last_good, shape = cls.last_good_hash, cls.shape
        emit(
            self._engine(),
            "plan_change",
            fingerprint=fingerprint,
            shape=shape,
            last_good_hash=last_good,
            plan_hash=plan_hash,
        )

    def classes(self) -> dict[str, dict]:
        """Every query class as plain data, keyed by fingerprint."""
        with self._lock:
            return {fp: c.to_dict() for fp, c in self._classes.items()}

    def plan_diff(self, fingerprint: str) -> dict[str, Any] | None:
        """Last-good vs current plan for one class, or ``None``."""
        with self._lock:
            cls = self._classes.get(fingerprint)
            return None if cls is None else cls.plan_diff()

    def snapshot(self, active_limit: int = 32) -> dict:
        """The full rollup: totals, live queries, sessions, classes."""
        fingerprints = self.classes()
        with self._lock:
            active = [
                m.snapshot()
                for m in list(self._active.values())[:active_limit]
            ]
            return {
                "queries": self.queries,
                "killed": self.killed,
                "totals": dict(self.totals),
                "active": active,
                "sessions": {k: dict(v) for k, v in self._sessions.items()},
                "fingerprints": fingerprints,
            }

    def top_consumer(self) -> str | None:
        """The fingerprint with the most rows scanned (live + finished)."""
        with self._lock:
            best, best_rows = None, -1
            for fp, cls in self._classes.items():
                if cls.cost["rows_scanned"] > best_rows:
                    best, best_rows = fp, cls.cost["rows_scanned"]
            for meter in self._active.values():
                if (
                    meter.fingerprint is not None
                    and meter.rows_scanned > best_rows
                ):
                    best, best_rows = meter.fingerprint, meter.rows_scanned
            return best

    def reset(self) -> None:
        """Zero every rollup (tests); live meters are left registered."""
        with self._lock:
            self.queries = 0
            self.killed = 0
            self.totals = {field: 0 for field in ResourceMeter.FIELDS}
            self._sessions.clear()
            self._classes.clear()


#: Rollup for queries whose graph resolves to no storage engine.
_DEFAULT = ResourceAccounting()


def resources_for(engine: Any) -> ResourceAccounting:
    """The lazily-attached per-engine accounting (``None`` → shared default)."""
    return attached(
        engine,
        "resource_accounting",
        lambda: ResourceAccounting(engine),
        _DEFAULT,
    )


def reset_resources() -> None:
    """Zero the default *and* every per-engine accounting (tests)."""
    for instance in list(_instances):
        instance.reset()


def start_meter(
    engine: Any = None,
    *,
    session_id: Any = None,
    verb: str | None = None,
    query: str | None = None,
    overrides: dict | None = None,
    deadline_ms: float | None = None,
) -> ResourceMeter:
    """A meter with budgets resolved.

    Budget precedence, most specific wins: the per-frame *deadline_ms*,
    then the session's HELLO *overrides*, then the ``REPRO_*`` env vars.
    """
    overrides = overrides or {}
    max_rows = overrides.get("max_rows_scanned")
    if max_rows is None:
        max_rows = MAX_ROWS_SCANNED.get()
    max_result = overrides.get("max_result_rows")
    if max_result is None:
        max_result = MAX_RESULT_ROWS.get()
    if deadline_ms is None:
        deadline_ms = overrides.get("deadline_ms")
    if deadline_ms is None:
        deadline_ms = QUERY_DEADLINE_MS.get()
    return ResourceMeter(
        engine,
        session_id=session_id,
        verb=verb,
        query=query,
        max_rows_scanned=max_rows,
        max_result_rows=max_result,
        deadline_ms=deadline_ms,
    )


class metered:
    """Run a block under a fresh active meter (the server-verb wrapper):
    ``with metered(engine, ...) as meter``.

    Registers the meter in the engine's live view, installs it as the
    thread's active meter for the duration, and folds it into the
    rollups on the way out — including when the block raises, which is
    exactly what happens on a budget kill. An already-expired deadline
    kills before any work runs.
    """

    def __init__(self, engine: Any, **labels_and_budgets: Any) -> None:
        # the keywords of :func:`start_meter`
        self.meter = start_meter(engine, **labels_and_budgets)
        self._accounting = resources_for(engine)

    def __enter__(self) -> ResourceMeter:
        meter = self.meter
        self._accounting.begin(meter)
        self._outer, _local.context = _local.context, QueryContext(meter)
        if meter._armed:
            try:
                meter.check()
            except BaseException:
                self.__exit__()
                raise
        return meter

    def __exit__(self, *exc: Any) -> None:
        _local.context = self._outer
        self._accounting.finish(self.meter)
