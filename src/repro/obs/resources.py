"""Per-query resource accounting, budgets, and cooperative cancellation.

Latency observability (traces, the workload profile, slow-query capture)
says *how long* queries take; this module says *what they cost*. A
:class:`ResourceMeter` rides each query in its thread's
:class:`~repro.obs.context.QueryContext`, fed by cheap batch-boundary
hooks in the executor: rows/batches/bytes per scan,
kernel-vs-python dispatch counts, peak live-batch estimate, join
build-side sizes, result rows, and WAL bytes on the DML path.

Finished meters aggregate three ways in the per-engine
:class:`ResourceAccounting` (``resources_for(engine)``): per *active*
query (live, inspectable mid-flight), per session, and per workload
fingerprint (the same token :mod:`repro.obs.workload` profiles latency
under, so cost and latency join on one key). The rollup is served by
``db.stats()["resources"]``, the Prometheus page, the ``TOP`` server
verb, and ``tools/repro_top.py``.

On top of the meters sit *budgets*: ``REPRO_MAX_ROWS_SCANNED``,
``REPRO_MAX_RESULT_ROWS`` and ``REPRO_QUERY_DEADLINE_MS`` (overridable
per session via HELLO and per frame via ``deadline_ms``). Budgets are
checked cooperatively at batch boundaries — no thread is ever killed —
and an exceeded budget raises the retryable
:class:`~repro.errors.ResourceExhaustedError`, emits a ``query_killed``
lifecycle event carrying the meter snapshot, and leaves session and
transaction state fully usable. Metering defaults on (``REPRO_METER=off``
is the escape hatch); with no budget set the enforcement path is a
single attribute test per batch.
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import contextmanager
from typing import Any, Iterator

from repro._util import attached
from repro.config import (
    MAX_RESULT_ROWS,
    MAX_ROWS_SCANNED,
    METER,
    QUERY_DEADLINE_MS,
)
from repro.errors import ResourceExhaustedError
from repro.obs.context import QueryContext, _local

__all__ = [
    "ResourceMeter",
    "ResourceAccounting",
    "active_meter",
    "set_active_meter",
    "meter_mode",
    "set_meter_mode",
    "using_meter_mode",
    "resources_for",
    "reset_resources",
    "start_meter",
    "metered",
]

#: ``"on"`` (default) or ``"off"`` (``REPRO_METER=off``); ``set_`` forces
#: a mode for this process, ``using_`` temporarily (tests and the
#: overhead benchmark).
meter_mode = METER.get
set_meter_mode = METER.set
using_meter_mode = METER.using


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

    Executor hooks do plain unlocked increments (the
    :class:`~repro.exec.batch.ExecutorCounters` precedent: counts are
    informational, a rare lost update under threads is acceptable — and
    a meter is only ever *written* by the one thread running its
    query). ``_armed`` is precomputed
    at construction: with no budget set, the per-batch enforcement cost
    is a single attribute test.
    """

    FIELDS = (
        "rows_scanned",
        "batches_scanned",
        "bytes_scanned",
        "peak_batch_bytes",
        "kernel_batches",
        "python_batches",
        "join_build_rows",
        "result_rows",
        "wal_bytes",
    )

    __slots__ = FIELDS + (
        "engine",
        "session_id",
        "fingerprint",
        "verb",
        "query",
        "started_ns",
        "deadline_ns",
        "max_rows_scanned",
        "max_result_rows",
        "killed",
        "_armed",
    )

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
        for field in self.FIELDS:
            setattr(self, field, 0)
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
        from repro.obs.events import emit

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


#: Every live accounting, so :func:`reset_resources` zeroes them all.
_instances: "weakref.WeakSet[ResourceAccounting]" = weakref.WeakSet()


class ResourceAccounting:
    """Per-engine rollup of finished meters plus the live-query registry.

    Three aggregations, all bounded: cumulative totals, per-session
    rows (newest 64 sessions kept), and per-workload-fingerprint rows
    (top 256 by rows scanned kept — eviction drops the *cheapest*
    fingerprint, so the top-consumer view survives churn). ``_active``
    holds in-flight meters so ``TOP`` can inspect queries mid-flight.
    """

    MAX_SESSIONS = 64
    MAX_FINGERPRINTS = 256

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.queries = 0
        self.killed = 0
        self.totals = {field: 0 for field in ResourceMeter.FIELDS}
        self._active: dict[int, ResourceMeter] = {}
        self._sessions: dict[str, dict] = {}
        self._fingerprints: dict[str, dict] = {}
        _instances.add(self)

    def begin(self, meter: ResourceMeter) -> None:
        """Register a starting query's meter in the live view."""
        with self._lock:
            self._active[id(meter)] = meter

    def finish(self, meter: ResourceMeter) -> None:
        """Deregister a finished meter and fold it into the rollups."""
        with self._lock:
            self._active.pop(id(meter), None)
            self.queries += 1
            if meter.killed is not None:
                self.killed += 1
            totals = self.totals
            for field in ResourceMeter.FIELDS:
                if field == "peak_batch_bytes":
                    if meter.peak_batch_bytes > totals[field]:
                        totals[field] = meter.peak_batch_bytes
                else:
                    totals[field] += getattr(meter, field)
            if meter.session_id is not None:
                self._fold(
                    self._sessions, str(meter.session_id), meter,
                    self.MAX_SESSIONS, evict_oldest=True,
                )
            if meter.fingerprint is not None:
                self._fold(
                    self._fingerprints, meter.fingerprint, meter,
                    self.MAX_FINGERPRINTS, evict_oldest=False,
                )

    def _fold(
        self,
        table: dict[str, dict],
        key: str,
        meter: ResourceMeter,
        bound: int,
        evict_oldest: bool,
    ) -> None:
        row = table.get(key)
        if row is None:
            if len(table) >= bound:
                if evict_oldest:
                    table.pop(next(iter(table)))
                else:
                    cheapest = min(
                        table, key=lambda k: table[k]["rows_scanned"]
                    )
                    table.pop(cheapest)
            row = {field: 0 for field in ResourceMeter.FIELDS}
            row["queries"] = 0
            row["killed"] = 0
            table[key] = row
        for field in ResourceMeter.FIELDS:
            if field == "peak_batch_bytes":
                if meter.peak_batch_bytes > row[field]:
                    row[field] = meter.peak_batch_bytes
            else:
                row[field] += getattr(meter, field)
        row["queries"] += 1
        if meter.killed is not None:
            row["killed"] += 1

    def snapshot(self, active_limit: int = 32) -> dict:
        """The full rollup: totals, live queries, sessions, fingerprints."""
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
                "fingerprints": {
                    k: dict(v) for k, v in self._fingerprints.items()
                },
            }

    def top_consumer(self) -> str | None:
        """The fingerprint with the most rows scanned (live + finished)."""
        with self._lock:
            best, best_rows = None, -1
            for fp, row in self._fingerprints.items():
                if row["rows_scanned"] > best_rows:
                    best, best_rows = fp, row["rows_scanned"]
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
            self._fingerprints.clear()


#: Rollup for queries whose graph resolves to no storage engine.
_DEFAULT = ResourceAccounting()


def resources_for(engine: Any) -> ResourceAccounting:
    """The lazily-attached per-engine accounting (``None`` → shared default)."""
    return attached(
        engine, "resource_accounting", ResourceAccounting, _DEFAULT
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
) -> ResourceMeter | None:
    """A meter with budgets resolved, or ``None`` under ``REPRO_METER=off``.

    Budget precedence, most specific wins: the per-frame *deadline_ms*,
    then the session's HELLO *overrides*, then the ``REPRO_*`` env vars.
    """
    if meter_mode() != "on":
        return None
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


@contextmanager
def metered(
    engine: Any,
    *,
    session_id: Any = None,
    verb: str | None = None,
    query: str | None = None,
    overrides: dict | None = None,
    deadline_ms: float | None = None,
) -> Iterator[ResourceMeter | None]:
    """Run a block under a fresh active meter (the server-verb wrapper).

    Registers the meter in the engine's live view, installs it as the
    thread's active meter for the duration, and folds it into the
    rollups on the way out — including when the block raises, which is
    exactly what happens on a budget kill. An already-expired deadline
    kills before any work runs. Yields ``None`` (and does nothing) under
    ``REPRO_METER=off``.
    """
    meter = start_meter(
        engine,
        session_id=session_id,
        verb=verb,
        query=query,
        overrides=overrides,
        deadline_ms=deadline_ms,
    )
    if meter is None:
        yield None
        return
    accounting = resources_for(engine)
    accounting.begin(meter)
    outer, _local.context = _local.context, QueryContext(meter)
    try:
        if meter._armed:
            meter.check()
        yield meter
    finally:
        _local.context = outer
        accounting.finish(meter)
