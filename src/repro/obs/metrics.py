"""The unified metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` per database engine (``metrics_for``) and
one per server absorbs the per-subsystem counters behind a
single surface with two renderings:

* :meth:`MetricsRegistry.snapshot` — a structured dict for the STATS
  verb and dashboards;
* :meth:`MetricsRegistry.prometheus` — Prometheus text exposition
  format for the METRICS verb, scrapeable by standard collectors.

Counters and histograms use plain unlocked updates: metrics are
informational and a rare lost increment under threads is acceptable.
Gauges may wrap a callback so values like replication lag or plan-cache
hit rate are computed at scrape time rather than pushed.
"""

from __future__ import annotations

import math
import threading
import weakref
from bisect import bisect_left
from typing import Any, Callable, Iterator

from repro._util import attached

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "escape_help",
    "escape_label_value",
    "metrics_for",
]

#: Log-scale latency bucket upper bounds, in seconds (100µs → 10s).
#: Chosen to straddle the serving path's observed range: sub-millisecond
#: cache hits through multi-second analytical scans.
DEFAULT_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def _sanitize(name: str) -> str:
    """A Prometheus-legal metric name: ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    out = [c if (c.isalnum() or c in "_:") else "_" for c in name]
    if out and out[0].isdigit():
        out.insert(0, "_")
    return "".join(out) or "_"


def escape_help(text: str) -> str:
    """Escape a ``# HELP`` string per the text exposition format:
    backslash and newline only (quotes stay literal on HELP lines)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def escape_label_value(text: str) -> str:
    """Escape a label value per the text exposition format: backslash,
    double quote, and newline."""
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "value")

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        """Add *n* (default 1) to the count."""
        self.value += n

    def snapshot(self) -> int | float:
        """The current count."""
        return self.value

    def expose(self) -> Iterator[tuple[str, float]]:
        """The Prometheus series for this counter."""
        yield self.name, self.value


class Gauge:
    """A point-in-time value, either set directly or computed at scrape."""

    __slots__ = ("name", "help", "_value", "_fn")

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        fn: Callable[[], float | None] | None = None,
    ) -> None:
        self.name = name
        self.help = help
        self._value: float = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        """Set the gauge to *value* (push style)."""
        self._value = value

    def set_function(self, fn: Callable[[], float | None] | None) -> None:
        """Compute the value via *fn* at scrape time (pull style)."""
        self._fn = fn

    def snapshot(self) -> float:
        """The current value; callback failures read as 0.0."""
        if self._fn is not None:
            try:
                got = self._fn()
            except Exception:
                got = None
            return float(got) if got is not None else 0.0
        return self._value

    def expose(self) -> Iterator[tuple[str, float]]:
        """The Prometheus series for this gauge."""
        yield self.name, self.snapshot()


class Histogram:
    """Fixed-bucket latency histogram with percentile estimation.

    ``observe`` takes seconds. Percentiles are estimated by linear
    interpolation inside the winning bucket, which is as good as
    log-scale buckets allow — quote them as estimates, not truths.
    """

    __slots__ = ("name", "help", "bounds", "counts", "sum", "count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help
        self.bounds = tuple(sorted(buckets))
        self.counts = [0] * (len(self.bounds) + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, seconds: float) -> None:
        """Record one measurement, in seconds."""
        self.sum += seconds
        self.count += 1
        # the first bucket whose bound is >= seconds; past them all, +Inf
        self.counts[bisect_left(self.bounds, seconds)] += 1

    def percentile(self, q: float) -> float:
        """Estimated value at quantile *q* in ``[0, 1]`` (0.0 if empty)."""
        total = self.count
        if total == 0:
            return 0.0
        target = q * total
        seen = 0.0
        lo = 0.0
        for i, bound in enumerate(self.bounds):
            n = self.counts[i]
            if seen + n >= target and n > 0:
                frac = (target - seen) / n
                return lo + frac * (bound - lo)
            seen += n
            lo = bound
        return self.bounds[-1] if not math.isinf(lo) else lo

    def snapshot(self) -> dict[str, Any]:
        """Count, sum, and estimated p50/p95/p99."""
        return {
            "count": self.count,
            "sum": self.sum,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def expose(self) -> Iterator[tuple[str, float]]:
        """Cumulative ``_bucket`` series plus ``_sum`` and ``_count``."""
        cumulative = 0
        for i, bound in enumerate(self.bounds):
            cumulative += self.counts[i]
            le = escape_label_value(f"{bound:g}")
            yield f'{self.name}_bucket{{le="{le}"}}', cumulative
        yield f'{self.name}_bucket{{le="+Inf"}}', self.count
        yield f"{self.name}_sum", self.sum
        yield f"{self.name}_count", self.count


class MetricsRegistry:
    """A named collection of metrics with one text exposition.

    Registration is idempotent by name (the existing instrument is
    returned), so call sites can ``registry.counter("x")`` at use time
    without coordinating creation.
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._metrics: dict[str, Any] = {}
        self._lock = threading.Lock()

    def _register(self, cls: type, name: str, *args: Any, **kw: Any) -> Any:
        with self._lock:
            got = self._metrics.get(name)
            if got is not None:
                if not isinstance(got, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as {got.kind}"
                    )
                return got
            metric = cls(name, *args, **kw)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """The counter registered under *name* (created on first use)."""
        return self._register(Counter, name, help)

    def gauge(
        self,
        name: str,
        help: str = "",
        fn: Callable[[], float | None] | None = None,
    ) -> Gauge:
        """The gauge under *name*; *fn* (if given) replaces its callback."""
        gauge = self._register(Gauge, name, help)
        if fn is not None:
            gauge.set_function(fn)
        return gauge

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        """The histogram registered under *name* (created on first use)."""
        return self._register(Histogram, name, help, buckets)

    def get(self, name: str) -> Any | None:
        """The instrument registered under *name*, or ``None``."""
        return self._metrics.get(name)

    def snapshot(self) -> dict[str, Any]:
        """Every metric's current value as a structured dict."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {m.name: m.snapshot() for m in metrics}

    def prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            metrics = list(self._metrics.values())
        lines: list[str] = []
        for m in metrics:
            full = _sanitize(f"{self.namespace}_{m.name}")
            if m.help:
                lines.append(f"# HELP {full} {escape_help(m.help)}")
            lines.append(f"# TYPE {full} {m.kind}")
            for series, value in m.expose():
                if "{" in series:
                    base, labels = series.split("{", 1)
                    series = _sanitize(f"{self.namespace}_{base}") + "{" + labels
                else:
                    series = _sanitize(f"{self.namespace}_{series}")
                if isinstance(value, float) and not value.is_integer():
                    lines.append(f"{series} {value!r}")
                else:
                    lines.append(f"{series} {int(value)}")
        return "\n".join(lines) + "\n"


# -- per-engine registries --------------------------------------------------------

def metrics_for(engine: Any) -> MetricsRegistry:
    """The lazily-attached :class:`MetricsRegistry` for *engine*.

    First call creates the registry and wires the standard engine-level
    callback gauges (plan-cache hit rate, WAL bytes, replication lag,
    resource totals), mirroring ``cache_for``/``registry_for``.
    """
    return attached(engine, "metrics", lambda: _engine_registry(engine))


def _engine_registry(engine: Any) -> MetricsRegistry:
    registry = MetricsRegistry()
    ref = weakref.ref(engine)

    def plan_cache_hit_rate() -> float | None:
        eng = ref()
        cache = getattr(eng, "plan_cache", None) if eng else None
        if cache is None:
            return None
        stats = cache.stats()
        total = stats.get("hits", 0) + stats.get("misses", 0)
        return (stats.get("hits", 0) / total) if total else 0.0

    def wal_bytes() -> float | None:
        eng = ref()
        wal = getattr(eng, "wal", None) if eng else None
        if wal is None:
            return None
        for attr in ("bytes_written", "size_bytes"):
            got = getattr(wal, attr, None)
            if got is not None:
                return float(got() if callable(got) else got)
        path = getattr(wal, "path", None)
        if path is not None:
            import os

            try:
                return float(os.path.getsize(path))
            except OSError:
                return None
        return None

    def replication_lag() -> float | None:
        eng = ref()
        hub = getattr(eng, "replication_hub", None) if eng else None
        if hub is None:
            return None
        stats = hub.stats()
        lags = [
            row.get("lag", 0)
            for row in stats.get("replicas", ())
            if isinstance(row, dict)
        ]
        return float(max(lags)) if lags else 0.0

    def replication_lag_seconds() -> float | None:
        eng = ref()
        if eng is None:
            return None
        # on a replica engine the database registered its own
        # follower-clock measurement; on a leader, re-export the worst
        # follower self-report collected via REPLICA_ACK
        lag_fn = getattr(eng, "replica_lag_seconds_fn", None)
        if lag_fn is not None:
            return float(lag_fn())
        hub = getattr(eng, "replication_hub", None)
        if hub is None:
            return None
        lags = [
            row.get("lag_seconds", 0.0)
            for row in hub.stats().get("replicas", ())
            if isinstance(row, dict)
        ]
        return float(max(lags)) if lags else 0.0

    registry.gauge(
        "plan_cache_hit_rate",
        "Fraction of plan-cache lookups served from cache",
        fn=plan_cache_hit_rate,
    )
    registry.gauge(
        "wal_bytes",
        "Size of the write-ahead log in bytes",
        fn=wal_bytes,
    )
    registry.gauge(
        "replication_lag_commits",
        "Worst follower lag behind the leader commit clock, in commits",
        fn=replication_lag,
    )
    registry.gauge(
        "replication_lag_seconds",
        "Replication lag in wall-clock seconds: the replica's own "
        "apply-age measurement, or on a leader the worst follower "
        "self-report",
        fn=replication_lag_seconds,
    )
    def resource_total(field: str) -> Callable[[], float | None]:
        def read() -> float | None:
            eng = ref()
            if eng is None:
                return None
            from repro.obs.resources import resources_for

            accounting = resources_for(eng)
            if field in ("queries", "killed"):
                return float(getattr(accounting, field))
            if field == "active_queries":
                return float(len(accounting._active))
            return float(accounting.totals[field])

        return read

    from repro.obs.resources import ResourceMeter

    for field, help in (
        ("queries", "Metered queries finished on this engine"),
        ("killed", "Queries killed by a resource budget or deadline"),
        ("active_queries", "Metered queries running right now"),
        *ResourceMeter.FIELDS.items(),
    ):
        # the engine's own wal_bytes gauge already holds the bare name
        name = "wal_bytes_metered" if field == "wal_bytes" else field
        registry.gauge(f"resource_{name}", help, fn=resource_total(field))
    return registry
