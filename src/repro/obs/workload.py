"""The workload profiler: query classes, plan hashes, regressions.

Every executed query normalizes to a stable **fingerprint**: the
canonical shape of its derived-function graph with predicate literals
parameterized (``age > 41`` and ``age > 12`` are the same class). Per
fingerprint the profiler aggregates a latency histogram, call/row
totals, and the **plan hash** — a digest of the physical
operator tree, literal-normalized, so the same class re-lowering to a
*different* plan is detectable.

Two regression detectors ride the aggregation:

* **plan change** — planning a fingerprint to a hash different from
  the one on record emits exactly one ``plan_change`` event carrying
  the last-good and new hashes (and keeps both plan texts for
  ``plan_diff``). Registration happens at plan time (the plan-cache
  miss path), so detection is deterministic regardless of sampling.
* **p95 degradation** — once a class has a frozen baseline, a recent
  window whose p95 exceeds ``regression_factor`` times the baseline
  emits one ``latency_regression`` event and re-arms at the new level.

Sampling: ``REPRO_PROFILE`` is ``off``, ``on`` (every enumeration), or
an integer N (every Nth; unset → every 16th). The unsampled hot path
pays one counter increment and one switch read per query: the profiler
is one of the observers a query's context
(:mod:`repro.obs.context`) may carry, so the ``bench_obs_overhead``
budget (<5%) holds at the default sampling.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time
from collections import deque
from typing import Any

from repro._util import attached
from repro.config import DEFAULT_PROFILE_INTERVAL as DEFAULT_INTERVAL
from repro.config import PROFILE
from repro.obs.metrics import Histogram

__all__ = [
    "DEFAULT_INTERVAL",
    "QueryClass",
    "WorkloadProfile",
    "workload_for",
    "fingerprint_of",
    "plan_hash_of",
    "normalize_source",
    "profile_interval",
    "set_profile_mode",
    "using_profile_mode",
    "note_planned",
    "info_of",
    "sampled_profile",
]

#: Calls before a class freezes its baseline p95.
BASELINE_CALLS = 32

#: Recent-window size for the p95 degradation check.
RECENT_WINDOW = 32

#: Per-process sampling clock (plain int under the GIL; an occasional
#: lost increment merely shifts which query gets sampled).
_TICK = 0


#: The sampling interval: 0 = off, 1 = every query, N = 1-in-N.
#: ``set_profile_mode`` forces a mode for this process (the spellings
#: ``REPRO_PROFILE`` accepts; ``None`` restores env control),
#: ``using_profile_mode`` temporarily (tests and benchmarks).
profile_interval = PROFILE.get
set_profile_mode = PROFILE.set
using_profile_mode = PROFILE.using


# ---------------------------------------------------------------------------
# normalization: fingerprints and plan hashes
# ---------------------------------------------------------------------------

#: String and numeric literals inside predicate/describe source text.
#: ``(?<![\w.])`` keeps identifiers like ``v2`` and attribute paths
#: intact while catching bare numbers.
_LITERAL = re.compile(
    r"'(?:[^'\\]|\\.)*'"
    r"|\"(?:[^\"\\]|\\.)*\""
    r"|(?<![\w.])\d+(?:\.\d+)?"
)


def normalize_source(text: str) -> str:
    """Predicate/plan source with every literal replaced by ``?`` —
    the parameterization that makes a query class stable across
    different constants."""
    return _LITERAL.sub("?", text)


def fingerprint_of(fn: Any) -> str:
    """The query-class fingerprint of *fn*: a short stable hex digest
    of its plan token read without literals, identities or data
    versions — the plan cache's :func:`~repro.exec.cache.fingerprint`
    is the other reading of the same token."""
    from repro.operators import plan_token

    token = plan_token(fn, literals=False)
    return hashlib.sha1(repr(token).encode()).hexdigest()[:12]


def _fan_out(node: Any) -> int | None:
    from repro.exec.nodes import ScanNode

    table = node.partitioned_table() if isinstance(node, ScanNode) else None
    return table.n_partitions if table is not None else None


def plan_hash_of(pipeline: Any) -> str:
    """A stable digest of a physical plan's operator tree.

    Hashes ``(depth, node class, literal-normalized describe)`` per
    node, so two lowerings of the same class with different predicate
    constants hash equal while a structurally different plan (a scan
    gaining a partition annotation, a key-lookup conversion) hashes
    different. A partitioned scan's fan-out is structure, not a literal
    — its describe renders the count as a number that normalization
    would erase, so it is hashed explicitly (a 4-way to 2-way
    repartition is a plan change).
    """
    from repro.obs.instrument import walk

    token = tuple(
        (
            depth,
            type(node).__name__,
            normalize_source(node.describe()),
            _fan_out(node),
        )
        for node, depth in walk(pipeline.root)
    )
    return hashlib.sha1(repr(token).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# per-class aggregation
# ---------------------------------------------------------------------------


class QueryClass:
    """Aggregated statistics for one query fingerprint."""

    __slots__ = (
        "fingerprint",
        "shape",
        "calls",
        "rows",
        "latency",
        "plan_hash",
        "plan_text",
        "last_good_hash",
        "last_good_text",
        "plan_changes",
        "last_change_at",
        "baseline_p95",
        "regressions",
        "first_seen",
        "last_seen",
        "_recent",
    )

    def __init__(
        self, fingerprint: str, shape: str, plan_hash: str, plan_text: str
    ) -> None:
        self.fingerprint = fingerprint
        #: Literal-normalized physical root describe — the class label.
        self.shape = shape
        self.calls = 0
        self.rows = 0
        self.latency = Histogram(f"workload_{fingerprint}")
        self.plan_hash = plan_hash
        self.plan_text = plan_text
        self.last_good_hash: str | None = None
        self.last_good_text: str | None = None
        self.plan_changes = 0
        self.last_change_at: float | None = None
        self.baseline_p95 = 0.0
        self.regressions = 0
        self.first_seen = time.time()
        self.last_seen = self.first_seen
        self._recent: deque[float] = deque(maxlen=RECENT_WINDOW)

    def to_dict(self) -> dict[str, Any]:
        """The class as JSON-safe plain data (WORKLOAD verb rows)."""
        return {
            "fingerprint": self.fingerprint,
            "shape": self.shape,
            "calls": self.calls,
            "rows": self.rows,
            "p50_ms": self.latency.percentile(0.50) * 1e3,
            "p95_ms": self.latency.percentile(0.95) * 1e3,
            "total_ms": self.latency.sum * 1e3,
            "plan_hash": self.plan_hash,
            "plan_changes": self.plan_changes,
            "last_good_hash": self.last_good_hash,
            "last_change_at": self.last_change_at,
            "regressions": self.regressions,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
        }

    def __repr__(self) -> str:
        return (
            f"<QueryClass {self.fingerprint} calls={self.calls} "
            f"plan={self.plan_hash}>"
        )


class WorkloadProfile:
    """Per-engine fingerprint → :class:`QueryClass` aggregation.

    Bounded: beyond *capacity* classes the coldest (fewest calls) is
    evicted, so an adversarial stream of unique shapes cannot grow the
    profile without limit.
    """

    def __init__(self, capacity: int = 512, engine: Any = None) -> None:
        self._lock = threading.Lock()
        self._classes: dict[str, QueryClass] = {}
        self.capacity = capacity
        #: Recent-window p95 beyond ``factor * baseline`` flags a
        #: latency regression for the class.
        self.regression_factor = 3.0
        self._engine_ref = engine  # where this profile's events go

    # -- ingestion ---------------------------------------------------------------

    def _class_for(
        self, fingerprint: str, shape: str, plan_hash: str, plan_text: str
    ) -> QueryClass:
        cls = self._classes.get(fingerprint)
        if cls is None:
            cls = QueryClass(fingerprint, shape, plan_hash, plan_text)
            self._classes[fingerprint] = cls
            if len(self._classes) > self.capacity:
                coldest = min(
                    (c for c in self._classes.values()), key=lambda c: c.calls
                )
                self._classes.pop(coldest.fingerprint, None)
        return cls

    def observe_plan(
        self,
        fingerprint: str,
        shape: str,
        plan_hash: str,
        plan_text: str,
    ) -> bool:
        """Register the plan a fingerprint lowered to; returns True when
        this was a *change* (and emits one ``plan_change`` event).

        Called from the plan-cache miss path, so detection is
        deterministic — a changed plan is seen the first time it is
        built, not the next time sampling happens to fire.
        """
        with self._lock:
            cls = self._class_for(fingerprint, shape, plan_hash, plan_text)
            if cls.plan_hash == plan_hash:
                return False
            cls.last_good_hash = cls.plan_hash
            cls.last_good_text = cls.plan_text
            cls.plan_hash = plan_hash
            cls.plan_text = plan_text
            cls.plan_changes += 1
            cls.last_change_at = time.time()
            # the class's first-seen shape, not the new plan's root:
            # the event label must stay stable across re-lowerings
            stable_shape = cls.shape
        from repro.obs.events import emit

        emit(
            self._engine_ref,
            "plan_change",
            fingerprint=fingerprint,
            shape=stable_shape,
            last_good_hash=cls.last_good_hash,
            plan_hash=plan_hash,
        )
        return True

    def record(
        self,
        fingerprint: str,
        shape: str,
        plan_hash: str,
        plan_text: str,
        wall_ns: int,
        rows: int,
    ) -> None:
        """Fold one sampled enumeration into its class."""
        seconds = wall_ns / 1e9
        regressed = False
        with self._lock:
            cls = self._class_for(fingerprint, shape, plan_hash, plan_text)
            cls.calls += 1
            cls.rows += rows
            cls.last_seen = time.time()
            cls.latency.observe(seconds)
            cls._recent.append(seconds)
            if cls.calls == BASELINE_CALLS:
                cls.baseline_p95 = cls.latency.percentile(0.95)
            elif (
                cls.baseline_p95 > 0
                and len(cls._recent) == RECENT_WINDOW
            ):
                window = sorted(cls._recent)
                recent_p95 = window[int(0.95 * (len(window) - 1))]
                if recent_p95 > self.regression_factor * cls.baseline_p95:
                    cls.regressions += 1
                    previous, cls.baseline_p95 = (
                        cls.baseline_p95,
                        recent_p95,  # re-arm: one event per level shift
                    )
                    regressed = True
        if regressed:
            from repro.obs.events import emit

            emit(
                self._engine_ref,
                "latency_regression",
                fingerprint=fingerprint,
                shape=shape,
                baseline_p95_ms=previous * 1e3,
                recent_p95_ms=recent_p95 * 1e3,
            )

    # -- introspection -----------------------------------------------------------

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Every class as plain data, keyed by fingerprint."""
        with self._lock:
            classes = list(self._classes.values())
        return {cls.fingerprint: cls.to_dict() for cls in classes}

    def plan_diff(self, fingerprint: str) -> dict[str, Any] | None:
        """Last-good vs current plan for one class, or ``None``."""
        with self._lock:
            cls = self._classes.get(fingerprint)
            if cls is None:
                return None
            return {
                "fingerprint": fingerprint,
                "shape": cls.shape,
                "plan_changes": cls.plan_changes,
                "current": {"hash": cls.plan_hash, "plan": cls.plan_text},
                "last_good": (
                    None
                    if cls.last_good_hash is None
                    else {
                        "hash": cls.last_good_hash,
                        "plan": cls.last_good_text,
                    }
                ),
            }

    def clear(self) -> None:
        """Forget every class (tests and operator resets)."""
        with self._lock:
            self._classes.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._classes)

    def __repr__(self) -> str:
        return f"<WorkloadProfile {len(self)} classes>"


#: Profile for graphs that reach no storage engine.
_DEFAULT_PROFILE = WorkloadProfile()


def workload_for(engine: Any) -> WorkloadProfile:
    """The lazily-attached :class:`WorkloadProfile` for *engine* (the
    process-wide default when *engine* is ``None``)."""
    return attached(
        engine, "workload", lambda: WorkloadProfile(engine=engine),
        _DEFAULT_PROFILE,
    )


# ---------------------------------------------------------------------------
# routing hooks (called from repro.exec.run and repro.obs.context)
# ---------------------------------------------------------------------------


def info_of(pipeline: Any) -> tuple[str, str, str, str]:
    """(fingerprint, shape, plan hash, plan text) of a routed plan,
    computed on first use and kept on the plan object."""
    info = pipeline.workload_info
    if info is None:
        info = pipeline.workload_info = (
            fingerprint_of(pipeline.logical),
            normalize_source(pipeline.root.describe()),
            plan_hash_of(pipeline),
            pipeline.explain(),
        )
    return info


def note_planned(pipeline: Any) -> None:
    """Plan-cache miss hook: register what this fingerprint lowered
    to, firing the plan-change detector when the hash moved. Off the
    enumeration hot path (planning already walks the graph); never
    raises into the planner."""
    if profile_interval() <= 0:
        return
    try:
        workload_for(pipeline.engine).observe_plan(*info_of(pipeline))
    except Exception:
        pass


def sampled_profile(
    engine: Any, always: bool = False
) -> WorkloadProfile | None:
    """Sampling gate for one enumeration: *engine*'s profile when this
    run should be recorded, ``None`` on the fast path (one counter
    increment, one modulo, one switch read). *always* skips the gate
    for a run that is fully timed anyway."""
    interval = profile_interval()
    if interval <= 0:
        return None
    if not always:
        global _TICK
        _TICK += 1
        if interval > 1 and _TICK % interval:
            return None
    return workload_for(engine)
