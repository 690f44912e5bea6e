"""Query classes: fingerprints, plan hashes, regressions.

Every executed query normalizes to a stable **fingerprint**: the
canonical shape of its derived-function graph with predicate literals
parameterized (``age > 41`` and ``age > 12`` are the same class). Per
fingerprint the engine keeps one :class:`QueryClass`: the **plan
hash** — a digest of the physical operator tree, literal-normalized,
so the same class re-lowering to a *different* plan is detectable —
a latency histogram, and the class's cost row. The table lives in the
engine's :class:`~repro.obs.resources.ResourceAccounting`, and every
finished resource meter folds into its fingerprint's class: the
workload profile (``db.workload_profile()``, the WORKLOAD verb) and
the per-fingerprint cost rows (TOP, ``db.stats()["resources"]``) are
renderings of the same records.

Two regression detectors ride the fold:

* **plan change** — planning a fingerprint to a hash different from
  the one on record emits exactly one ``plan_change`` event carrying
  the last-good and new hashes (and keeps both plan texts for
  ``plan_diff``). Registration happens at plan time (the plan-cache
  miss path), so detection is deterministic.
* **p95 degradation** — once a class has a frozen baseline, a recent
  window whose p95 exceeds ``regression_factor`` times the baseline
  emits one ``latency_regression`` event and re-arms at the new level.
"""

from __future__ import annotations

import hashlib
import re
import time
from collections import deque
from typing import Any

from repro.obs.metrics import Histogram

__all__ = [
    "QueryClass",
    "fingerprint_of",
    "plan_hash_of",
    "normalize_source",
    "note_planned",
    "info_of",
]

#: Calls before a class freezes its baseline p95.
BASELINE_CALLS = 32

#: Recent-window size for the p95 degradation check.
RECENT_WINDOW = 32


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

    table = node.table() if isinstance(node, ScanNode) else None
    n = 0 if table is None else len(table.segments)
    return n if n > 1 else None


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
# the per-class record
# ---------------------------------------------------------------------------


class QueryClass:
    """One query fingerprint's record: the plan it lowers to, the
    latency of its runs, and what they cost. Written under its
    :class:`~repro.obs.resources.ResourceAccounting`'s lock."""

    __slots__ = (
        "fingerprint",
        "shape",
        "cost",
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

    def __init__(self, fingerprint: str, cost: dict[str, int]) -> None:
        self.fingerprint = fingerprint
        #: Literal-normalized physical root describe of the first plan
        #: on record — the class label.
        self.shape = ""
        #: Every meter field summed (the peak as a max), plus
        #: ``queries`` and ``killed``.
        self.cost = cost
        self.latency = Histogram(f"workload_{fingerprint}")
        self.plan_hash: str | None = None
        self.plan_text: str | None = None
        self.last_good_hash: str | None = None
        self.last_good_text: str | None = None
        self.plan_changes = 0
        self.last_change_at: float | None = None
        self.baseline_p95 = 0.0
        self.regressions = 0
        self.first_seen = time.time()
        self.last_seen = self.first_seen
        self._recent: deque[float] = deque(maxlen=RECENT_WINDOW)

    def observe_plan(
        self, shape: str, plan_hash: str, plan_text: str
    ) -> bool:
        """Register the plan this class lowered to; True when it
        *changed* (a first plan on record is not a change)."""
        if self.plan_hash == plan_hash:
            return False
        changed = self.plan_hash is not None
        if changed:
            self.last_good_hash = self.plan_hash
            self.last_good_text = self.plan_text
            self.plan_changes += 1
            self.last_change_at = time.time()
        else:
            # the event label must stay stable across re-lowerings
            self.shape = shape
        self.plan_hash, self.plan_text = plan_hash, plan_text
        return changed

    def observe(
        self, seconds: float, factor: float
    ) -> tuple[float, float] | None:
        """Fold one run's latency in; returns the (baseline, recent)
        p95 when the recent window exceeds *factor* times the
        baseline."""
        self.last_seen = time.time()
        self.latency.observe(seconds)
        self._recent.append(seconds)
        if self.latency.count == BASELINE_CALLS:
            self.baseline_p95 = self.latency.percentile(0.95)
        elif (
            # the window's p95 only rises past the line when a run
            # beyond it enters the window, so the common run skips the
            # sort
            seconds > factor * self.baseline_p95 > 0
            and len(self._recent) == RECENT_WINDOW
        ):
            window = sorted(self._recent)
            recent_p95 = window[int(0.95 * (len(window) - 1))]
            if recent_p95 > factor * self.baseline_p95:
                self.regressions += 1
                previous, self.baseline_p95 = (
                    self.baseline_p95,
                    recent_p95,  # re-arm: one event per level shift
                )
                return previous, recent_p95
        return None

    def to_dict(self) -> dict[str, Any]:
        """The class as JSON-safe plain data: the WORKLOAD row and,
        from the same record, TOP's fingerprint row."""
        return {
            "fingerprint": self.fingerprint,
            "shape": self.shape,
            "calls": self.cost["queries"],
            "rows": self.cost["result_rows"],
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
            **self.cost,
        }

    def plan_diff(self) -> dict[str, Any]:
        """Last-good vs current plan."""
        return {
            "fingerprint": self.fingerprint,
            "shape": self.shape,
            "plan_changes": self.plan_changes,
            "current": {"hash": self.plan_hash, "plan": self.plan_text},
            "last_good": (
                None
                if self.last_good_hash is None
                else {"hash": self.last_good_hash, "plan": self.last_good_text}
            ),
        }

    def __repr__(self) -> str:
        return (
            f"<QueryClass {self.fingerprint} "
            f"calls={self.cost['queries']} plan={self.plan_hash}>"
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
    from repro.obs.resources import resources_for

    try:
        resources_for(pipeline.engine).observe_plan(*info_of(pipeline))
    except Exception:
        pass
