"""Columnar batches: the physical tuple representation (DESIGN.md §13).

A :class:`ColumnBatch` carries a chunk of a relation as parallel lists —
``keys`` plus the committed row dicts — and materializes *views* of that
data lazily:

* ``col(attr)`` extracts one attribute column (undefined slots become the
  shared ``MISSING`` sentinel), which is what predicate kernels and
  vectorized aggregates consume;
* ``pairs()`` re-assembles ``(key, tuple_function)`` rows, which only
  happens at the client/wire boundary, the view-refresh boundary, or
  inside an operator that genuinely needs tuples (late materialization).

Selection is a *mask + take*: filters compute a boolean mask over the
batch and :meth:`ColumnBatch.take` compresses keys and rows without
touching per-row tuple objects.
"""

from __future__ import annotations

import weakref
from itertools import compress
from typing import Any, Iterator

from repro._util import MISSING, attached

__all__ = [
    "COLUMNAR_BATCH_SIZE",
    "ColumnBatch",
    "batch_bytes",
    "counters",
    "counters_for",
    "reset_counters",
]

#: Columnar batches are larger than row batches (exec.nodes.BATCH_SIZE):
#: per-batch overhead (column extraction, numpy conversion) amortizes
#: over more rows, and columns of this size still fit comfortably in
#: cache.
COLUMNAR_BATCH_SIZE = 1024


class ColumnBatch:
    """A chunk of rows held column-accessible, materialized late."""

    __slots__ = ("keys", "rows", "name", "np_cache", "_cols", "_pairs",
                 "_nbytes")

    def __init__(self, keys: list, rows: list, name: str = "batch"):
        self.keys = keys
        self.rows = rows  # committed dicts, shared (never mutated in place)
        self.name = name
        self.np_cache: dict = {}
        self._cols: dict = {}
        self._pairs: list | None = None
        self._nbytes: int | None = None

    def __len__(self) -> int:
        return len(self.keys)

    def approx_bytes(self) -> int:
        """O(1) live-size estimate: row count × a first-row width model.

        Feeds the resource meter's bytes-scanned and peak-batch gauges;
        an attribution heuristic, not an allocator measurement, so it
        deliberately avoids walking every row.
        """
        if self._nbytes is None:
            width = len(self.rows[0]) if self.rows else 0
            self._nbytes = len(self.keys) * (64 + 48 * width)
        return self._nbytes

    def col(self, attr: str) -> list:
        """One attribute as a value list; undefined slots are MISSING."""
        got = self._cols.get(attr)
        if got is None:
            got = [row.get(attr, MISSING) for row in self.rows]
            self._cols[attr] = got
        return got

    def pairs(self) -> list:
        """Materialize ``(key, tuple)`` rows — the late boundary."""
        if self._pairs is None:
            from repro.fdm.tuples import RowTuple

            name = self.name
            self._pairs = [
                (key, RowTuple(row, name))
                for key, row in zip(self.keys, self.rows)
            ]
        return self._pairs

    def __iter__(self) -> Iterator[tuple[Any, Any]]:
        return iter(self.pairs())

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return ColumnBatch(
                self.keys[index], self.rows[index], self.name
            )
        return self.pairs()[index]

    def take(self, mask: Any) -> "ColumnBatch":
        """Rows selected by a boolean mask, as a new batch."""
        if not isinstance(mask, list):
            mask = mask.tolist()
        return ColumnBatch(
            list(compress(self.keys, mask)),
            list(compress(self.rows, mask)),
            self.name,
        )

    def __repr__(self) -> str:
        return f"<ColumnBatch {self.name!r}: {len(self.keys)} rows>"


def batch_bytes(batch: Any) -> int:
    """Cheap live-size estimate for any batch shape the executor yields.

    ``ColumnBatch`` memoizes a first-row width model; plain row-entry
    lists get a flat per-entry constant. Used by the resource meter's
    scan hooks, so it must stay O(1) per batch.
    """
    if isinstance(batch, ColumnBatch):
        return batch.approx_bytes()
    return len(batch) * 128


#: Every live counters instance (the global plus per-engine ones), so
#: :func:`reset_counters` keeps meaning "zero everything" for tests.
_instances: "weakref.WeakSet[ExecutorCounters]" = weakref.WeakSet()


class ExecutorCounters:
    """Executor telemetry, surfaced via ``db.stats()`` and metrics.

    Plain unlocked increments: counts are informational (explain/stats),
    and a rare lost update under threads is acceptable.

    Two scopes exist. The module-level :data:`counters` instance keeps
    the historical process-wide view (tests and benchmarks diff it
    around a workload). :func:`counters_for` additionally attaches one
    instance *per storage engine*, so two databases in one process stop
    sharing — and clobbering — each other's counts; increment sites
    bump both.

    Attribution semantics (pinned by tests/test_resources.py): scan
    leaves attribute to the engine their function graph resolves to,
    partitioned tables included; only ad-hoc material functions land
    in the shared unattributed sink.
    """

    FIELDS = (
        "columnar_batches",
        "columnar_rows",
        "row_batches",
        "row_rows",
        "zone_segments_skipped",
        "zone_segments_scanned",
    )

    __slots__ = FIELDS + ("__weakref__",)

    def __init__(self) -> None:
        self.reset()
        _instances.add(self)

    def reset(self) -> None:
        self.columnar_batches = 0
        self.columnar_rows = 0
        self.row_batches = 0
        self.row_rows = 0
        self.zone_segments_skipped = 0
        self.zone_segments_scanned = 0

    def snapshot(self) -> dict[str, int]:
        return {field: getattr(self, field) for field in self.FIELDS}


counters = ExecutorCounters()

#: Sink for scans whose function resolves to no engine (ad-hoc material
#: functions). A distinct instance — never the global — because
#: increment sites bump both their scoped instance *and* the global,
#: and aliasing the two would double-count.
_unattributed = ExecutorCounters()


def counters_for(engine: Any) -> ExecutorCounters:
    """The lazily-attached per-engine counters instance.

    ``None`` maps to a shared "unattributed" instance so call sites can
    bump the result unconditionally alongside the global."""
    return attached(
        engine, "executor_counters", ExecutorCounters, _unattributed
    )


def reset_counters() -> None:
    """Zero the global *and* every per-engine counters instance."""
    for instance in list(_instances):
        instance.reset()
