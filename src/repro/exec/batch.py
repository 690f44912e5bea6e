"""Columnar batches: the physical tuple representation (DESIGN.md §13).

A :class:`ColumnBatch` is a *view*: a
:class:`~repro.storage.versioned.ColumnImage` (a segment's keys and
committed row dicts, with lazily derived whole-segment columns) plus a
selection of its positions — a slice straight off a scan, an index
list or array once a filter has run. Nothing is copied per batch:

* ``col(attr)`` slices the image's column for the attribute (undefined
  slots are the shared ``MISSING`` sentinel), which is what predicate
  kernels and the Python folds consume; the kernels slice the image's
  typed arrays the same way;
* ``pairs()`` re-assembles ``(key, tuple_function)`` rows, which only
  happens at the client/wire boundary, the view-refresh boundary, or
  inside an operator that genuinely needs tuples (late materialization).

Selection is a *mask + take*: filters compute a boolean mask over the
batch and :meth:`ColumnBatch.take` narrows the selection, so a chain
of filters carries one selection vector forward.
"""

from __future__ import annotations

import weakref
from typing import Any, Iterator

from repro._util import attached
from repro.exec import kernels

__all__ = [
    "COLUMNAR_BATCH_SIZE",
    "ColumnBatch",
    "batch_bytes",
    "counters",
    "counters_for",
    "entry_batches",
    "image_batches",
    "reset_counters",
]

#: Columnar batches are larger than row batches (exec.nodes.BATCH_SIZE):
#: per-batch overhead (kernel dispatch, selection bookkeeping)
#: amortizes over more rows, and columns of this size still fit
#: comfortably in cache.
COLUMNAR_BATCH_SIZE = 1024


class ColumnBatch:
    """Selected rows of one image, column-accessible, materialized late."""

    __slots__ = ("image", "sel", "name", "_cols", "_pairs")

    def __init__(self, image: Any, sel: Any, name: str = "batch"):
        self.image = image
        #: ``slice`` of the image, or its positions (list or int array)
        self.sel = sel
        self.name = name
        self._cols: dict = {}
        self._pairs: list | None = None

    @classmethod
    def of(cls, keys: list, rows: list, name: str = "batch") -> "ColumnBatch":
        """All of *rows*, over a throwaway image of their own."""
        from repro.storage.versioned import ColumnImage

        return cls(ColumnImage(keys, rows), slice(0, len(keys)), name)

    def __len__(self) -> int:
        sel = self.sel
        return sel.stop - sel.start if type(sel) is slice else len(sel)

    def gather(self, values: list) -> list:
        """The selected entries of a whole-image list."""
        sel = self.sel
        if type(sel) is slice:
            return values[sel]
        if type(sel) is not list:
            sel = sel.tolist()
        return [values[i] for i in sel]

    @property
    def keys(self) -> list:
        return self.gather(self.image.keys)

    @property
    def rows(self) -> list:
        return self.gather(self.image.rows)

    def approx_bytes(self) -> int:
        """O(1) live-size estimate: row count × a first-row width model.

        Feeds the resource meter's bytes-scanned and peak-batch gauges;
        an attribution heuristic, not an allocator measurement, so it
        deliberately avoids walking every row.
        """
        rows = self.image.rows
        width = len(rows[0]) if rows else 0
        return len(self) * (64 + 48 * width)

    def col(self, attr: str) -> list:
        """One attribute as a value list; undefined slots are MISSING."""
        got = self._cols.get(attr)
        if got is None:
            got = self._cols[attr] = self.gather(self.image.column(attr))
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
        if not isinstance(index, slice):
            return self.pairs()[index]
        sel = self.sel
        if type(sel) is slice:
            span = range(sel.start, sel.stop)[index]
            sel = slice(span.start, span.stop) if span.step == 1 else list(span)
        else:
            sel = sel[index]
        return ColumnBatch(self.image, sel, self.name)

    def take(self, mask: Any) -> "ColumnBatch":
        """Rows selected by a boolean mask, as a narrower view."""
        return ColumnBatch(
            self.image, kernels.select(self.sel, mask), self.name
        )

    def __repr__(self) -> str:
        return f"<ColumnBatch {self.name!r}: {len(self)} rows>"


def image_batches(image: Any, batch_size: int, name: str) -> Iterator[ColumnBatch]:
    """An image as consecutive slices of *batch_size* rows."""
    n = len(image)
    for start in range(0, n, batch_size):
        yield ColumnBatch(image, slice(start, min(start + batch_size, n)), name)


def entry_batches(
    entries: Iterator[tuple[Any, Any]], batch_size: int, name: str
) -> Iterator[Any]:
    """Batches over ``(key, data)`` entries no cached image covers.

    Each run of up to *batch_size* dict rows becomes a throwaway image;
    a value that is not a dict (a nested function) comes alone as a
    one-entry row batch, so enumeration order is kept.
    """
    keys: list = []
    rows: list = []
    for key, data in entries:
        if not isinstance(data, dict):
            if keys:
                yield ColumnBatch.of(keys, rows, name)
                keys, rows = [], []
            yield [(key, data)]
            continue
        keys.append(key)
        rows.append(data)
        if len(keys) >= batch_size:
            yield ColumnBatch.of(keys, rows, name)
            keys, rows = [], []
    if keys:
        yield ColumnBatch.of(keys, rows, name)


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
        "images_built",
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
        #: segment images scanned from the version chains (a scan that
        #: found its segment's image current builds none)
        self.images_built = 0

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
