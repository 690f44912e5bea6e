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

from typing import Any, Iterator

from repro.exec import kernels

__all__ = [
    "COLUMNAR_BATCH_SIZE",
    "ColumnBatch",
    "batch_bytes",
    "entry_batches",
    "image_batches",
]

#: Rows per columnar scan batch, chosen by measurement (DESIGN.md §13
#: "Batch size"): per-batch overhead (kernel dispatch, selection
#: bookkeeping, a join probe's ``isin``) amortizes over more rows up to
#: here, while a whole segment in one batch made group folds slower.
COLUMNAR_BATCH_SIZE = 8192


class ColumnBatch:
    """Selected rows of one image, column-accessible, materialized late."""

    __slots__ = ("image", "sel", "name", "_cols", "_pairs", "_at")

    def __init__(self, image: Any, sel: Any, name: str = "batch"):
        self.image = image
        #: ``slice`` of the image, or its positions (list or int array)
        self.sel = sel
        self.name = name
        self._cols: dict = {}
        self._pairs: list | None = None
        self._at: list | None = None  # an array selection as a list

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
        if type(sel) is not list:  # an int array: its list form, once
            sel = self._at = self._at or sel.tolist()
        return [values[i] for i in sel]

    @property
    def keys(self) -> list:
        """The selected rows' keys."""
        return self.gather(self.image.keys)

    @property
    def rows(self) -> list:
        """The selected rows' committed data dicts."""
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
            from repro.fdm.tuples import TupleFunction

            of, name = TupleFunction.of, self.name
            self._pairs = [
                (key, of(row, name))
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

