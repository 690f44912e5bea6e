"""Secondary indexes over stored relations.

Paper §2.4 makes indexes part of the *model*: an alternative-view relation
function (``R2(foo) -> t``, ``R3(foo) -> {TF}``) is what a relational DBMS
calls an index. At the storage layer these views need a maintained
structure; this module provides:

* :class:`HashIndex` — equality lookups, O(1);
* :class:`SortedIndex` — range scans via bisection.

Indexes track the **latest committed** state (updated at commit time by
the engine). Snapshot-correct reads therefore re-verify each candidate key
against the reader's snapshot — the standard "index then recheck
visibility" discipline of MVCC systems; :meth:`IndexSet.lookup` callers do
this via the stored relation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Iterator

from repro._util import TOMBSTONE
from repro.errors import StorageError

__all__ = ["HashIndex", "SortedIndex", "IndexSet"]


class HashIndex:
    """attribute value → set of primary keys."""

    kind = "hash"

    def __init__(self, attr: str):
        self.attr = attr
        self._buckets: dict[Any, set[Any]] = {}

    def _value_of(self, data: Any) -> Any:
        if isinstance(data, dict):
            return data.get(self.attr, _ABSENT)
        return _ABSENT

    def update(self, key: Any, old_data: Any, new_data: Any) -> None:
        old_value = (
            self._value_of(old_data) if old_data is not TOMBSTONE else _ABSENT
        )
        new_value = (
            self._value_of(new_data) if new_data is not TOMBSTONE else _ABSENT
        )
        if old_value is not _ABSENT:
            bucket = self._buckets.get(_hashable(old_value))
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._buckets[_hashable(old_value)]
        if new_value is not _ABSENT:
            self._buckets.setdefault(_hashable(new_value), set()).add(key)

    def lookup(self, value: Any) -> set[Any]:
        return set(self._buckets.get(_hashable(value), ()))

    def __repr__(self) -> str:
        return f"<HashIndex on {self.attr!r}: {len(self._buckets)} values>"


class SortedIndex:
    """Sorted (value, key) pairs; supports equality and range lookups."""

    kind = "sorted"

    def __init__(self, attr: str):
        self.attr = attr
        self._entries: list[tuple[Any, Any]] = []  # (value, key-token)
        self._tokens: dict[Any, tuple[Any, Any]] = {}  # key → entry

    def _value_of(self, data: Any) -> Any:
        if isinstance(data, dict):
            return data.get(self.attr, _ABSENT)
        return _ABSENT

    def update(self, key: Any, old_data: Any, new_data: Any) -> None:
        token = _hashable(key)
        old_entry = self._tokens.pop(token, None)
        if old_entry is not None:
            index = bisect_left(self._entries, old_entry)
            while index < len(self._entries):
                if self._entries[index] == old_entry and (
                    self._entries[index][1] == old_entry[1]
                ):
                    del self._entries[index]
                    break
                index += 1
        new_value = (
            self._value_of(new_data) if new_data is not TOMBSTONE else _ABSENT
        )
        if new_value is not _ABSENT:
            entry = (new_value, key)
            try:
                insort(self._entries, entry)
            except TypeError:
                raise StorageError(
                    f"sorted index on {self.attr!r} requires mutually "
                    f"comparable values; got {new_value!r}"
                ) from None
            self._tokens[token] = entry

    def lookup(self, value: Any) -> set[Any]:
        lo = bisect_left(self._entries, (value,))
        out = set()
        for entry_value, key in self._entries[lo:]:
            if entry_value != value:
                break
            out.add(key)
        return out

    def range(
        self,
        lo: Any = None,
        hi: Any = None,
        lo_open: bool = False,
        hi_open: bool = False,
    ) -> Iterator[Any]:
        """Keys with value in the given range, in value order."""
        start = 0
        if lo is not None:
            start = (
                bisect_right(self._entries, (lo, _TOP))
                if lo_open
                else bisect_left(self._entries, (lo,))
            )
        for entry_value, key in self._entries[start:]:
            if hi is not None:
                if hi_open and not entry_value < hi:
                    break
                if not hi_open and entry_value > hi:
                    break
            yield key

    def min_value(self) -> Any:
        return self._entries[0][0] if self._entries else None

    def max_value(self) -> Any:
        return self._entries[-1][0] if self._entries else None

    def __repr__(self) -> str:
        return f"<SortedIndex on {self.attr!r}: {len(self._entries)} entries>"


class _Top:
    """Sorts after every comparable value (range upper sentinel)."""

    def __lt__(self, other: Any) -> bool:
        return False

    def __gt__(self, other: Any) -> bool:
        return True


_TOP = _Top()
_ABSENT = object()


def _hashable(value: Any) -> Any:
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


class IndexSet:
    """All secondary indexes of one table, updated together at commit."""

    def __init__(self) -> None:
        self._indexes: dict[str, HashIndex | SortedIndex] = {}

    def create(self, attr: str, kind: str = "hash") -> HashIndex | SortedIndex:
        if attr in self._indexes:
            return self._indexes[attr]
        index: HashIndex | SortedIndex
        if kind == "hash":
            index = HashIndex(attr)
        elif kind == "sorted":
            index = SortedIndex(attr)
        else:
            raise StorageError(f"unknown index kind {kind!r}")
        self._indexes[attr] = index
        return index

    def drop(self, attr: str) -> None:
        self._indexes.pop(attr, None)

    def get(self, attr: str) -> HashIndex | SortedIndex | None:
        return self._indexes.get(attr)

    def attrs(self) -> list[str]:
        return list(self._indexes)

    def update(self, key: Any, old_data: Any, new_data: Any) -> None:
        for index in self._indexes.values():
            index.update(key, old_data, new_data)

    def __len__(self) -> int:
        return len(self._indexes)
