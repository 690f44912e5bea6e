"""Partition schemes: how a table's rows fan out into segments.

A :class:`PartitionScheme` assigns every row of a table to exactly one
partition id in ``range(n_partitions)``, from either the row's key
(``attr=None``) or one of its attributes. Two families exist:

* :class:`HashScheme` — a *stable* hash of the partitioning value modulo
  the partition count. Stability matters: Python's builtin ``hash`` is
  salted per process (``PYTHONHASHSEED``), which would make WAL replay
  place rows differently than the original run. The scheme therefore
  hashes a canonical byte encoding with CRC-32.
* :class:`RangeScheme` — sorted boundary values ``[b1, .., bk]`` carve
  the value space into ``k+1`` partitions: ``(-inf, b1)``, ``[b1, b2)``,
  …, ``[bk, inf)``.

Rows that do not define the partitioning attribute — and values that do
not compare against range boundaries — land in partition 0 (the "rest"
partition). That placement is sound for pruning: a predicate anchored on
the partitioning attribute can never select such a row, so eliminating
non-matching partitions never eliminates a matching row.
"""

from __future__ import annotations

import numbers
import zlib
from bisect import bisect_right
from typing import Any, Mapping

from repro._util import TOMBSTONE
from repro.errors import StorageError

__all__ = [
    "PartitionScheme",
    "HashScheme",
    "RangeScheme",
    "hash_partition",
    "range_partition",
    "as_scheme",
    "stable_hash",
]

_MISSING = object()


def _canonical(value: Any) -> bytes:
    """A process-independent byte encoding for hashing.

    Numerics that compare equal must encode equally — Python's ``==``
    (the predicate semantics pruning reasons about) treats ``30``,
    ``30.0`` and ``True`` as the same value, so placement and
    eq-pruning must co-locate them or a hash scheme would silently
    drop matching rows from pruned scans.
    """
    if value is None:
        return b"N"
    if isinstance(value, numbers.Number) and not isinstance(value, complex):
        # covers bool/int/float and exact types like Decimal/Fraction —
        # Decimal('30') == 30, so they must co-locate too
        try:
            as_int = int(value)
            if value == as_int:  # 30 == 30.0 == True-as-1, exactly
                return b"n" + str(as_int).encode()
        except (OverflowError, ValueError, TypeError):
            pass  # inf / nan fall through to the float repr
        try:
            return b"n" + repr(float(value)).encode()
        except (OverflowError, ValueError, TypeError):
            return b"r" + repr(value).encode("utf-8", "replace")
    if isinstance(value, str):
        return b"s" + value.encode("utf-8", "surrogatepass")
    if isinstance(value, bytes):
        return b"y" + value
    if isinstance(value, tuple):
        return b"t(" + b",".join(_canonical(v) for v in value) + b")"
    return b"r" + repr(value).encode("utf-8", "replace")


def stable_hash(value: Any) -> int:
    """A deterministic, process-independent hash (CRC-32 of the
    canonical encoding). WAL replay and the original run must place
    every row identically, so ``hash()`` (salted) is out."""
    return zlib.crc32(_canonical(value))


def _value_of(key: Any, row: Any, attr: str | None) -> Any:
    """The partitioning value of one (key, row), or ``_MISSING``."""
    if attr is None:
        return key
    if isinstance(row, Mapping):
        return row.get(attr, _MISSING)
    if row is TOMBSTONE or row is None:
        return _MISSING
    # nested FDM function stored as a row value
    try:
        get = row.get
    except AttributeError:
        return _MISSING
    try:
        return get(attr, _MISSING)
    except Exception:
        return _MISSING


class PartitionScheme:
    """Base class: assigns (key, row) pairs to partition ids."""

    kind = "scheme"

    def __init__(self, attr: str | None, n_partitions: int):
        if n_partitions < 1:
            raise StorageError("a partition scheme needs >= 1 partitions")
        self.attr = attr
        self.n_partitions = n_partitions

    # -- placement --------------------------------------------------------------

    def partition_for_value(self, value: Any) -> int:
        raise NotImplementedError

    def partition_for(self, key: Any, row: Any) -> int:
        value = _value_of(key, row, self.attr)
        if value is _MISSING:
            return 0
        return self.partition_for_value(value)

    # -- pruning hooks (see repro.partition.prune) -------------------------------

    def partitions_for_eq(self, value: Any) -> frozenset[int] | None:
        """Partitions that may hold rows where the attribute == value."""
        try:
            return frozenset((self.partition_for_value(value),))
        except Exception:
            return None

    def partitions_for_range(
        self,
        lo: Any = None,
        hi: Any = None,
        lo_open: bool = False,
        hi_open: bool = False,
    ) -> frozenset[int] | None:
        """Partitions that may hold attribute values in the interval, or
        ``None`` when the scheme cannot decide (hash schemes)."""
        return None

    # -- identity ---------------------------------------------------------------

    def spec(self) -> dict[str, Any]:
        """JSON-able description (recovery metadata, compatibility)."""
        raise NotImplementedError

    def compatible_with(self, other: "PartitionScheme") -> bool:
        """Same family, same parameters: equal values land in equal pids."""
        return isinstance(other, PartitionScheme) and self.spec() == other.spec()

    def describe(self) -> str:
        target = self.attr if self.attr is not None else "__key__"
        return f"{self.kind}({target}, {self.n_partitions})"

    def __repr__(self) -> str:
        return f"<PartitionScheme {self.describe()}>"


class HashScheme(PartitionScheme):
    """Stable-hash partitioning on an attribute (or the key)."""

    kind = "hash"

    def partition_for_value(self, value: Any) -> int:
        return stable_hash(value) % self.n_partitions

    def spec(self) -> dict[str, Any]:
        return {"kind": "hash", "attr": self.attr, "n": self.n_partitions}


class RangeScheme(PartitionScheme):
    """Boundary-based partitioning on an attribute (or the key).

    Boundaries must be sorted and mutually comparable. Values below the
    first boundary — and values that do not compare — go to partition 0.
    """

    kind = "range"

    def __init__(self, attr: str | None, boundaries: Any):
        bounds = list(boundaries)
        if not bounds:
            raise StorageError("range partitioning needs >= 1 boundary")
        if any(bounds[i] >= bounds[i + 1] for i in range(len(bounds) - 1)):
            raise StorageError(
                f"range boundaries must be strictly increasing: {bounds!r}"
            )
        super().__init__(attr, len(bounds) + 1)
        self.boundaries = bounds

    def partition_for_value(self, value: Any) -> int:
        try:
            return bisect_right(self.boundaries, value)
        except TypeError:
            return 0

    def partitions_for_eq(self, value: Any) -> frozenset[int] | None:
        return frozenset((self.partition_for_value(value),))

    def partitions_for_range(
        self,
        lo: Any = None,
        hi: Any = None,
        lo_open: bool = False,
        hi_open: bool = False,
    ) -> frozenset[int] | None:
        try:
            lo_pid = 0 if lo is None else bisect_right(self.boundaries, lo)
            if hi is None:
                hi_pid = self.n_partitions - 1
            else:
                hi_pid = bisect_right(self.boundaries, hi)
                if hi_open and hi in self.boundaries:
                    # v < boundary: the partition starting at it is out
                    hi_pid -= 1
        except TypeError:
            return None
        if hi_pid < lo_pid:
            return frozenset()
        return frozenset(range(lo_pid, hi_pid + 1))

    def spec(self) -> dict[str, Any]:
        return {
            "kind": "range",
            "attr": self.attr,
            "boundaries": list(self.boundaries),
        }

    def describe(self) -> str:
        target = self.attr if self.attr is not None else "__key__"
        return f"range({target}, {self.boundaries!r})"


def hash_partition(attr: str | None = None, n: int = 4) -> HashScheme:
    """Hash-partition on *attr* (``None`` = the row key) into *n* parts."""
    return HashScheme(attr, n)


def range_partition(attr: str | None, boundaries: Any) -> RangeScheme:
    """Range-partition on *attr* at the given boundary values."""
    return RangeScheme(attr, boundaries)


def as_scheme(obj: Any) -> PartitionScheme:
    """Coerce a scheme, a spec dict, or a short tuple into a scheme.

    Accepted: a :class:`PartitionScheme`; ``{"kind": "hash", ...}`` /
    ``{"kind": "range", ...}`` spec dicts; ``("hash", attr, n)`` and
    ``("range", attr, boundaries)`` tuples; a bare int *n* (hash on the
    key into *n* partitions).
    """
    if isinstance(obj, PartitionScheme):
        return obj
    if isinstance(obj, int):
        return HashScheme(None, obj)
    if isinstance(obj, Mapping):
        kind = obj.get("kind")
        if kind == "hash":
            return HashScheme(obj.get("attr"), int(obj["n"]))
        if kind == "range":
            return RangeScheme(obj.get("attr"), obj["boundaries"])
        raise StorageError(f"unknown partition scheme spec {obj!r}")
    if isinstance(obj, tuple) and obj and obj[0] in ("hash", "range"):
        if obj[0] == "hash":
            return HashScheme(obj[1], int(obj[2]))
        return RangeScheme(obj[1], obj[2])
    raise StorageError(f"cannot interpret {obj!r} as a partition scheme")
