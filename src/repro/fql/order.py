"""Ordering and limiting — FQL extension operators (contribution 8).

Functions have no inherent mapping order; ``order_by`` imposes a
presentation order on enumeration without changing any mapping, ``limit``
truncates enumeration, and ``top`` composes the two. These are "operators
defined outside the realm of the database" in the paper's sense: adding
them required no model change at all.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator

from repro.errors import OperatorError, UndefinedInputError
from repro.fdm.domains import Domain
from repro.fdm.functions import DerivedFunction, FDMFunction
from repro.fdm.relations import RelationFunction

__all__ = ["order_by", "limit", "top", "OrderedFunction", "LimitedFunction"]


def _is_nan(value: Any) -> bool:
    return isinstance(value, float) and math.isnan(value)


def _value_lt(a: Any, b: Any) -> bool:
    """A *consistent total order* over arbitrary sort-key values.

    The optimizer reorders filters around sorts, which preserves the
    observable order only if sorting any subset agrees with sorting the
    whole set — i.e. only if the comparison is a genuine total order.
    Python's ``<`` is not one over hostile values: ``NaN < x`` and
    ``x < NaN`` are both False (non-transitive ties that let timsort
    emit an arbitrary arrangement), and mixed-type tuples raise. So:
    NaN sorts after every other number, tuples compare elementwise
    under this same order, and cross-type comparisons that raise fall
    back to ordering by type name.
    """
    if isinstance(a, tuple) and isinstance(b, tuple):
        for x, y in zip(a, b):
            if _value_lt(x, y):
                return True
            if _value_lt(y, x):
                return False
        return len(a) < len(b)
    if (
        isinstance(a, (int, float))
        and isinstance(b, (int, float))
        and (_is_nan(a) or _is_nan(b))
    ):
        return _is_nan(b) and not _is_nan(a)
    try:
        return bool(a < b)
    except TypeError:
        return str(type(a)) < str(type(b))


class _SortKey:
    """Totally-ordered wrapper: undefined sort keys go last, the rest
    compare via :func:`_value_lt` (no TypeError mid-sort, no NaN
    inconsistency)."""

    __slots__ = ("rank", "value")

    def __init__(self, rank: int, value: Any):
        self.rank = rank
        self.value = value

    def __lt__(self, other: "_SortKey") -> bool:
        if self.rank != other.rank:
            return self.rank < other.rank
        return _value_lt(self.value, other.value)


class OrderedFunction(DerivedFunction):
    """Same mappings as the source; enumeration sorted by a tuple key."""

    op_name = "order_by"

    def __init__(
        self,
        source: FDMFunction,
        key: str | list[str] | Callable[[Any], Any],
        reverse: bool = False,
        name: str | None = None,
    ):
        super().__init__((source,), name=name or f"sort({source.name})")
        self._key_spec = key
        self._reverse = reverse
        self.kind = source.kind

    def _sort_key(self, value: Any) -> _SortKey:
        spec = self._key_spec
        try:
            if callable(spec):
                return _SortKey(0, spec(value))
            if isinstance(spec, str):
                return _SortKey(0, value(spec))
            return _SortKey(0, tuple(value(a) for a in spec))
        except (UndefinedInputError, Exception):
            return _SortKey(1, None)

    @property
    def domain(self) -> Domain:
        return self.source.domain

    @property
    def is_enumerable(self) -> bool:
        return self.source.is_enumerable

    def _apply(self, key: Any) -> Any:
        return self.source._apply(key)

    def defined_at(self, *args: Any) -> bool:
        return self.source.defined_at(*args)

    def naive_keys(self) -> Iterator[Any]:
        pairs = list(self.source.items())
        pairs.sort(key=lambda kv: self._sort_key(kv[1]),
                   reverse=self._reverse)
        return iter([k for k, _v in pairs])

    def __len__(self) -> int:
        return len(self.source)

    def op_params(self) -> dict[str, Any]:
        label = (
            self._key_spec
            if isinstance(self._key_spec, (str, list))
            else getattr(self._key_spec, "__name__", "<fn>")
        )
        return {"key": label, "reverse": self._reverse}

    def rebuild(self, children: tuple[FDMFunction, ...]) -> "OrderedFunction":
        (source,) = children
        return OrderedFunction(
            source, self._key_spec, reverse=self._reverse, name=self._name
        )

    tuples = RelationFunction.tuples
    first = RelationFunction.first
    count = RelationFunction.count
    attributes = RelationFunction.attributes
    to_rows = RelationFunction.to_rows


class LimitedFunction(DerivedFunction):
    """The first *n* mappings in the source's enumeration order."""

    op_name = "limit"

    def __init__(self, source: FDMFunction, n: int, name: str | None = None):
        if n < 0:
            raise OperatorError("limit() needs a non-negative count")
        super().__init__((source,), name=name or f"limit({source.name})")
        self._n = n
        self.kind = source.kind

    def _limited_keys(self) -> list[Any]:
        out = []
        for key in self.source.keys():
            if len(out) >= self._n:
                break
            out.append(key)
        return out

    def naive_keys(self) -> Iterator[Any]:
        return iter(self._limited_keys())

    def naive_items(self) -> Iterator[tuple[Any, Any]]:
        # the limited keys once per enumeration, not once per key
        return ((key, self.source._apply(key)) for key in self._limited_keys())

    @property
    def domain(self) -> Domain:
        from repro.fdm.domains import DiscreteDomain

        return DiscreteDomain(self._limited_keys())

    @property
    def is_enumerable(self) -> bool:
        return True

    def _apply(self, key: Any) -> Any:
        if key not in self._limited_keys():
            raise UndefinedInputError(self._name, key)
        return self.source._apply(key)

    def defined_at(self, *args: Any) -> bool:
        if len(args) != 1:
            return False
        return args[0] in self._limited_keys()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def op_params(self) -> dict[str, Any]:
        return {"n": self._n}

    def rebuild(self, children: tuple[FDMFunction, ...]) -> "LimitedFunction":
        (source,) = children
        return LimitedFunction(source, self._n, name=self._name)

    tuples = RelationFunction.tuples
    first = RelationFunction.first
    count = RelationFunction.count
    attributes = RelationFunction.attributes
    to_rows = RelationFunction.to_rows


def order_by(
    source: FDMFunction,
    key: str | list[str] | Callable[[Any], Any],
    reverse: bool = False,
) -> OrderedFunction:
    """Order enumeration by attribute(s) or a callable sort key."""
    return OrderedFunction(source, key, reverse=reverse)


def limit(source: FDMFunction, n: int) -> LimitedFunction:
    """Keep the first *n* mappings of the enumeration."""
    return LimitedFunction(source, n)


def top(
    source: FDMFunction,
    n: int,
    by: str | list[str] | Callable[[Any], Any],
    reverse: bool = True,
) -> LimitedFunction:
    """The *n* largest (by default) mappings under the given sort key."""
    return LimitedFunction(OrderedFunction(source, by, reverse=reverse), n)
