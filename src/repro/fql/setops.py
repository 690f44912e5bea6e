"""Set operations on *entire databases* — or any FDM level (Fig. 9).

    DB_copy = deep_copy(DB)
    ... change DB_copy ...
    DB_diff      = difference(DB, DB_copy)   # just the changes
    DB_intersect = intersect(DB, DB_copy)
    DB_minus     = minus(DB, DB_copy)
    DB_union     = union(DB, DB_copy)

Because everything is a function, one implementation serves every level:
keys are compared, and where both operands map a key to *nested enumerable
functions*, the operation recurses (so the union of two databases unions
their common relations tuple-wise; the minus of two relations drops equal
tuples). Scalar conflicts follow an explicit policy instead of silently
picking a side.

``difference`` follows the paper's reading — "the differential database
just showing changes" — and returns a function with three sub-results:
``added``, ``removed``, and ``changed`` (old/new pairs, recursing through
nested levels).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro._util import normalize_key
from repro.errors import MergeConflictError, OperatorError, UndefinedInputError
from repro.fdm.domains import Domain, PredicateDomain
from repro.fdm.functions import (
    DerivedFunction,
    FDMFunction,
    values_equal,
)
from repro.fdm.relations import MaterialRelationFunction, RelationFunction
from repro.fdm.tuples import TupleFunction

__all__ = [
    "union",
    "intersect",
    "minus",
    "difference",
    "UnionFunction",
    "IntersectFunction",
    "MinusFunction",
]


def _both_recursable(a: Any, b: Any) -> bool:
    return (
        isinstance(a, FDMFunction)
        and isinstance(b, FDMFunction)
        and a.is_enumerable
        and b.is_enumerable
    )


class _BinarySetFunction(DerivedFunction):
    """Shared plumbing for lazy binary set operations."""

    def __init__(self, left: FDMFunction, right: FDMFunction,
                 name: str | None = None, **params: Any):
        super().__init__((left, right), name=name)
        self._params = params
        self.kind = left.kind

    @property
    def left(self) -> FDMFunction:
        return self._sources[0]

    @property
    def right(self) -> FDMFunction:
        return self._sources[1]

    @property
    def domain(self) -> Domain:
        return PredicateDomain(self.defined_at, self.op_name)

    @property
    def is_enumerable(self) -> bool:
        return self.left.is_enumerable and self.right.is_enumerable

    def defined_at(self, *args: Any) -> bool:
        if not args:
            return False
        key = normalize_key(args[0] if len(args) == 1 else tuple(args))
        try:
            self._apply(key)
            return True
        except UndefinedInputError:
            return False

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def op_params(self) -> dict[str, Any]:
        return dict(self._params)

    def rebuild(self, children: tuple[FDMFunction, ...]) -> "_BinarySetFunction":
        left, right = children
        return type(self)(left, right, name=self._name, **self._params)

    tuples = RelationFunction.tuples
    first = RelationFunction.first
    count = RelationFunction.count
    attributes = RelationFunction.attributes
    to_rows = RelationFunction.to_rows


class UnionFunction(_BinarySetFunction):
    """Keys of either operand; common keys merge (recursively) or follow
    the conflict policy: ``'error'`` (default), ``'left'``, or ``'right'``."""

    op_name = "union"

    def __init__(self, left: FDMFunction, right: FDMFunction,
                 name: str | None = None, on_conflict: str = "error"):
        if on_conflict not in ("error", "left", "right"):
            raise OperatorError(
                f"on_conflict must be error/left/right, got {on_conflict!r}"
            )
        super().__init__(
            left, right,
            name=name or f"({left.name} ∪ {right.name})",
            on_conflict=on_conflict,
        )
        self._on_conflict = on_conflict

    def _apply(self, key: Any) -> Any:
        left_defined = self.left.defined_at(key)
        right_defined = self.right.defined_at(key)
        if left_defined and not right_defined:
            return self.left._apply(key)
        if right_defined and not left_defined:
            return self.right._apply(key)
        if not left_defined and not right_defined:
            raise UndefinedInputError(self._name, key)
        lv = self.left._apply(key)
        rv = self.right._apply(key)
        if values_equal(lv, rv):
            return lv
        if _both_recursable(lv, rv):
            return UnionFunction(lv, rv, on_conflict=self._on_conflict)
        if self._on_conflict == "left":
            return lv
        if self._on_conflict == "right":
            return rv
        raise MergeConflictError(
            f"union conflict at key {key!r}: {lv!r} vs {rv!r} "
            "(pass on_conflict='left'/'right' to pick a side)"
        )

    def naive_keys(self) -> Iterator[Any]:
        seen = set()
        for key in self.left.keys():
            seen.add(key)
            yield key
        for key in self.right.keys():
            if key not in seen:
                yield key


class IntersectFunction(_BinarySetFunction):
    """Keys both operands map to equal values — or, for nested functions,
    to a non-empty recursive intersection."""

    op_name = "intersect"

    def __init__(self, left: FDMFunction, right: FDMFunction,
                 name: str | None = None):
        super().__init__(
            left, right, name=name or f"({left.name} ∩ {right.name})"
        )

    def _apply(self, key: Any) -> Any:
        if not (self.left.defined_at(key) and self.right.defined_at(key)):
            raise UndefinedInputError(self._name, key)
        lv = self.left._apply(key)
        rv = self.right._apply(key)
        if values_equal(lv, rv):
            return lv
        if _both_recursable(lv, rv):
            nested = IntersectFunction(lv, rv)
            if len(nested):
                return nested
        raise UndefinedInputError(self._name, key)

    def naive_keys(self) -> Iterator[Any]:
        for key in self.left.keys():
            if self.defined_at(key):
                yield key


class MinusFunction(_BinarySetFunction):
    """Keys of *left* whose mapping is not equally present in *right*.

    Nested functions subtract recursively; an empty recursive result means
    the key disappears entirely (so DB ∖ DB has no relations left).
    """

    op_name = "minus"

    def __init__(self, left: FDMFunction, right: FDMFunction,
                 name: str | None = None):
        super().__init__(
            left, right, name=name or f"({left.name} ∖ {right.name})"
        )

    def _apply(self, key: Any) -> Any:
        lv = self.left._apply(key)
        if not self.right.defined_at(key):
            return lv
        rv = self.right._apply(key)
        if values_equal(lv, rv):
            raise UndefinedInputError(self._name, key)
        if _both_recursable(lv, rv):
            nested = MinusFunction(lv, rv)
            if len(nested):
                return nested
            raise UndefinedInputError(self._name, key)
        return lv

    def naive_keys(self) -> Iterator[Any]:
        for key in self.left.keys():
            if self.defined_at(key):
                yield key


def union(left: FDMFunction, right: FDMFunction,
          on_conflict: str = "error") -> UnionFunction:
    """Union at any level; see :class:`UnionFunction`."""
    return UnionFunction(left, right, on_conflict=on_conflict)


def intersect(left: FDMFunction, right: FDMFunction) -> IntersectFunction:
    """Intersection at any level; see :class:`IntersectFunction`."""
    return IntersectFunction(left, right)


def minus(left: FDMFunction, right: FDMFunction) -> MinusFunction:
    """Difference-as-subtraction at any level; see :class:`MinusFunction`."""
    return MinusFunction(left, right)


def difference(old: FDMFunction, new: FDMFunction) -> MaterialRelationFunction:
    """The *differential database*: just the changes between two functions.

    Returns a function mapping ``'added'``, ``'removed'``, ``'changed'`` to
    functions mirroring the inputs' structure:

    * ``added``   — keys only *new* maps (values from new),
    * ``removed`` — keys only *old* maps (values from old),
    * ``changed`` — keys both map to differing values; nested enumerable
      functions recurse into a sub-difference, scalars become
      ``{'old': ..., 'new': ...}`` pairs.
    """
    added: list = []
    removed: list = []
    changed: list = []
    old_keys = list(old.keys())
    old_key_set = set(old_keys)
    for key in old_keys:
        ov = old._apply(key)
        if not new.defined_at(key):
            removed.append((key, _snapshot(ov)))
            continue
        nv = new._apply(key)
        if values_equal(ov, nv):
            continue
        if _both_recursable(ov, nv):
            changed.append((key, difference(ov, nv)))
        else:
            changed.append(
                (key, TupleFunction.of({"old": ov, "new": nv}, f"Δ[{key!r}]"))
            )
    for key in new.keys():
        if key not in old_key_set:
            added.append((key, _snapshot(new._apply(key))))

    diff = MaterialRelationFunction(name=f"difference({old.name})")
    for name, writes in (
        ("added", added), ("removed", removed), ("changed", changed)
    ):
        part = MaterialRelationFunction(name=name)
        part._write_rows(writes)
        diff[name] = part
    return diff


def _snapshot(value: Any) -> Any:
    return value.snapshot() if hasattr(value, "snapshot") else value
