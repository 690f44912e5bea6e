"""Physical operator functions the optimizer rewrites *into*.

The naive interpretation of an FQL expression evaluates derived functions
as written. These physical functions compute the same extension faster:

* :class:`IndexLookupFunction` — an equality/range filter over a stored
  relation served from a secondary index (plus residual predicate),
  re-checked under the caller's snapshot.
* :class:`KeyLookupFunction` — a filter that pins the function input
  itself (``__key__ == c``): the relation function *is* the index.
* :class:`FusedGroupAggregateFunction` — grouping + aggregation in one
  pass, without materializing per-group member relations (the rewrite
  that turns Fig. 4b's unrolled pipeline into Fig. 4c's fused form).

All of them remain honest FDM functions — same domains, same extensional
behaviour — so rewrites are safe to verify by extensional equality, which
the property tests do.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro._util import normalize_key
from repro.errors import OperatorError, UndefinedInputError
from repro.fdm.domains import Domain, PredicateDomain
from repro.fdm.entry import Entry
from repro.fdm.functions import DerivedFunction, FDMFunction
from repro.fdm.relations import RelationFunction
from repro.fdm.tuples import TupleFunction
from repro.fql.aggregates import Aggregate
from repro.fql.group import GroupBy
from repro.predicates.ast import Predicate, TruePredicate

__all__ = [
    "IndexLookupFunction",
    "KeyLookupFunction",
    "FusedGroupAggregateFunction",
    "OFFLOAD_MIN_ROWS",
    "offload_worthwhile",
]


class IndexLookupFunction(DerivedFunction):
    """Equality or range access on an indexed attribute of a stored
    relation, with an optional residual predicate."""

    op_name = "index_lookup"
    kind = "relation"

    def __init__(
        self,
        stored: FDMFunction,
        attr: str,
        *,
        eq: Any = None,
        lo: Any = None,
        hi: Any = None,
        lo_open: bool = False,
        hi_open: bool = False,
        residual: Predicate | None = None,
        name: str | None = None,
    ):
        super().__init__((stored,), name=name or f"idx[{attr}]({stored.name})")
        self._attr = attr
        self._eq = eq
        self._lo, self._hi = lo, hi
        self._lo_open, self._hi_open = lo_open, hi_open
        self._residual = residual or TruePredicate()

    def _candidates(self) -> Iterator[Any]:
        stored = self.source
        if self._eq is not None:
            return stored.lookup_eq(self._attr, self._eq)
        return stored.lookup_range(
            self._attr,
            lo=self._lo,
            hi=self._hi,
            lo_open=self._lo_open,
            hi_open=self._hi_open,
        )

    def _matches(self, key: Any, value: Any) -> bool:
        try:
            attr_value = value(self._attr)
        except UndefinedInputError:
            return False
        if self._eq is not None:
            if attr_value != self._eq:
                return False
        else:
            try:
                if self._lo is not None and (
                    attr_value < self._lo
                    or (self._lo_open and attr_value == self._lo)
                ):
                    return False
                if self._hi is not None and (
                    attr_value > self._hi
                    or (self._hi_open and attr_value == self._hi)
                ):
                    return False
            except TypeError:
                return False
        return self._residual(Entry(key, value))

    @property
    def domain(self) -> Domain:
        return PredicateDomain(self.defined_at, self.op_name)

    @property
    def is_enumerable(self) -> bool:
        return True

    def _apply(self, key: Any) -> Any:
        value = self.source._apply(key)
        if not self._matches(key, value):
            raise UndefinedInputError(self._name, key)
        return value

    def defined_at(self, *args: Any) -> bool:
        if not args:
            return False
        key = normalize_key(args[0] if len(args) == 1 else tuple(args))
        if not self.source.defined_at(key):
            return False
        return self._matches(key, self.source._apply(key))

    def naive_keys(self) -> Iterator[Any]:
        for key in self._candidates():
            value = self.source._apply(key)
            if self._residual(Entry(key, value)):
                yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def op_params(self) -> dict[str, Any]:
        params: dict[str, Any] = {"attr": self._attr}
        if self._eq is not None:
            params["eq"] = self._eq
        else:
            params["range"] = (self._lo, self._hi)
        if not isinstance(self._residual, TruePredicate):
            params["residual"] = self._residual.to_source()
        return params

    def rebuild(self, children: tuple[FDMFunction, ...]) -> "IndexLookupFunction":
        (stored,) = children
        return IndexLookupFunction(
            stored,
            self._attr,
            eq=self._eq,
            lo=self._lo,
            hi=self._hi,
            lo_open=self._lo_open,
            hi_open=self._hi_open,
            residual=self._residual,
            name=self._name,
        )

    tuples = RelationFunction.tuples
    first = RelationFunction.first
    count = RelationFunction.count
    attributes = RelationFunction.attributes
    to_rows = RelationFunction.to_rows


class KeyLookupFunction(DerivedFunction):
    """``filter(R, key__eq=c)`` collapsed to a point application — the FDM
    fast path: a relation function is its own primary index."""

    op_name = "key_lookup"
    kind = "relation"

    def __init__(
        self,
        source: FDMFunction,
        key_value: Any,
        residual: Predicate | None = None,
        name: str | None = None,
    ):
        super().__init__(
            (source,), name=name or f"key[{key_value!r}]({source.name})"
        )
        self._key_value = normalize_key(key_value)
        self._residual = residual or TruePredicate()

    def _hit(self) -> bool:
        if not self.source.defined_at(self._key_value):
            return False
        value = self.source._apply(self._key_value)
        return self._residual(Entry(self._key_value, value))

    @property
    def domain(self) -> Domain:
        return PredicateDomain(self.defined_at, self.op_name)

    @property
    def is_enumerable(self) -> bool:
        return True

    def _apply(self, key: Any) -> Any:
        if key != self._key_value or not self._hit():
            raise UndefinedInputError(self._name, key)
        return self.source._apply(key)

    def defined_at(self, *args: Any) -> bool:
        if len(args) != 1:
            return False
        return normalize_key(args[0]) == self._key_value and self._hit()

    def naive_keys(self) -> Iterator[Any]:
        if self._hit():
            yield self._key_value

    def __len__(self) -> int:
        return 1 if self._hit() else 0

    def op_params(self) -> dict[str, Any]:
        return {"key": self._key_value}

    def rebuild(self, children: tuple[FDMFunction, ...]) -> "KeyLookupFunction":
        (source,) = children
        return KeyLookupFunction(
            source, self._key_value, residual=self._residual, name=self._name
        )

    tuples = RelationFunction.tuples
    first = RelationFunction.first
    count = RelationFunction.count
    attributes = RelationFunction.attributes
    to_rows = RelationFunction.to_rows


class FusedGroupAggregateFunction(DerivedFunction):
    """One-pass grouping + aggregation (Fig. 4c as a physical operator).

    Extensionally equal to ``aggregate(group(by, input), **aggs)`` but
    never materializes group member relations: one scan folds every
    aggregate simultaneously.
    """

    op_name = "fused_group_aggregate"
    kind = "relation"

    def __init__(
        self,
        source: FDMFunction,
        by: GroupBy,
        aggs: Mapping[str, Aggregate],
        name: str | None = None,
    ):
        if not aggs:
            raise OperatorError("fused aggregate needs at least one aggregate")
        super().__init__((source,), name=name or f"γ*({source.name})")
        self._by = by
        self._aggs = dict(aggs)

    def _fold(self) -> dict[Any, dict[str, Any]]:
        accs: dict[Any, dict[str, Any]] = {}
        for _key, t in self.source.items():
            try:
                group_key = self._by.key_of(t)
            except UndefinedInputError:
                continue
            acc = accs.get(group_key)
            if acc is None:
                acc = {
                    agg_name: agg.seed()
                    for agg_name, agg in self._aggs.items()
                }
                accs[group_key] = acc
            for agg_name, agg in self._aggs.items():
                acc[agg_name] = agg.step(acc[agg_name], t)
        return accs

    def _tuple_for(self, group_key: Any, acc: dict[str, Any]) -> TupleFunction:
        data = self._by.key_attrs(group_key)
        for agg_name, agg in self._aggs.items():
            data[agg_name] = agg.result(acc[agg_name])
        return TupleFunction(data, name=f"{self._name}[{group_key!r}]")

    @property
    def domain(self) -> Domain:
        return PredicateDomain(self.defined_at, self.op_name)

    @property
    def is_enumerable(self) -> bool:
        return self.source.is_enumerable

    def _apply(self, key: Any) -> Any:
        accs = self._fold()
        if key not in accs:
            raise UndefinedInputError(self._name, key)
        return self._tuple_for(key, accs[key])

    def defined_at(self, *args: Any) -> bool:
        if len(args) != 1:
            return False
        return args[0] in self._fold()

    def naive_keys(self) -> Iterator[Any]:
        return iter(self._fold().keys())

    def naive_items(self) -> Iterator[tuple[Any, Any]]:
        for group_key, acc in self._fold().items():
            yield group_key, self._tuple_for(group_key, acc)

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def op_params(self) -> dict[str, Any]:
        return {
            "by": self._by.label(),
            "aggs": {n: repr(a) for n, a in self._aggs.items()},
        }

    def rebuild(
        self, children: tuple[FDMFunction, ...]
    ) -> "FusedGroupAggregateFunction":
        (source,) = children
        return FusedGroupAggregateFunction(
            source, self._by, self._aggs, name=self._name
        )

    tuples = RelationFunction.tuples
    first = RelationFunction.first
    count = RelationFunction.count
    attributes = RelationFunction.attributes
    to_rows = RelationFunction.to_rows


#: Estimated scan rows below which ``auto`` offload keeps a query on the
#: batched executor.
OFFLOAD_MIN_ROWS = 100_000


def offload_worthwhile(relation: Any) -> tuple[bool, str]:
    """The cost model's auto-mode verdict for one SQL-offloadable scan.

    Offload wins when per-row interpretation overhead dominates — wide
    analytic scans over enough rows; it loses on tiny tables, where the
    mirror sync and SQL round trip cost more than the Python fold saves
    (point lookups never reach this check: their ``key_lookup`` /
    ``index_lookup`` cores decline structurally in the compiler).

    The default crossover is deliberately conservative: offloaded
    queries run inside the SQL engine, outside the batched executor's
    row-level instrumentation (resource meters, zone-map telemetry,
    per-row budget checks), so auto mode only claims scans big enough
    that the trade is clearly worth it: :data:`OFFLOAD_MIN_ROWS`.
    ``REPRO_OFFLOAD=force`` bypasses the verdict entirely.
    """
    rows = relation.table().stats.row_count
    if rows < OFFLOAD_MIN_ROWS:
        return False, "small_table"
    return True, "ok"
