"""Grouping and aggregation operators (Figs. 4b, 4c, 8).

The paper's key departure from SQL: ``group`` returns a **database
function** of relation functions — one relation per group — not an opaque
intermediate only an aggregate may consume. Groups are first-class; you can
filter them, join them, or hand them to ``aggregate`` later:

    groups: DBF = group(lambda prof: prof.age, customers)
    groups = group(by=["age"], input=customers)
    aggregates: RelationF = aggregate(groups, count=Count())
    large = filter(lambda g: g.count > 9, aggregates)

Fig. 8's grouping sets keep semantically different groupings in *separate*
relation functions — no NULL filler:

    gset: DBF = group_and_aggregate([
        dict(by=["age"], count=Count(), name="age_cc"),
        dict(by=["age", "name"], count=Count(), name="age_name_cc"),
        dict(by=[], min=Min("age"), name="global_min"),
    ], input=customers)
    gset.age_cc, gset.age_name_cc, gset.global_min
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import OperatorError, UndefinedInputError
from repro.fdm.databases import DatabaseFunction, database
from repro.fdm.domains import Domain, PredicateDomain
from repro.fdm.functions import DerivedFunction, FDMFunction
from repro.fdm.relations import MaterialRelationFunction, RelationFunction
from repro.fdm.tuples import TupleFunction
from repro.fql.aggregates import Aggregate

__all__ = [
    "GroupBy",
    "GroupedDatabaseFunction",
    "AggregatedRelationFunction",
    "group",
    "aggregate",
    "group_and_aggregate",
    "grouping_sets",
    "rollup",
    "cube",
]


class GroupBy:
    """Normalized grouping specification.

    Accepts an attribute name, a list of attribute names (transparent to
    the optimizer), or a callable over the tuple function (opaque).
    """

    def __init__(self, spec: Any):
        self.attrs: tuple[str, ...] | None
        self.fn: Callable[[Any], Any] | None
        if isinstance(spec, GroupBy):
            self.attrs, self.fn = spec.attrs, spec.fn
        elif isinstance(spec, str):
            self.attrs, self.fn = (spec,), None
        elif isinstance(spec, (list, tuple)):
            if not all(isinstance(a, str) for a in spec):
                raise OperatorError(
                    f"group-by attribute lists must be strings, got {spec!r}"
                )
            self.attrs, self.fn = tuple(spec), None
        elif callable(spec):
            self.attrs, self.fn = None, spec
        else:
            raise OperatorError(f"cannot interpret {spec!r} as a group-by")

    @property
    def is_transparent(self) -> bool:
        return self.attrs is not None

    def key_of(self, t: Any) -> Any:
        """The group key of one tuple function."""
        if self.fn is not None:
            return self.fn(t)
        assert self.attrs is not None
        if len(self.attrs) == 0:
            return ()
        values = tuple(t(a) for a in self.attrs)
        return values[0] if len(values) == 1 else values

    def key_attrs(self, group_key: Any) -> dict[str, Any]:
        """Group key re-expressed as tuple attributes (when names known)."""
        if self.attrs is None:
            return {"key": group_key}
        if len(self.attrs) == 0:
            return {}
        if len(self.attrs) == 1:
            return {self.attrs[0]: group_key}
        return dict(zip(self.attrs, group_key))

    def label(self) -> str:
        if self.attrs is None:
            return getattr(self.fn, "__name__", "<fn>")
        return ",".join(self.attrs) if self.attrs else "<global>"

    def __repr__(self) -> str:
        return f"GroupBy({self.label()})"


class GroupedDatabaseFunction(DerivedFunction):
    """``group``'s result: group keys → relation functions of members.

    It is database-kind (the paper types it ``DBF``), keyed by group-key
    values rather than names — exactly the level blurring of §2.6.
    """

    op_name = "group"
    kind = "database"

    def __init__(self, source: FDMFunction, by: GroupBy,
                 name: str | None = None):
        super().__init__((source,), name=name or f"γ({source.name})")
        self._by = by

    @property
    def by(self) -> GroupBy:
        return self._by

    def _scan(self) -> dict[Any, list[tuple[Any, Any]]]:
        groups: dict[Any, list[tuple[Any, Any]]] = {}
        for key, t in self.source.items():
            try:
                group_key = self._by.key_of(t)
            except UndefinedInputError:
                continue  # tuples not defining the key form no group
            groups.setdefault(group_key, []).append((key, t))
        return groups

    def _group_relation(
        self, group_key: Any, members: list[tuple[Any, Any]]
    ) -> MaterialRelationFunction:
        return MaterialRelationFunction(
            dict(members),
            name=f"{self.source.name}[{self._by.label()}={group_key!r}]",
        )

    @property
    def domain(self) -> Domain:
        return PredicateDomain(
            lambda gk: gk in self._scan(), f"groups by {self._by.label()}"
        )

    @property
    def is_enumerable(self) -> bool:
        return self.source.is_enumerable

    def naive_keys(self) -> Iterator[Any]:
        return iter(self._scan().keys())

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def _apply(self, key: Any) -> Any:
        groups = self._scan()
        if key not in groups:
            raise UndefinedInputError(self._name, key)
        return self._group_relation(key, groups[key])

    def defined_at(self, *args: Any) -> bool:
        if len(args) != 1:
            return False
        return args[0] in self._scan()

    def op_params(self) -> dict[str, Any]:
        return {"by": self._by.label(),
                "transparent": self._by.is_transparent}

    def rebuild(
        self, children: tuple[FDMFunction, ...]
    ) -> "GroupedDatabaseFunction":
        (source,) = children
        return GroupedDatabaseFunction(source, self._by, name=self._name)


class AggregatedRelationFunction(DerivedFunction):
    """``aggregate``'s result: group keys → one tuple of aggregate values.

    Output tuples carry the group-by attributes (when their names are
    known) plus one attribute per declared aggregate — so Fig. 4c's
    ``filter(lambda g: g.age > 9, aggregated_ages)`` works.
    """

    op_name = "aggregate"
    kind = "relation"

    def __init__(
        self,
        groups: FDMFunction,
        aggs: Mapping[str, Aggregate],
        name: str | None = None,
    ):
        if not aggs:
            raise OperatorError("aggregate() needs at least one aggregate")
        for agg_name, agg in aggs.items():
            if not isinstance(agg, Aggregate):
                raise OperatorError(
                    f"{agg_name}={agg!r} is not an Aggregate"
                )
        super().__init__((groups,), name=name or f"agg({groups.name})")
        self._aggs = dict(aggs)

    @property
    def aggregates(self) -> dict[str, Aggregate]:
        return dict(self._aggs)

    def _group_by(self) -> GroupBy | None:
        source = self.source
        if isinstance(source, GroupedDatabaseFunction):
            return source.by
        return None

    @property
    def domain(self) -> Domain:
        return self.source.domain

    @property
    def is_enumerable(self) -> bool:
        return self.source.is_enumerable

    def naive_keys(self) -> Iterator[Any]:
        return self.source.keys()

    def __len__(self) -> int:
        return len(self.source)

    def _apply(self, key: Any) -> Any:
        group_rel = self.source._apply(key)
        if not isinstance(group_rel, FDMFunction):
            raise OperatorError(
                f"aggregate() expects groups of tuples, found {group_rel!r}"
            )
        members = list(group_rel.values())
        by = self._group_by()
        data: dict[str, Any] = by.key_attrs(key) if by is not None else {}
        for agg_name, agg in self._aggs.items():
            data[agg_name] = agg.compute(members)
        return TupleFunction(data, name=f"{self._name}[{key!r}]")

    def defined_at(self, *args: Any) -> bool:
        return self.source.defined_at(*args)

    def op_params(self) -> dict[str, Any]:
        return {name: repr(agg) for name, agg in self._aggs.items()}

    def rebuild(
        self, children: tuple[FDMFunction, ...]
    ) -> "AggregatedRelationFunction":
        (groups,) = children
        return AggregatedRelationFunction(groups, self._aggs, name=self._name)

    tuples = RelationFunction.tuples
    first = RelationFunction.first
    count = RelationFunction.count
    attributes = RelationFunction.attributes
    to_rows = RelationFunction.to_rows


def group(
    *args: Any,
    by: Any = None,
    input: FDMFunction | None = None,  # noqa: A002 - figure spelling
) -> GroupedDatabaseFunction:
    """Group a relation function into a database function of groups.

    Costumes: ``group(lambda prof: prof.age, customers)`` or
    ``group(by=["age"], input=customers)`` — or mixed positionally, the
    input being the FDM function among the arguments.
    """
    source = input
    spec = by
    for arg in args:
        if isinstance(arg, FDMFunction):
            if source is not None:
                raise OperatorError("group() received two input functions")
            source = arg
        else:
            if spec is not None:
                raise OperatorError("group() received two group-by specs")
            spec = arg
    if source is None:
        raise OperatorError("group() needs an input function")
    if spec is None:
        raise OperatorError("group() needs a group-by (callable or attrs)")
    return GroupedDatabaseFunction(source, GroupBy(spec))


def aggregate(
    *args: Any,
    input: FDMFunction | None = None,  # noqa: A002
    **aggs: Aggregate,
) -> AggregatedRelationFunction:
    """Compute one tuple of aggregates per input group (Fig. 4b).

    ``aggregate(groups, count=Count())`` — the keyword name becomes the
    output attribute ("declare new attributes for the output").
    """
    source = input
    for arg in args:
        if isinstance(arg, FDMFunction):
            if source is not None:
                raise OperatorError(
                    "aggregate() received two input functions"
                )
            source = arg
        else:
            raise OperatorError(
                f"aggregate() cannot interpret argument {arg!r}"
            )
    if source is None:
        raise OperatorError("aggregate() needs an input (grouped) function")
    return AggregatedRelationFunction(source, aggs)


def group_and_aggregate(
    specs: Iterable[Mapping[str, Any]] | None = None,
    *,
    by: Any = None,
    input: FDMFunction | None = None,  # noqa: A002
    **aggs: Aggregate,
) -> FDMFunction:
    """Grouping plus aggregation as one step (Fig. 4c), or — given a list
    of grouping specs — grouping *sets* as separate relations (Fig. 8).

    Single grouping::

        group_and_aggregate(by=["age"], count=Count(), input=customers)

    Grouping sets (each spec: ``by``, optional ``name``, plus aggregates;
    aggregates passed as keywords apply to every spec)::

        group_and_aggregate([
            dict(by=["age"], count=Count(), name="age_cc"),
            dict(by=[], min=Min("age"), name="global_min"),
        ], input=customers)
    """
    if input is None:
        raise OperatorError("group_and_aggregate() needs input=")
    if specs is None:
        if by is None:
            raise OperatorError("group_and_aggregate() needs by= or specs")
        return AggregatedRelationFunction(
            GroupedDatabaseFunction(input, GroupBy(by)), aggs
        )
    if by is not None:
        raise OperatorError("pass either specs or by=, not both")
    gset = database(name="gset")
    for raw in specs:
        spec = dict(raw)
        spec_by = GroupBy(spec.pop("by", []))
        name = spec.pop("name", None)
        spec_aggs: dict[str, Aggregate] = dict(aggs)
        for key, value in spec.items():
            if not isinstance(value, Aggregate):
                raise OperatorError(
                    f"spec entry {key}={value!r} is not an Aggregate"
                )
            spec_aggs[key] = value
        if name is None:
            label = "_".join(spec_by.attrs or ()) or "global"
            name = f"{label}_{'_'.join(spec_aggs)}"
        gset[name] = AggregatedRelationFunction(
            GroupedDatabaseFunction(input, spec_by), spec_aggs, name=name
        )
    return gset


def grouping_sets(*by_lists: Sequence[str]) -> list[dict[str, Any]]:
    """Explicit grouping sets: one spec per attribute list."""
    return [{"by": list(attrs)} for attrs in by_lists]


def rollup(attrs: Sequence[str]) -> list[dict[str, Any]]:
    """SQL ROLLUP as spec list: every prefix of *attrs*, down to global."""
    out = []
    for n in range(len(attrs), -1, -1):
        out.append({"by": list(attrs[:n])})
    return out


def cube(attrs: Sequence[str]) -> list[dict[str, Any]]:
    """SQL CUBE as spec list: every subset of *attrs* (order-preserving)."""
    out: list[dict[str, Any]] = []
    n = len(attrs)
    for mask in range((1 << n) - 1, -1, -1):
        subset = [attrs[i] for i in range(n) if mask & (1 << i)]
        out.append({"by": subset})
    return out
