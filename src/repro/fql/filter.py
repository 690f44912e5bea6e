"""The FQL ``filter`` operator — all six costumes of Fig. 4a.

    # function syntax
    filter(lambda prof: prof("age") > 42, customers)
    # dot syntax
    filter(lambda prof: prof.age > 42, customers)
    # Django-ORM style (relation first or via input=: Python forbids
    # positional-after-keyword)
    filter(customers, age__gt=42)
    # broken-up predicate
    filter(customers, att='age', op=gt, c=42)
    # textual predicate with free parameters
    filter("age>$foo", {"foo": 42}, customers)
    # prebuilt Predicate objects
    filter(parse_predicate("age > 42"), customers)

``filter`` is level-polymorphic: filtering a relation selects tuples,
filtering a database selects relations (Fig. 5), filtering a tuple selects
attributes. Predicates are bound to :class:`repro.fdm.Entry` objects, so
``kv[0]`` (the key) and ``prof.age`` (the value) both work.
"""

from __future__ import annotations

from collections.abc import Mapping  # isinstance on typing's alias: 2.6x slower
from typing import Any, Iterator

from repro._util import normalize_key
from repro.errors import AmbiguousArgumentError, OperatorError, UndefinedInputError
from repro.fdm.databases import OverlayDatabaseFunction
from repro.fdm.domains import Domain, PredicateDomain
from repro.fdm.entry import Entry
from repro.fdm.functions import DerivedFunction, FDMFunction
from repro.fdm.relations import RelationFunction
from repro.predicates.ast import And, Predicate, as_predicate
from repro.predicates.django import kwargs_to_predicate
from repro.predicates.operators import Operator
from repro.predicates.parser import parse_predicate

__all__ = ["filter", "exclude", "FilteredFunction", "RestrictedFunction",
           "restrict_to_keys"]


class FilteredFunction(DerivedFunction):
    """A function restricted to the inputs whose entries satisfy a predicate.

    Point lookups work even over non-enumerable (continuous) sources: the
    source value is computed and checked. Enumeration requires an
    enumerable source.
    """

    op_name = "filter"

    def __init__(self, source: FDMFunction, predicate: Predicate,
                 name: str | None = None):
        super().__init__(
            (source,),
            name=name or f"σ({source.name})",
            codomain=source.codomain,
        )
        self._predicate = predicate
        self.kind = source.kind

    @property
    def predicate(self) -> Predicate:
        return self._predicate

    @property
    def domain(self) -> Domain:
        return self.source.domain.constrain(
            lambda key: self._passes(key),
            f"σ[{self._predicate.to_source()}]",
        )

    def _passes(self, key: Any) -> bool:
        try:
            value = self.source._apply(key)
        except UndefinedInputError:
            return False
        return self._predicate(Entry(key, value))

    def _apply(self, key: Any) -> Any:
        value = self.source._apply(key)  # raises if source undefined
        if not self._predicate(Entry(key, value)):
            raise UndefinedInputError(self._name, key)
        return value

    def defined_at(self, *args: Any) -> bool:
        if not args:
            return False
        key = args[0] if len(args) == 1 else tuple(args)
        return self._passes(normalize_key(key))

    @property
    def is_enumerable(self) -> bool:
        return self.source.is_enumerable

    def naive_keys(self) -> Iterator[Any]:
        for key, value in self.source.items():
            if self._predicate(Entry(key, value)):
                yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def op_params(self) -> dict[str, Any]:
        return {"predicate": self._predicate.to_source()}

    def rebuild(self, children: tuple[FDMFunction, ...]) -> "FilteredFunction":
        (source,) = children
        return FilteredFunction(source, self._predicate, name=self._name)

    # Relation conveniences are harmless at other levels.
    tuples = RelationFunction.tuples
    first = RelationFunction.first
    count = RelationFunction.count
    attributes = RelationFunction.attributes
    to_rows = RelationFunction.to_rows


class RestrictedFunction(DerivedFunction):
    """A function restricted to an explicit key set (no predicate).

    The workhorse behind subdatabase reduction (Fig. 5) and inner/outer
    partitions (Fig. 7), where the surviving keys were computed elsewhere.
    """

    op_name = "restrict"

    def __init__(self, source: FDMFunction, keys: Any, name: str | None = None):
        super().__init__(
            (source,),
            name=name or f"{source.name}↾",
            codomain=source.codomain,
        )
        self._keys = frozenset(keys)
        self.kind = source.kind

    @property
    def restricted_keys(self) -> frozenset:
        return self._keys

    @property
    def domain(self) -> Domain:
        return PredicateDomain(
            lambda k: k in self._keys and self.source.defined_at(k),
            f"keys⊆{len(self._keys)}",
        )

    @property
    def is_enumerable(self) -> bool:
        return True

    def _apply(self, key: Any) -> Any:
        if key not in self._keys:
            raise UndefinedInputError(self._name, key)
        return self.source._apply(key)

    def defined_at(self, *args: Any) -> bool:
        if not args:
            return False
        key = normalize_key(args[0] if len(args) == 1 else tuple(args))
        return key in self._keys and self.source.defined_at(key)

    def naive_keys(self) -> Iterator[Any]:
        if self.source.is_enumerable:
            for key in self.source.keys():
                if key in self._keys:
                    yield key
        else:
            for key in self._keys:
                if self.source.defined_at(key):
                    yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def op_params(self) -> dict[str, Any]:
        return {"n_keys": len(self._keys)}

    def rebuild(self, children: tuple[FDMFunction, ...]) -> "RestrictedFunction":
        (source,) = children
        return RestrictedFunction(source, self._keys, name=self._name)

    tuples = RelationFunction.tuples
    first = RelationFunction.first
    count = RelationFunction.count
    attributes = RelationFunction.attributes
    to_rows = RelationFunction.to_rows


def restrict_to_keys(source: FDMFunction, keys: Any,
                     name: str | None = None) -> RestrictedFunction:
    """Restrict *source* to the given keys."""
    return RestrictedFunction(source, keys, name=name)


def _interpret_filter_args(
    args: tuple,
    input_kw: FDMFunction | None,
    params: Mapping[str, Any] | None,
    att: str | None,
    op: Operator | None,
    c: Any,
    lookups: dict[str, Any],
) -> tuple[FDMFunction, Predicate]:
    """Untangle the costume call-site conventions into (input, predicate)."""
    source: FDMFunction | None = input_kw
    predicates: list[Predicate] = []
    pending_text: str | None = None
    pending_params: Mapping[str, Any] | None = params

    for arg in args:
        if isinstance(arg, FDMFunction):
            if source is not None:
                raise AmbiguousArgumentError(
                    "filter() received more than one input function"
                )
            source = arg
        elif isinstance(arg, Predicate):
            predicates.append(arg)
        elif isinstance(arg, str):
            if pending_text is not None:
                raise AmbiguousArgumentError(
                    "filter() received more than one textual predicate"
                )
            pending_text = arg
        elif isinstance(arg, Mapping):
            if pending_params is not None and pending_params != arg:
                raise AmbiguousArgumentError(
                    "filter() received conflicting parameter mappings"
                )
            pending_params = arg
        elif callable(arg):
            predicates.append(as_predicate(arg))
        else:
            raise OperatorError(
                f"filter() cannot interpret argument {arg!r}"
            )

    if pending_text is not None:
        predicates.append(parse_predicate(pending_text))
    if pending_params is not None:
        predicates = [p.bind(pending_params) for p in predicates]

    if att is not None or op is not None or c is not None:
        if att is None or op is None:
            raise OperatorError(
                "the broken-up costume needs att=, op= and c= together"
            )
        if not isinstance(op, Operator):
            raise OperatorError(
                f"op= expects an operator object from "
                f"repro.predicates.operators, got {op!r}"
            )
        predicates.append(op.build(att, c))

    if lookups:
        predicates.append(kwargs_to_predicate(lookups))

    if source is None:
        raise OperatorError(
            "filter() needs an input function (positionally or input=)"
        )
    if not predicates:
        raise OperatorError("filter() needs a predicate")
    predicate = predicates[0] if len(predicates) == 1 else And(*predicates)
    return source, predicate


def filter(  # noqa: A001 - deliberately shadows builtins.filter in FQL space
    *args: Any,
    input: FDMFunction | None = None,  # noqa: A002 - figure spelling
    params: Mapping[str, Any] | None = None,
    att: str | None = None,
    op: Operator | None = None,
    c: Any = None,
    **lookups: Any,
) -> FDMFunction:
    """Filter any FDM function; see module docstring for the six costumes.

    Returns a derived function of the same kind as the input. Database-kind
    results are wrapped in a writable overlay so the Fig. 5 idiom —
    assigning extra relation functions into a filtered subdatabase — works.
    """
    source, predicate = _interpret_filter_args(
        args, input, params, att, op, c, lookups
    )
    filtered = FilteredFunction(source, predicate)
    if source.kind == "database":
        return OverlayDatabaseFunction(filtered, name=filtered.name)
    return filtered


def exclude(*args: Any, **kwargs: Any) -> FDMFunction:
    """Django-style complement of :func:`filter` (extension operator)."""
    source, predicate = _interpret_filter_args(
        args,
        kwargs.pop("input", None),
        kwargs.pop("params", None),
        kwargs.pop("att", None),
        kwargs.pop("op", None),
        kwargs.pop("c", None),
        kwargs,
    )
    from repro.predicates.ast import Not

    filtered = FilteredFunction(source, Not(predicate))
    if source.kind == "database":
        return OverlayDatabaseFunction(filtered, name=filtered.name)
    return filtered
