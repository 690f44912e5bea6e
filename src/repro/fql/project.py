"""Projection and extension operators.

``project`` narrows every tuple to chosen attributes; ``extend`` adds
computed attributes (contribution 3: computed data is indistinguishable
from stored data — downstream operators cannot tell); ``rename`` relabels
attributes; ``map_tuples`` is the fully general tuple transformer.

All are out-of-place views: the input function is never modified.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping

from repro.errors import OperatorError
from repro.fdm.functions import DerivedFunction, FDMFunction
from repro.fdm.relations import RelationFunction
from repro.fdm.tuples import ComputedTupleFunction, TupleFunction
from repro.predicates.ast import Expr
from repro.predicates.parser import parse_expression

__all__ = ["project", "extend", "rename", "map_tuples", "MappedFunction"]


class MappedFunction(DerivedFunction):
    """A function whose codomain values pass through a per-entry transform."""

    op_name = "map"

    def __init__(
        self,
        source: FDMFunction,
        transform: Callable[[Any, Any], Any],
        name: str | None = None,
        op_name: str | None = None,
        params: Mapping[str, Any] | None = None,
    ):
        super().__init__((source,), name=name or f"map({source.name})")
        self._transform = transform
        self._params = dict(params or {})
        if op_name:
            self.op_name = op_name
        self.kind = source.kind

    @property
    def domain(self):  # the key set is untouched
        return self.source.domain

    @property
    def is_enumerable(self) -> bool:
        return self.source.is_enumerable

    def _apply(self, key: Any) -> Any:
        return self._transform(key, self.source._apply(key))

    def defined_at(self, *args: Any) -> bool:
        return self.source.defined_at(*args)

    def naive_keys(self) -> Iterator[Any]:
        return self.source.keys()

    def __len__(self) -> int:
        return len(self.source)

    def op_params(self) -> dict[str, Any]:
        return dict(self._params)

    def rebuild(self, children: tuple[FDMFunction, ...]) -> "MappedFunction":
        (source,) = children
        return MappedFunction(
            source,
            self._transform,
            name=self._name,
            op_name=self.op_name,
            params=self._params,
        )

    tuples = RelationFunction.tuples
    first = RelationFunction.first
    count = RelationFunction.count
    attributes = RelationFunction.attributes
    to_rows = RelationFunction.to_rows


def project(source: FDMFunction, attrs: Any) -> MappedFunction:
    """Restrict every tuple to *attrs* (string, or iterable of strings).

    Unlike relational π there is no dedup question: mappings keep their
    keys, so two customers projected to ``age`` stay two mappings. (SQL's
    accidental dedup-or-not is a presentation problem FDM does not have.)
    """
    if isinstance(attrs, str):
        attrs = [attrs]
    attr_list = list(attrs)
    if not attr_list:
        raise OperatorError("project() needs at least one attribute")

    def transform(key: Any, value: Any) -> Any:
        if isinstance(value, FDMFunction):
            # the names are the value's own: no check needed
            return TupleFunction.of(
                {a: value(a) for a in attr_list}, value.fn_name
            )
        raise OperatorError(
            f"project() expects tuple-valued mappings, found {value!r}"
        )

    return MappedFunction(
        source,
        transform,
        name=f"π({source.name})",
        op_name="project",
        params={"attrs": attr_list},
    )


def extend(source: FDMFunction, **computed: Any) -> MappedFunction:
    """Add computed attributes to every tuple.

    Each keyword maps a new attribute name to either a callable receiving
    the tuple function, or a textual expression over existing attributes
    (transparent to the optimizer)::

        extend(customers, bar=lambda t: 42 * t('foo'))
        extend(customers, bar="42 * foo")

    The result's tuples are :class:`ComputedTupleFunction`s: stored and
    computed attributes are indistinguishable (paper §2.3).
    """
    if not computed:
        raise OperatorError("extend() needs at least one computed attribute")
    compiled: dict[str, Any] = {}
    for attr, spec in computed.items():
        if isinstance(spec, str):
            try:
                compiled[attr] = parse_expression(spec)
            except Exception:
                # boolean-valued computed attribute ("age >= 65")
                from repro.predicates.parser import parse_predicate

                compiled[attr] = parse_predicate(spec)
        elif callable(spec):
            compiled[attr] = spec
        else:
            # constant attribute
            compiled[attr] = (lambda value: (lambda _t: value))(spec)

    def transform(key: Any, value: Any) -> Any:
        if not isinstance(value, FDMFunction):
            raise OperatorError(
                f"extend() expects tuple-valued mappings, found {value!r}"
            )
        base_attrs = list(value.keys()) if value.is_enumerable else None

        def lookup(attr: str) -> Any:
            spec = compiled.get(attr)
            if spec is None:
                return value(attr)
            if isinstance(spec, Expr):
                from repro.errors import UndefinedInputError
                from repro.predicates.ast import EvalContext, _Undefined

                try:
                    return spec.eval(EvalContext(value, key=key))
                except _Undefined:
                    # the expression referenced an attribute this tuple
                    # does not define: the computed attribute is undefined
                    raise UndefinedInputError(value.fn_name, attr) from None
            from repro.predicates.ast import Predicate

            if isinstance(spec, Predicate):
                return spec(value, key=key)
            return spec(value)

        attrs = None
        if base_attrs is not None:
            attrs = base_attrs + [
                a for a in compiled if a not in base_attrs
            ]
        return ComputedTupleFunction(lookup, attrs=attrs,
                                     name=value.fn_name)

    from repro.predicates.ast import Predicate

    transparent = {
        attr: spec.to_source()
        for attr, spec in compiled.items()
        if isinstance(spec, (Expr, Predicate)) and getattr(
            spec, "is_transparent", True
        )
    }
    return MappedFunction(
        source,
        transform,
        name=f"ext({source.name})",
        op_name="extend",
        params={"computed": sorted(compiled), "transparent": transparent},
    )


def rename(source: FDMFunction, **mapping: str) -> MappedFunction:
    """Rename attributes: ``rename(customers, age='years')`` maps the
    existing ``age`` attribute to the new name ``years``."""
    if not mapping:
        raise OperatorError("rename() needs at least one old=new pair")
    old_to_new = dict(mapping)

    def transform(key: Any, value: Any) -> Any:
        if not isinstance(value, FDMFunction):
            raise OperatorError(
                f"rename() expects tuple-valued mappings, found {value!r}"
            )
        data = {}
        for attr, attr_value in value.items():
            data[old_to_new.get(attr, attr)] = attr_value
        return TupleFunction(data, name=value.fn_name)

    return MappedFunction(
        source,
        transform,
        name=f"ρ({source.name})",
        op_name="rename",
        params={"mapping": old_to_new},
    )


def map_tuples(
    source: FDMFunction, fn: Callable[[Any], Any], name: str | None = None
) -> MappedFunction:
    """Apply an arbitrary per-tuple transform (an opaque extension point).

    The callable receives each codomain value and returns its replacement
    (a mapping is auto-wrapped into a tuple function).
    """

    def transform(key: Any, value: Any) -> Any:
        result = fn(value)
        if isinstance(result, Mapping) and not isinstance(result, FDMFunction):
            return TupleFunction(result)
        return result

    return MappedFunction(
        source,
        transform,
        name=name or f"map({source.name})",
        op_name="map_tuples",
        params={"fn": getattr(fn, "__name__", "<lambda>")},
    )
