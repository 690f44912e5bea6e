"""Tuple functions: the lowest FDM level (paper §2.3).

A tuple function maps attribute names to attribute values:

    t1(attr: string) := {('name': 'Alice'), ('foo': 12)}

Looking up an attribute value is *calling the function with the attribute
name*: ``t1('foo') == 12``. Values may themselves be FDM functions (paper
§2.6 level-blurring), and a tuple function may be computed rather than
enumerated (§2.3 *Computed Functions*) — stored and computed attributes are
indistinguishable to callers.

There is deliberately no NULL: a tuple function is *undefined* outside its
domain, and :class:`repro.errors.UndefinedInputError` is the only way to
observe that.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.errors import SchemaError, UndefinedInputError
from repro.fdm.domains import ANY, DiscreteDomain, Domain, STR
from repro.fdm.functions import FDMFunction, freeze_function, values_equal

__all__ = [
    "TupleFunction",
    "RowTuple",
    "ComputedTupleFunction",
    "BoundTuple",
    "as_tuple_function",
    "tuple_function",
]


class TupleFunction(FDMFunction):
    """An immutable, enumerated tuple function backed by a mapping."""

    kind = "tuple"

    def __init__(self, mapping: Mapping[str, Any] | None = None,
                 name: str | None = None, **attrs: Any):
        data: dict[str, Any] = dict(mapping or {})
        data.update(attrs)
        for attr in data:
            if not isinstance(attr, str):
                raise SchemaError(
                    f"tuple function attributes must be strings, got "
                    f"{attr!r}"
                )
        super().__init__(name=name or "t", domain=DiscreteDomain(data),
                         codomain=None)
        self._data = data

    def _apply(self, key: Any) -> Any:
        try:
            return self._data[key]
        except (KeyError, TypeError):
            raise UndefinedInputError(self._name, key) from None

    def defined_at(self, *args: Any) -> bool:
        return len(args) == 1 and args[0] in self._data

    @property
    def name(self) -> Any:
        """Dot-syntax costume: the data attribute ``'name'`` wins over the
        function label (use :attr:`fn_name` for the label)."""
        if "name" in self._data:
            return self._data["name"]
        return self._name

    def attributes(self) -> list[str]:
        """The attribute names this tuple maps (its domain)."""
        return list(self._data)

    # the domain is the data's keys in data order, so enumeration reads
    # the dict directly
    def keys(self):
        return iter(self._data)

    def items(self):
        return iter(self._data.items())

    def values(self):
        return iter(self._data.values())

    def __len__(self) -> int:
        return len(self._data)

    def replace(self, **changes: Any) -> "TupleFunction":
        """A new tuple function with some attribute values replaced/added."""
        data = dict(self._data)
        data.update(changes)
        return TupleFunction(data, name=self._name)

    def without(self, *attrs: str) -> "TupleFunction":
        """A new tuple function with the given attributes dropped."""
        data = {k: v for k, v in self._data.items() if k not in attrs}
        return TupleFunction(data, name=self._name)

    def project(self, attrs: Iterable[str]) -> "TupleFunction":
        """A new tuple function restricted to *attrs* (must be defined)."""
        return TupleFunction(
            {a: self._apply(a) for a in attrs}, name=self._name
        )

    # Tuple functions have *value* semantics: two tuple functions with the
    # same extension are the same tuple, regardless of identity. This is
    # what makes sets of tuple functions (alternative views with
    # duplicates, set operations) behave like relational sets of tuples.
    def __eq__(self, other: Any) -> bool:
        if isinstance(other, FDMFunction):
            if not other.is_enumerable:
                return False
            if set(self._data) != set(other.keys()):
                return False
            return all(
                values_equal(v, other._apply(k))
                for k, v in self._data.items()
            )
        if isinstance(other, Mapping):
            return self == TupleFunction(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(freeze_function(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v!r}" for k, v in self._data.items())
        return f"{self._name}{{{inner}}}"


class RowTuple(TupleFunction):
    """A tuple snapshot built straight from a committed row dict.

    The columnar executor wraps rows with these at its materialization
    boundaries; the stock constructor's up-front domain materialization
    would dominate scan cost, so the domain is built lazily — filters
    that reject a row via the ``_data`` fast path never pay for it. The
    row dict is *shared*, not copied: committed version-chain rows and
    material-relation rows are never mutated in place (updates install
    fresh dicts), and tuple functions expose no mutators.
    """

    def __init__(self, data: dict, name: str):
        # straight into the instance dict: one per materialized row, and
        # FDMFunction.__setattr__ would route each store through a check
        state = self.__dict__
        state["_name"] = name
        state["_data"] = data
        state["_codomain"] = ANY
        state["_lazy_domain"] = None

    @property
    def domain(self) -> Domain:
        if self._lazy_domain is None:
            object.__setattr__(
                self, "_lazy_domain", DiscreteDomain(self._data)
            )
        return self._lazy_domain

    @property
    def is_enumerable(self) -> bool:
        return True


class ComputedTupleFunction(FDMFunction):
    """A tuple function whose attribute values are computed on demand.

    This is the paper's §2.3 example: an attribute like ``bar`` can return
    ``42 * t1('foo')`` while all other attributes delegate elsewhere —
    callers cannot tell the difference. Provide *fn* mapping an attribute
    name to its value; *attrs* fixes the (enumerable) domain. With
    ``attrs=None`` the domain is all strings: a genuinely open computed
    tuple (not enumerable).
    """

    kind = "tuple"

    def __init__(
        self,
        fn: Callable[[str], Any],
        attrs: Iterable[str] | None = None,
        name: str | None = None,
    ):
        domain: Any = DiscreteDomain(attrs) if attrs is not None else STR
        super().__init__(name=name or "λt", domain=domain, codomain=None)
        self._fn = fn

    @property
    def name(self) -> Any:
        """Dot-syntax costume: data attribute ``'name'`` wins (see
        :class:`TupleFunction`)."""
        if self._domain.contains("name"):
            return self._fn("name")
        return self._name

    def _apply(self, key: Any) -> Any:
        if not self._domain.contains(key):
            raise UndefinedInputError(self._name, key)
        return self._fn(key)

    def attributes(self) -> list[str]:
        if not self.is_enumerable:
            from repro.errors import NotEnumerableError

            raise NotEnumerableError(
                f"computed tuple {self._name!r} has an open attribute domain"
            )
        return list(self.keys())

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, FDMFunction):
            from repro.fdm.functions import extensionally_equal

            return extensionally_equal(self, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(freeze_function(self))


class BoundTuple(FDMFunction):
    """A live, writable view of one stored tuple inside a relation.

    Fig. 10's ``customers[3]['age'] = 50`` requires the value returned by
    ``customers[3]`` to *write through* to the relation. A BoundTuple holds
    (relation, key) and reads fresh data on every access, so it always
    reflects the caller's current snapshot; assignments and deletions are
    forwarded to the owning relation.
    """

    kind = "tuple"

    def __init__(self, relation: Any, key: Any):
        super().__init__(name=f"{relation.name}[{key!r}]")
        self._relation = relation
        self._key = key

    @property
    def relation_key(self) -> Any:
        """The key this tuple is bound to in its relation."""
        return self._key

    def _data(self) -> Mapping[str, Any]:
        return self._relation._read_data(self._key)

    @property
    def name(self) -> Any:
        """Dot-syntax costume: data attribute ``'name'`` wins (see
        :class:`TupleFunction`)."""
        data = self._data()
        if "name" in data:
            return data["name"]
        return self._name

    @property
    def domain(self) -> Domain:
        return DiscreteDomain(self._data().keys())

    def _apply(self, key: Any) -> Any:
        data = self._data()
        try:
            return data[key]
        except (KeyError, TypeError):
            raise UndefinedInputError(self._name, key) from None

    def defined_at(self, *args: Any) -> bool:
        return len(args) == 1 and args[0] in self._data()

    def attributes(self) -> list[str]:
        return list(self._data())

    def keys(self) -> Iterator[str]:
        return iter(list(self._data()))

    # -- write-through ---------------------------------------------------------

    def __setitem__(self, attr: str, value: Any) -> None:
        self._relation._write_attr(self._key, attr, value)

    def __delitem__(self, attr: str) -> None:
        self._relation._delete_attr(self._key, attr)

    def snapshot(self) -> TupleFunction:
        """An immutable copy of the current state."""
        return TupleFunction(dict(self._data()), name=self._name)

    def __eq__(self, other: Any) -> bool:
        return self.snapshot() == other

    def __hash__(self) -> int:
        return hash(self.snapshot())

    def __repr__(self) -> str:
        try:
            inner = ", ".join(f"{k}: {v!r}" for k, v in self._data().items())
        except Exception:  # tuple deleted meanwhile
            inner = "<deleted>"
        return f"{self._name}{{{inner}}}"


def as_tuple_function(value: Any, name: str | None = None) -> FDMFunction:
    """Coerce *value* (tuple function or mapping) into a tuple function."""
    if isinstance(value, FDMFunction):
        return value
    if isinstance(value, Mapping):
        return TupleFunction(value, name=name)
    raise SchemaError(
        f"cannot interpret {value!r} as a tuple function; provide a mapping "
        "or an FDM function"
    )


def tuple_function(**attrs: Any) -> TupleFunction:
    """Convenience constructor: ``tuple_function(name='Alice', foo=12)``."""
    return TupleFunction(attrs)
