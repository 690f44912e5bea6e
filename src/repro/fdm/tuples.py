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

A row is carried by one class, :class:`TupleFunction`: a scan, a
changelog snapshot and an offloaded result all wrap the committed row
dict with :meth:`TupleFunction.of`, and nothing copies it.
:class:`BoundTuple` stays beside it for one reason: Fig. 10's
``customers[3]['age'] = 50`` writes through the value ``customers[3]``
returned, so that value must be a live (relation, key) handle that reads
the row afresh, not a wrapper around the row as it was.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.errors import SchemaError, UndefinedInputError
from repro.fdm.domains import ANY, DiscreteDomain, Domain, STR
from repro.fdm.functions import FDMFunction, freeze_function, values_equal

__all__ = [
    "TupleFunction",
    "ComputedTupleFunction",
    "BoundTuple",
    "tuple_function",
]


def check_attributes(names: Iterable[Any]) -> None:
    """Raise :class:`SchemaError` unless every name is a string."""
    for attr in names:
        if not isinstance(attr, str):
            raise SchemaError(
                f"tuple function attributes must be strings, got {attr!r}"
            )


class TupleFunction(FDMFunction):
    """An immutable, enumerated tuple function backed by one dict.

    ``TupleFunction(mapping)`` copies what it is given and checks that
    every attribute name is a string. :meth:`of` wraps a dict as it is,
    shared and unchecked: a committed row, or a dict its caller has just
    built from names already known to be strings. Sharing is sound
    because committed rows are never mutated in place (an update
    installs a fresh dict) and a tuple function has no mutators
    (DESIGN.md §4). The domain is built the first time something reads
    it: most tuples are read through ``_data`` and never need one.
    """

    kind = "tuple"
    #: Its domain is its data's attribute names.
    is_enumerable = True
    _domain = None
    _codomain = ANY

    def __init__(self, mapping: Mapping[str, Any] | None = None,
                 name: str | None = None, **attrs: Any):
        data: dict[str, Any] = dict(mapping or {})
        data.update(attrs)
        check_attributes(data)
        state = self.__dict__
        state["_name"] = name or "t"
        state["_data"] = data

    @classmethod
    def of(cls, data: dict, name: str = "t") -> "TupleFunction":
        """Wrap *data*, which nobody mutates, without copying or checking it."""
        # straight into the instance dict: one per row, and
        # FDMFunction.__setattr__ would route each store through a check
        self = cls.__new__(cls)
        state = self.__dict__
        state["_name"] = name
        state["_data"] = data
        return self

    @property
    def domain(self) -> Domain:
        domain = self._domain
        if domain is None:
            domain = self._domain = DiscreteDomain(self._data)
        return domain

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
        return TupleFunction.of(data, self._name)

    def project(self, attrs: Iterable[str]) -> "TupleFunction":
        """A new tuple function restricted to *attrs* (must be defined):
        its names are this tuple's own, so they need no check."""
        return TupleFunction.of(
            {a: self._apply(a) for a in attrs}, self._name
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
            return self == TupleFunction.of(dict(other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(freeze_function(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v!r}" for k, v in self._data.items())
        return f"{self._name}{{{inner}}}"


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

    #: Its domain is its attribute names, read or not.
    is_enumerable = True

    def keys(self) -> Iterator[str]:
        return iter(list(self._data()))

    def items(self) -> Iterator[tuple[str, Any]]:
        """Every attribute from one read of the row (the inherited
        walk read it once per attribute, and could mix two commits)."""
        return iter(list(self._data().items()))

    def values(self) -> Iterator[Any]:
        """Every value from one read of the row."""
        return iter(list(self._data().values()))

    # -- write-through ---------------------------------------------------------

    def __setitem__(self, attr: str, value: Any) -> None:
        self._relation._write_attr(self._key, attr, value)

    def __delitem__(self, attr: str) -> None:
        self._relation._delete_attr(self._key, attr)

    def snapshot(self) -> TupleFunction:
        """The current state as an immutable tuple: the committed row
        itself, shared."""
        return TupleFunction.of(self._data(), self._name)

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


def tuple_function(**attrs: Any) -> TupleFunction:
    """Convenience constructor: ``tuple_function(name='Alice', foo=12)``."""
    return TupleFunction(attrs)
