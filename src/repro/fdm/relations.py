"""Relation functions: higher-order functions from keys to tuple functions.

Paper §2.4: ``R1(bar: int) := t_bar`` — a relation function maps a key (a
primary key, any candidate key, or a row id) to a tuple function. The data
a relational DBMS keeps as a *set of tuples* is here the *graph of a
function*. The section's machinery is all present:

* constraining the input domain expresses which tuples exist;
* Definition 1 itself provides unique constraints (``R2``);
* duplicates require an explicitly nested codomain (``R3(foo) -> {TF}``),
  realized here as alternative views whose values are nested relation
  functions;
* computed relation functions (``R4``) return λ-tuples for inputs that were
  never stored, via :class:`repro.fdm.functions.FallbackFunction` or
  :class:`ComputedRelationFunction` directly.

:class:`MaterialRelationFunction` is the in-memory, non-transactional
implementation (literals, intermediate results, tests). Transactional
stored relations live in :mod:`repro.storage.relation` and share this
interface.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro._util import MISSING, normalize_key
from repro.errors import (
    DuplicateKeyError,
    SchemaError,
    UndefinedInputError,
)
from repro.fdm.domains import ANY, DiscreteDomain, Domain, as_domain
from repro.fdm.functions import FDMFunction, LambdaFunction
from repro.fdm.tuples import BoundTuple, TupleFunction, as_tuple_function

__all__ = [
    "RelationFunction",
    "MaterialRelationFunction",
    "ComputedRelationFunction",
    "relation",
    "relation_from_rows",
    "alternative_view",
]

#: Serializes :meth:`MaterialRelationFunction.add`'s read-then-write.
_ADD_LOCK = threading.Lock()


class RelationFunction(FDMFunction):
    """Shared behaviour for every relation-level function."""

    kind = "relation"

    def tuples(self) -> Iterator[FDMFunction]:
        """Iterate the tuple functions in key order (the codomain values)."""
        return self.values()

    def first(self) -> FDMFunction:
        """The tuple function at the first key (raises when empty)."""
        for value in self.values():
            return value
        raise UndefinedInputError(self._name, "<first of empty relation>")

    def count(self) -> int:
        """Number of mappings."""
        return len(self)

    def attributes(self) -> list[str]:
        """Union of attribute names over all tuples, in first-seen order."""
        seen: dict[str, None] = {}
        for t in self.tuples():
            if isinstance(t, FDMFunction) and t.is_enumerable:
                for attr in t.keys():
                    seen.setdefault(attr, None)
        return list(seen)

    def to_rows(self, include_key: str | None = None) -> list[dict[str, Any]]:
        """Materialize tuples as plain dicts, optionally embedding the key.

        ``include_key='cid'`` adds each mapping's key back as attribute
        ``cid`` — the bridge used when exporting to the relational baseline
        (where keys must be columns).
        """
        rows = []
        for key, t in self.items():
            row = (
                dict(t.items()) if isinstance(t, FDMFunction) else {"value": t}
            )
            if include_key is not None:
                if isinstance(key, tuple) and "," in include_key:
                    names = [n.strip() for n in include_key.split(",")]
                    row.update(dict(zip(names, key)))
                else:
                    row[include_key] = key
            rows.append(row)
        return rows


class MaterialRelationFunction(RelationFunction):
    """A mutable in-memory relation function.

    Rows are stored as plain attribute dicts; ``R(key)`` returns a
    :class:`BoundTuple` write-through view so all Fig. 10 costumes work:

    * ``R[3] = {'name': 'Tom', 'age': 42}`` — insert or replace,
    * ``R.add({...})`` — insert with an automatic integer key,
    * ``R[3]['age'] = 50`` — update one attribute,
    * ``del R[3]`` — delete.

    Mutations here are immediate and non-transactional; the storage-backed
    twin in :mod:`repro.storage.relation` adds MVCC snapshots.
    """

    def __init__(
        self,
        mappings: Mapping[Any, Any] | None = None,
        name: str | None = None,
        key_domain: Any = None,
        key_name: str | tuple[str, ...] | None = None,
    ):
        super().__init__(name=name or "R", domain=None, codomain=None)
        self._key_constraint: Domain = as_domain(key_domain)
        self._key_name = key_name
        self._rows: dict[Any, Any] = {}
        #: Mutation counter: part of the executor's plan-cache
        #: fingerprint, so DML invalidates cached plans (DESIGN.md §6).
        self._version = 0
        #: Change-capture log, attached on demand by
        #: :func:`repro.ivm.changelog.ensure_capture` (DESIGN.md §9).
        self._changes = None
        if mappings:
            for key, value in mappings.items():
                self[key] = value

    # -- FDM function interface ----------------------------------------------

    @property
    def domain(self) -> Domain:
        return DiscreteDomain(self._rows.keys())

    @property
    def key_name(self) -> str | tuple[str, ...] | None:
        """Optional label(s) for the key position (e.g. ``'cid'``)."""
        return self._key_name

    def _apply(self, key: Any) -> Any:
        if key not in self._rows:
            raise UndefinedInputError(self._name, key)
        stored = self._rows[key]
        if isinstance(stored, dict):
            return BoundTuple(self, key)
        return stored  # a nested FDM function stored directly

    def defined_at(self, *args: Any) -> bool:
        if not args:
            return False
        key = args[0] if len(args) == 1 else tuple(args)
        return normalize_key(key) in self._rows

    def keys(self) -> Iterator[Any]:
        return iter(list(self._rows))

    def __len__(self) -> int:
        return len(self._rows)

    def iter_batches(self, batch_size: int = 256) -> Iterator[list]:
        """Chunked enumeration directly over the row store."""
        from repro._util import chunked

        rows = self._rows

        def entries() -> Iterator[tuple[Any, Any]]:
            for key in list(rows):
                try:
                    stored = rows[key]
                except KeyError:
                    raise UndefinedInputError(self._name, key) from None
                yield key, (
                    BoundTuple(self, key)
                    if isinstance(stored, dict)
                    else stored
                )

        return chunked(entries(), batch_size)

    def iter_columnar_batches(
        self, batch_size: int = 1024, zone_predicate: Any = None
    ) -> Iterator[Any]:
        """Columnar enumeration over the row store (DESIGN.md §13).

        Row dicts are shared with the store, never copied: writes install
        fresh dicts (:meth:`__setitem__`/``_write_attr``), so a batch is
        a consistent snapshot of the rows it captured. Each batch is a
        throwaway image, so columns derive the one way stored scans
        derive them. In-memory relations have no segments, so
        *zone_predicate* is ignored.
        """
        from repro.exec.batch import entry_batches

        rows = self._rows

        def entries() -> Iterator[tuple[Any, Any]]:
            for key in list(rows):
                try:
                    stored = rows[key]
                except KeyError:
                    raise UndefinedInputError(self._name, key) from None
                yield key, stored

        return entry_batches(entries(), batch_size, self._name)

    # -- write-through protocol used by BoundTuple ------------------------------

    def _read_data(self, key: Any) -> Mapping[str, Any]:
        try:
            return self._rows[key]
        except KeyError:
            raise UndefinedInputError(self._name, key) from None

    def _write_attr(self, key: Any, attr: str, value: Any) -> None:
        old = self._read_data(key)
        self._rows[key] = {**self._rows[key], attr: value}
        self._version += 1
        self._record_change(key, old, self._rows[key])

    def _delete_attr(self, key: Any, attr: str) -> None:
        old = self._read_data(key)
        data = dict(old)
        if attr not in data:
            raise UndefinedInputError(f"{self._name}[{key!r}]", attr)
        del data[attr]
        self._rows[key] = data
        self._version += 1
        self._record_change(key, old, data)

    # -- change capture (incremental view maintenance, DESIGN.md §9) --------------

    def _record_change(self, key: Any, old: Any, new: Any) -> None:
        """Publish one mutation to the capture log, if one is attached."""
        log = self._changes
        if log is None:
            return
        from repro.ivm.delta import Delta

        log.observe_row(new)
        delta = Delta()
        delta.record(key, old, new)
        log.append(self._version, {None: delta})

    # -- mutation costumes (Fig. 10) ----------------------------------------------

    def __setitem__(self, key: Any, value: Any) -> None:
        key = normalize_key(key)
        self._key_constraint.validate(key, what=f"key for {self._name!r}")
        old = self._rows.get(key, MISSING)
        if isinstance(value, BoundTuple):
            value = value.snapshot()
        if isinstance(value, TupleFunction):
            self._rows[key] = dict(value.items())
        elif isinstance(value, Mapping):
            self._rows[key] = dict(value)
        elif isinstance(value, FDMFunction):
            self._rows[key] = value  # nested function (paper §2.6)
        else:
            raise SchemaError(
                f"cannot store {value!r} in relation function "
                f"{self._name!r}; provide a mapping or an FDM function"
            )
        self._version += 1
        self._record_change(key, old, self._rows[key])

    def __delitem__(self, key: Any) -> None:
        key = normalize_key(key)
        if key not in self._rows:
            raise UndefinedInputError(self._name, key)
        old = self._rows[key]
        del self._rows[key]
        self._version += 1
        self._record_change(key, old, MISSING)

    def add(self, value: Any) -> Any:
        """Insert relying on an auto id (Fig. 10); returns the new key.
        Reading the next key and writing it is one step, so concurrent
        adds take distinct keys."""
        with _ADD_LOCK:
            key = self.next_auto_key()
            self[key] = value
        return key

    def next_auto_key(self) -> int:
        int_keys = [
            k
            for k in self._rows
            if isinstance(k, int) and not isinstance(k, bool)
        ]
        return (max(int_keys) + 1) if int_keys else 1

    def insert(self, key: Any, value: Any) -> None:
        """Insert that refuses to overwrite an existing key."""
        key = normalize_key(key)
        if key in self._rows:
            raise DuplicateKeyError(self._name, key)
        self[key] = value

    def __repr__(self) -> str:
        return f"<RelationF {self._name!r}: {len(self._rows)} tuples>"


class ComputedRelationFunction(LambdaFunction):
    """A relation function whose tuples are computed, not stored.

    The mapper receives the key and returns a tuple function or a plain
    mapping (auto-wrapped). Combined with a continuous domain this
    represents the paper's "data space that is not just a discrete set"
    (§2.4): point lookups work everywhere in the domain, enumeration only
    when the domain is enumerable.
    """

    kind = "relation"

    def __init__(
        self,
        mapper: Callable[..., Any],
        domain: Any = None,
        name: str | None = None,
    ):
        def wrap(key: Any) -> Any:
            result = mapper(key)
            if isinstance(result, Mapping):
                return TupleFunction(result, name=f"{self._name}({key!r})")
            return result

        super().__init__(wrap, domain=domain, name=name or "λR",
                         kind="relation")

    # RelationFunction helpers, duplicated because of the LambdaFunction base
    tuples = RelationFunction.tuples
    first = RelationFunction.first
    count = RelationFunction.count
    attributes = RelationFunction.attributes
    to_rows = RelationFunction.to_rows


def relation(
    mappings: Mapping[Any, Any] | None = None,
    name: str | None = None,
    key_domain: Any = None,
    key_name: str | tuple[str, ...] | None = None,
    **rows: Any,
) -> MaterialRelationFunction:
    """Convenience constructor for a material relation function.

    >>> R1 = relation({1: {'name': 'Alice', 'foo': 12},
    ...                3: {'name': 'Bob', 'foo': 25}}, name='R1')
    >>> R1(3)('foo')
    25
    """
    rel = MaterialRelationFunction(
        mappings, name=name, key_domain=key_domain, key_name=key_name
    )
    for key, value in rows.items():
        rel[key] = value
    return rel


def relation_from_rows(
    rows: Iterable[Mapping[str, Any]],
    key: str | tuple[str, ...],
    name: str | None = None,
    keep_key: bool = False,
) -> MaterialRelationFunction:
    """Build a relation function from attribute rows, extracting the key.

    Per Fig. 1's note, "the keys cid and pid are not part of the returned
    attributes": the key attribute(s) move from the tuple into the function
    input. Pass ``keep_key=True`` to also keep them as attributes.
    """
    key_attrs = (key,) if isinstance(key, str) else tuple(key)
    key_name = key if isinstance(key, str) else tuple(key)
    rel = MaterialRelationFunction(name=name, key_name=key_name)
    for row in rows:
        missing = [a for a in key_attrs if a not in row]
        if missing:
            raise SchemaError(
                f"row {row!r} is missing key attribute(s) {missing}"
            )
        key_value = tuple(row[a] for a in key_attrs)
        key_value = key_value[0] if len(key_value) == 1 else key_value
        data = (
            dict(row)
            if keep_key
            else {k: v for k, v in row.items() if k not in key_attrs}
        )
        rel.insert(key_value, data)
    return rel


def alternative_view(
    base: FDMFunction,
    attr: str,
    unique: bool = True,
    name: str | None = None,
) -> MaterialRelationFunction:
    """Reorganize *base* by attribute *attr* — the paper's ``R2``/``R3``.

    With ``unique=True`` the result maps each attribute value to *the* tuple
    function carrying it; a duplicate raises (Definition 1 provides the
    unique constraint "for free"). With ``unique=False`` the codomain is
    explicitly nested: each attribute value maps to a *relation function*
    of the matching tuples, keyed by their original keys — "in a relational
    DBMS, this is exactly what indexes on attributes with duplicates do".
    """
    view_name = name or f"{base.name}_by_{attr}"
    if unique:
        view = MaterialRelationFunction(name=view_name, key_name=attr)
        for key, t in base.items():
            value = t(attr)
            if view.defined_at(value):
                raise DuplicateKeyError(view_name, value)
            view[value] = t
        return view
    groups: dict[Any, MaterialRelationFunction] = {}
    for key, t in base.items():
        value = t(attr)
        group = groups.get(value)
        if group is None:
            group = MaterialRelationFunction(
                name=f"{view_name}[{value!r}]", key_name=base.name
            )
            groups[value] = group
        group[key] = t
    view = MaterialRelationFunction(name=view_name, key_name=attr)
    for value, group in groups.items():
        view[value] = group
    return view
