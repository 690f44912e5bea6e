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

A relation's graph is held in one place whether it lives in memory or in
a database: a :class:`~repro.storage.table.Table` (DESIGN.md §4). Its
two carriers differ in two primitives only — which stamp a read sees and
how a write lands. :class:`MaterialRelationFunction`, the free-standing
relation (literals, intermediate results, copies, group members), owns a
one-segment table, reads its newest state and applies each write at
once at the next stamp of its own counter. The stored carrier in
:mod:`repro.storage.relation` reads a table of the database's engine
through the caller's snapshot and writes through transactions.
Everything else is written once, on :class:`RelationFunction`.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro._util import LATEST, TOMBSTONE, chunked, normalize_key
from repro.errors import (
    DuplicateKeyError,
    SchemaError,
    UndefinedInputError,
    UnknownRelationError,
)
from repro.fdm.domains import ANY, DiscreteDomain, Domain, as_domain
from repro.fdm.functions import FDMFunction, LambdaFunction
from repro.fdm.tuples import BoundTuple, TupleFunction

__all__ = [
    "RelationFunction",
    "MaterialRelationFunction",
    "ComputedRelationFunction",
    "relation",
    "relation_from_rows",
    "alternative_view",
    "table_of",
]

#: Serializes :meth:`RelationFunction.add`'s read-then-write.
_ADD_LOCK = threading.Lock()


class RelationFunction(FDMFunction):
    """Shared behaviour for every relation-level function, and the one
    read and write surface of the two relation carriers.

    A carrier supplies :meth:`table`, :meth:`_read_ts` (the stamp a read
    sees) and :meth:`_write_rows` (how a write lands). ``R(key)`` returns
    a :class:`BoundTuple` write-through view, so all Fig. 10 costumes
    work on either carrier:

    * ``R[3] = {'name': 'Tom', 'age': 42}`` — insert or replace,
    * ``R.add({...})`` — insert with an automatic integer key,
    * ``R[3]['age'] = 50`` — update one attribute,
    * ``del R[3]`` — delete.
    """

    kind = "relation"
    #: Which keys the costumes may write (``ANY``: every key).
    _key_constraint: Domain = ANY

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

    # -- the carrier's primitives -------------------------------------------------

    def table(self) -> Any:
        """The :class:`~repro.storage.table.Table` holding the graph now."""
        raise NotImplementedError

    def _read_ts(self) -> int:
        """The stamp a read sees."""
        raise NotImplementedError

    def _write_rows(self, writes: Any) -> None:
        """Land ``(key, data)`` writes as one statement; ``data`` is a
        row dict, a nested function or a bare value, and TOMBSTONE
        deletes."""
        raise NotImplementedError

    # -- reads ---------------------------------------------------------------------

    @property
    def is_enumerable(self) -> bool:
        return True

    def _raw_read(self, key: Any) -> Any:
        """Row dict, nested function or bare value at *key*, or TOMBSTONE."""
        return self.table().read(key, self._read_ts())

    def _apply(self, key: Any) -> Any:
        data = self._raw_read(key)
        if data is TOMBSTONE:
            raise UndefinedInputError(self._name, key)
        if isinstance(data, dict):
            return BoundTuple(self, key)
        return data  # a nested FDM function stored directly (§2.6)

    def defined_at(self, *args: Any) -> bool:
        if not args:
            return False
        key = normalize_key(args[0] if len(args) == 1 else tuple(args))
        return self._raw_read(key) is not TOMBSTONE

    def keys(self) -> Iterator[Any]:
        return self.table().keys_at(self._read_ts())

    def __len__(self) -> int:
        return self.table().count_at(self._read_ts())

    def _entries(self) -> Iterator[tuple[Any, Any]]:
        """``(key, data)`` of every mapping as a read sees it: the row
        dict (shared with the table: never mutate it), nested function
        or bare value."""
        return self.table().scan_at(self._read_ts())

    def items(self) -> Iterator[tuple[Any, Any]]:
        """Every mapping from one pass over the table: a row comes back
        as a :class:`BoundTuple`, anything else as it is stored."""
        return (
            (key, BoundTuple(self, key) if isinstance(data, dict) else data)
            for key, data in self._entries()
        )

    def iter_batches(self, batch_size: int = 256) -> Iterator[list]:
        """Chunked enumeration feeding the physical executor."""
        return chunked(self.items(), batch_size)

    def iter_columnar_batches(
        self, batch_size: int = 1024, zone_predicate: Any = None
    ) -> Iterator[Any]:
        """Columnar enumeration: the table's cached column images at the
        read stamp, with zone skipping (:meth:`Table.column_batches`)."""
        return self.table().column_batches(
            self._read_ts(), batch_size, self._name, zone_predicate
        )

    # -- BoundTuple write-through protocol ------------------------------------------

    def _read_data(self, key: Any) -> Mapping[str, Any]:
        data = self._raw_read(key)
        if data is TOMBSTONE:
            raise UndefinedInputError(self._name, key)
        if not isinstance(data, dict):
            raise SchemaError(
                f"{self._name!r}[{key!r}] holds a nested function, not a "
                "tuple"
            )
        return data

    def _write_row(self, key: Any, data: Any) -> None:
        self._write_rows(((key, data),))

    def _write_attr(self, key: Any, attr: str, value: Any) -> None:
        data = dict(self._read_data(key))
        data[attr] = value
        self._write_row(key, data)

    def _delete_attr(self, key: Any, attr: str) -> None:
        data = dict(self._read_data(key))
        if attr not in data:
            raise UndefinedInputError(f"{self._name}[{key!r}]", attr)
        del data[attr]
        self._write_row(key, data)

    # -- Fig. 10 costumes ------------------------------------------------------------

    def _coerce_row(self, value: Any) -> Any:
        """What a costume stores for *value*: an attribute dict, or a
        nested function as it is (§2.6). A tuple function's dict is
        shared, not copied: neither it nor a stored row is ever mutated
        in place."""
        if type(value) is dict:
            return dict(value)
        if isinstance(value, BoundTuple):
            value = value.snapshot()
        if isinstance(value, TupleFunction):
            return value._data
        if isinstance(value, Mapping):
            return dict(value)
        if isinstance(value, FDMFunction):
            return value
        raise SchemaError(
            f"cannot store {value!r} in relation function {self._name!r}; "
            "provide a mapping or an FDM function"
        )

    def _checked(self, key: Any, value: Any) -> tuple[Any, Any]:
        """A costume's ``(key, data)`` write: the key normalized and
        validated, the value coerced."""
        key = normalize_key(key)
        if self._key_constraint is not ANY:
            self._key_constraint.validate(key, what=f"key for {self._name!r}")
        return key, self._coerce_row(value)

    def __setitem__(self, key: Any, value: Any) -> None:
        self._write_row(*self._checked(key, value))

    def __delitem__(self, key: Any) -> None:
        key = normalize_key(key)
        if self._raw_read(key) is TOMBSTONE:
            raise UndefinedInputError(self._name, key)
        self._write_row(key, TOMBSTONE)

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
            for k in self.keys()
            if isinstance(k, int) and not isinstance(k, bool)
        ]
        return (max(int_keys) + 1) if int_keys else 1

    def insert(self, key: Any, value: Any) -> None:
        """Insert that refuses to overwrite an existing key."""
        key = normalize_key(key)
        if self.defined_at(key):
            raise DuplicateKeyError(self._name, key)
        self[key] = value


def table_of(fn: Any) -> Any:
    """The storage table a relation carrier reads now; ``None`` for any
    other function, or a stored relation whose table was dropped."""
    if not isinstance(fn, RelationFunction):
        return None
    try:
        return fn.table()
    except UnknownRelationError:
        return None


class MaterialRelationFunction(RelationFunction):
    """A free-standing relation: one flat table of its own.

    Reads see the newest state. A write applies at once, at the next
    stamp of the relation's mutation counter ``_version`` (part of the
    executor's plan-cache token, so DML invalidates cached plans,
    DESIGN.md §6), and replaces the key's one version: no snapshot reads
    an older one. Writes are non-transactional.
    """

    #: The mutation counter: the stamp of the newest write.
    _version = 0
    #: The change-capture log, attached on demand by
    #: :func:`repro.ivm.changelog.ensure_capture` (DESIGN.md §9).
    changelog = None
    #: Eager maintained views over this relation
    #: (:func:`repro.ivm.registry.registry_for`).
    view_registry = None

    def __init__(
        self,
        mappings: Mapping[Any, Any] | None = None,
        name: str | None = None,
        key_domain: Any = None,
        key_name: str | tuple[str, ...] | None = None,
    ):
        super().__init__(name=name or "R", domain=None, codomain=None)
        if key_domain is not None:
            self._key_constraint = as_domain(key_domain)
        self._key_name = key_name
        self._table = Table(self._name, key_name=key_name)
        if mappings:
            self._write_rows(
                self._checked(key, value) for key, value in mappings.items()
            )

    @property
    def domain(self) -> Domain:
        return DiscreteDomain(self.keys())

    @property
    def key_name(self) -> str | tuple[str, ...] | None:
        """Optional label(s) for the key position (e.g. ``'cid'``)."""
        return self._key_name

    def table(self) -> Any:
        return self._table

    def _read_ts(self) -> int:
        return LATEST

    def _write_rows(self, writes: Any) -> None:
        log = self.changelog
        if log is not None:
            writes = list(writes)  # read twice: applied, then logged
        ts = self._version + 1
        olds = self._table.segments[0].put(writes, ts)
        self._version = ts
        if log is None:
            return
        from repro.ivm.delta import Delta

        delta = Delta()
        for (key, data), old in zip(writes, olds):
            log.observe_row(data)
            delta.record(key, old, data)
        log.append(ts, {self._table.name: delta})
        if delta and self.view_registry is not None:
            self.view_registry.notify_commit(ts)

    def ensure_changelog(self) -> Any:
        """Start change capture (idempotent); see
        :func:`repro.ivm.changelog.ensure_capture`."""
        from repro.ivm.changelog import ensure_capture

        return ensure_capture(self)

    def __repr__(self) -> str:
        return f"<RelationF {self._name!r}: {len(self)} tuples>"


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
    return MaterialRelationFunction(
        {**(mappings or {}), **rows},
        name=name,
        key_domain=key_domain,
        key_name=key_name,
    )


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
    writes: dict[Any, Any] = {}
    for row in rows:
        missing = [a for a in key_attrs if a not in row]
        if missing:
            raise SchemaError(
                f"row {row!r} is missing key attribute(s) {missing}"
            )
        key_value = tuple(row[a] for a in key_attrs)
        key_value = normalize_key(
            key_value[0] if len(key_value) == 1 else key_value
        )
        if key_value in writes:
            raise DuplicateKeyError(rel.fn_name, key_value)
        writes[key_value] = (
            dict(row)
            if keep_key
            else {k: v for k, v in row.items() if k not in key_attrs}
        )
    rel._write_rows(writes.items())
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


# last: the storage package imports this module
from repro.storage.table import Table  # noqa: E402
