"""Database functions: names to relation functions (paper §2.5).

    DB(rel_name: string) := {('myTab': t4), ('Table1': R1), ('Table2': R2)}

Given the name of a relation, a database function returns a relation
function — or, thanks to level-blurring (§2.6), *any* FDM function: the
paper's own example stores tuple function ``t4`` directly in ``DB``. A
database function may also return computed λ relation functions that were
never stored.

Two implementations:

* :class:`MaterialDatabaseFunction` — a mutable dict-backed database, the
  usual root object of a session.
* :class:`OverlayDatabaseFunction` — a writable *view* over any database-
  kind function. FQL operators that produce databases wrap their results in
  an overlay so that Fig. 5's pattern works verbatim: first derive a
  subdatabase, then assign extra relation functions into it. Overlay edits
  touch the view only, never the underlying data.

Sets of databases (§2.2's fourth row) are database functions whose values
are database functions — no new class is needed, which is rather the point
of the paper; :func:`database_set` exists purely as a readable constructor.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro._util import normalize_key
from repro.errors import SchemaError, UndefinedInputError, UnknownRelationError
from repro.fdm.domains import DiscreteDomain, Domain
from repro.fdm.functions import FDMFunction

__all__ = [
    "DatabaseFunction",
    "MaterialDatabaseFunction",
    "OverlayDatabaseFunction",
    "database",
    "database_set",
]


class DatabaseFunction(FDMFunction):
    """Shared behaviour for database-level functions."""

    kind = "database"

    def relations(self) -> Iterator[tuple[str, FDMFunction]]:
        """Iterate (name, function) pairs."""
        return self.items()

    def _apply(self, key: Any) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError


class MaterialDatabaseFunction(DatabaseFunction):
    """A mutable database function backed by a name → function dict.

    Assignment follows §4.4 *in-place usage*: ``DB['otherRel'] = MyRel``
    adds (or replaces) a mapping; the assigned function is stored as-is, so
    derived (lazy) functions become **dynamic views** — materialize first
    with :func:`repro.fql.copy` for a materialized view.
    """

    def __init__(
        self,
        mappings: Mapping[str, Any] | None = None,
        name: str | None = None,
    ):
        super().__init__(name=name or "DB")
        self._functions: dict[str, FDMFunction] = {}
        #: Mutation counter feeding the executor's plan-cache fingerprint.
        self._version = 0
        if mappings:
            for rel_name, fn in mappings.items():
                self[rel_name] = fn

    @property
    def domain(self) -> Domain:
        return DiscreteDomain(self._functions.keys())

    def _apply(self, key: Any) -> Any:
        try:
            return self._functions[key]
        except (KeyError, TypeError):
            raise UnknownRelationError(key, self._name) from None

    def defined_at(self, *args: Any) -> bool:
        return len(args) == 1 and args[0] in self._functions

    def keys(self) -> Iterator[str]:
        return iter(list(self._functions))

    def __len__(self) -> int:
        return len(self._functions)

    def __setitem__(self, key: Any, value: Any) -> None:
        if not isinstance(key, str):
            raise SchemaError(
                f"database function inputs are relation names (strings), "
                f"got {key!r}"
            )
        if isinstance(value, Mapping):
            from repro.fdm.relations import relation

            value = relation(value, name=key)
        if not isinstance(value, FDMFunction):
            raise SchemaError(
                f"cannot store {value!r} in database function "
                f"{self._name!r}; provide an FDM function or a mapping"
            )
        self._functions[key] = value
        self._version += 1

    def __delitem__(self, key: Any) -> None:
        key = normalize_key(key)
        if key not in self._functions:
            raise UnknownRelationError(key, self._name)
        del self._functions[key]
        self._version += 1

    def add(self, value: Any) -> Any:
        raise SchemaError(
            "database functions are keyed by relation name; use "
            "DB['name'] = fn"
        )

    def __repr__(self) -> str:
        return (
            f"<DBF {self._name!r}: "
            f"{{{', '.join(self._functions)}}}>"
        )


class OverlayDatabaseFunction(DatabaseFunction):
    """A writable view over a database-kind function.

    Reads fall through to *base* unless a name was overlaid or hidden.
    Fig. 5 in action::

        subdatabase = fql.filter(lambda kv: kv[0] in names, DB)
        subdatabase.customers = fql.filter(DB.customers, state='NY')

    The second line lands in this overlay; ``DB`` itself is untouched.
    """

    def __init__(self, base: FDMFunction, name: str | None = None):
        super().__init__(name=name or base.name)
        self._base = base
        self._overlay: dict[str, FDMFunction] = {}
        self._hidden: set[str] = set()

    @property
    def base(self) -> FDMFunction:
        return self._base

    @property
    def domain(self) -> Domain:
        return (self._base.domain - DiscreteDomain(self._hidden)) | (
            DiscreteDomain(self._overlay.keys())
        )

    def _apply(self, key: Any) -> Any:
        if isinstance(key, str) and key in self._overlay:
            return self._overlay[key]
        if isinstance(key, str) and key in self._hidden:
            raise UnknownRelationError(key, self._name)
        return self._base._apply(key)

    def defined_at(self, *args: Any) -> bool:
        if len(args) != 1:
            return False
        key = args[0]
        if key in self._overlay:
            return True
        if key in self._hidden:
            return False
        return self._base.defined_at(key)

    def keys(self) -> Iterator[str]:
        seen = set(self._hidden)
        for key in self._base.keys():
            if key not in seen:
                seen.add(key)
                yield key
        for key in self._overlay:
            if key not in seen:
                yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __setitem__(self, key: Any, value: Any) -> None:
        if not isinstance(key, str):
            raise SchemaError(
                f"database function inputs are relation names, got {key!r}"
            )
        if isinstance(value, Mapping):
            from repro.fdm.relations import relation

            value = relation(value, name=key)
        if not isinstance(value, FDMFunction):
            raise SchemaError(
                f"cannot overlay {value!r}; provide an FDM function"
            )
        self._hidden.discard(key)
        self._overlay[key] = value

    def __delitem__(self, key: Any) -> None:
        if key in self._overlay:
            del self._overlay[key]
            if self._base.defined_at(key):
                self._hidden.add(key)
        elif self.defined_at(key):
            self._hidden.add(key)
        else:
            raise UnknownRelationError(key, self._name)

    @property
    def children(self) -> tuple[FDMFunction, ...]:
        return (self._base,)

    def rebuild(
        self, children: tuple[FDMFunction, ...]
    ) -> "OverlayDatabaseFunction":
        (base,) = children
        clone = OverlayDatabaseFunction(base, name=self._name)
        clone._overlay = dict(self._overlay)
        clone._hidden = set(self._hidden)
        return clone

    def __repr__(self) -> str:
        return f"<DBF-view {self._name!r} over {self._base.name!r}>"


def database(
    mappings: Mapping[str, Any] | None = None,
    name: str | None = None,
    **relations: Any,
) -> MaterialDatabaseFunction:
    """Convenience constructor for a material database function."""
    db = MaterialDatabaseFunction(mappings, name=name)
    for rel_name, fn in relations.items():
        db[rel_name] = fn
    return db


def database_set(
    databases: Mapping[str, FDMFunction], name: str | None = None
) -> MaterialDatabaseFunction:
    """A set of databases, modeled — of course — as another function.

    The result maps database names to database functions; every FQL
    operator works on it unchanged ("you can query any set of databases as
    if it were a tuple, a relation, or a database", contribution 2).
    """
    db = MaterialDatabaseFunction(name=name or "DBSet")
    for db_name, fn in databases.items():
        db[db_name] = fn
    db.kind = "database"
    return db
