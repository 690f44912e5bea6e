"""Materialization: ``deep_copy`` (Fig. 9) and ``copy`` (§4.4).

``deep_copy(DB)`` materializes an entire database — every relation, every
tuple — into fresh material functions, so the copy can be mutated freely
and diffed against the original. ``copy(foo)`` is §4.4's materialized-view
marker: ``DB['mv'] = copy(expr)`` snapshots expr's *contents*, while
``DB['v'] = expr`` stores the live (dynamic) view.

Computed functions over non-enumerable domains cannot be materialized (an
intension has no finite extension); they are returned as-is, documented
here and in DESIGN.md.

Relationship functions are rebuilt with their participants re-pointed to
the copies when the participants are part of the same copy operation (the
memo), so a copied database's internal foreign-key structure references
the copied relations, not the originals.
"""

from __future__ import annotations

from typing import Any

from repro.fdm.databases import (
    DatabaseFunction,
    MaterialDatabaseFunction,
)
from repro.fdm.functions import FDMFunction
from repro.fdm.relations import MaterialRelationFunction, RelationFunction
from repro.fdm.relationships import Participant, RelationshipFunction
from repro.fdm.tuples import TupleFunction

__all__ = ["deep_copy", "copy", "materialize"]


def _copy_value(value: Any, memo: dict[int, FDMFunction]) -> Any:
    if isinstance(value, FDMFunction):
        return deep_copy(value, _memo=memo)
    return value


def deep_copy(
    fn: FDMFunction, _memo: dict[int, FDMFunction] | None = None
) -> FDMFunction:
    """Materialize *fn* and everything beneath it into material functions."""
    memo = _memo if _memo is not None else {}
    if id(fn) in memo:
        return memo[id(fn)]

    if not fn.is_enumerable:
        # An intension cannot be copied extensionally; share it.
        memo[id(fn)] = fn
        return fn

    if isinstance(fn, RelationshipFunction):
        participants = []
        for part in fn.participants:
            target = part.target
            if isinstance(target, FDMFunction):
                target = memo.get(id(target), target)
            participants.append(Participant(part.param, target))
        clone = RelationshipFunction(
            participants,
            name=fn.fn_name,
            predicate=fn.is_predicate,
            enforce=False,
        )
        memo[id(fn)] = clone
        clone._write_rows(
            [
                (key, _copy_value(value, memo))
                if isinstance(value, FDMFunction)
                else (key, dict(value) if isinstance(value, dict) else value)
                for key, value in fn._entries()
            ]
        )
        return clone

    kind = fn.kind
    if kind == "tuple":
        data = {
            attr: _copy_value(value, memo) for attr, value in fn.items()
        }
        clone = TupleFunction(data, name=fn.fn_name)
        memo[id(fn)] = clone
        return clone

    if kind == "database" or isinstance(fn, DatabaseFunction):
        entries = list(fn.items())
        if any(not isinstance(name, str) for name, _value in entries):
            # database-kind functions keyed by values (``group()``'s
            # output maps group keys, not names): snapshot into a
            # relation-shaped store that keeps the database kind
            value_clone = MaterialRelationFunction(name=fn.fn_name)
            value_clone.kind = "database"
            memo[id(fn)] = value_clone
            value_clone._write_rows(
                [(key, _copy_value(value, memo)) for key, value in entries]
            )
            return value_clone
        db_clone = MaterialDatabaseFunction(name=fn.fn_name)
        memo[id(fn)] = db_clone
        # copy relations first so relationship participants can re-point
        deferred: list[tuple[str, FDMFunction]] = []
        for name, value in entries:
            if isinstance(value, RelationshipFunction):
                deferred.append((name, value))
            else:
                db_clone[name] = _copy_value(value, memo)
        for name, value in deferred:
            db_clone[name] = _copy_value(value, memo)
        return db_clone

    # relation-kind and anything else enumerable
    rel_clone = MaterialRelationFunction(
        name=fn.fn_name, key_name=getattr(fn, "key_name", None)
    )
    memo[id(fn)] = rel_clone
    writes = []
    entries = fn._entries() if isinstance(fn, RelationFunction) else fn.items()
    for key, value in entries:
        if isinstance(value, dict) or (
            isinstance(value, FDMFunction)
            and value.kind == "tuple"
            and value.is_enumerable
        ):
            # store plain attribute dicts so the copy is fully writable
            value = {attr: _copy_value(v, memo) for attr, v in value.items()}
        elif isinstance(value, FDMFunction):
            value = _copy_value(value, memo)
        writes.append((key, value))
    rel_clone._write_rows(writes)
    return rel_clone


def copy(fn: FDMFunction) -> FDMFunction:
    """§4.4's materialization marker: snapshot the contents of an FQL
    expression (equivalent to a deep copy, "with all the trade-offs known
    for traditional materialized views")."""
    return deep_copy(fn)


def materialize(fn: FDMFunction) -> FDMFunction:
    """Alias of :func:`deep_copy`, for readers coming from DBMS land."""
    return deep_copy(fn)
