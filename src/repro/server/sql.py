"""The SQL verb's translation: a SELECT becomes a function graph
(DESIGN.md §11).

SQL is one more costume over the FQL pipeline. FROM reads the session's
database view and the key column is the mapping key; WHERE becomes a
transparent predicate whose ``?`` bind as literals, as FQL's ``$params``
do; GROUP BY becomes ``group_and_aggregate``, ORDER BY and LIMIT
``order_by`` and ``limit``; the select list is read off the answer rows
when the reply is built. Where SQL NULL and FDM undefined disagree, a
guard gives SQL's answer; anything without an exact translation is a
typed :class:`~repro.errors.SQLExecutionError` naming it.
"""

from __future__ import annotations

import functools
from typing import Any

from repro import fql
from repro.errors import SQLExecutionError
from repro.exec.batch import ColumnBatch
from repro.predicates.ast import (
    And, AttrRef, Comparison, FalsePredicate, KeyRef, Literal, Membership,
    Not, Or, Predicate, TruePredicate,
)
from repro.relational.nulls import is_null
from repro.relational.sql import ast as q
from repro.relational.sql.parser import parse_sql
from repro.server import protocol
from repro.server.session import FQL_CACHE_SIZE

__all__ = ["Translation"]

#: Each distinct SELECT text parsed once (LRU; a parse error is raised
#: on every call, never cached): a translation only reads the tree.
_parse = functools.lru_cache(maxsize=FQL_CACHE_SIZE)(parse_sql)

_FOLDS = {"count": fql.Count, "sum": fql.Sum, "avg": fql.Avg,
          "min": fql.Min, "max": fql.Max}
_NONE = Literal(None)


def _decline(construct: str) -> SQLExecutionError:
    return SQLExecutionError(f"the SQL verb does not translate {construct}")


class Translation:
    """One SELECT as a function graph over the database *view*, plus
    what its reply reads off the answer rows."""

    def __init__(self, view: Any, text: str, params: list):
        stmt = _parse(text)
        if isinstance(stmt, q.SetOpStmt):
            raise _decline(stmt.op.upper())
        if not isinstance(stmt, q.SelectStmt):
            raise SQLExecutionError("the SQL verb is read-only (SELECT); "
                                    "route writes through the DML verb")
        for present, construct in (
            (stmt.table is None, "SELECT without FROM"),
            (stmt.joins, "JOIN"), (stmt.distinct, "DISTINCT"),
            (stmt.having is not None, "HAVING"),
        ):
            if present:
                raise _decline(construct)
        self.params, self.binding = params, stmt.table.binding
        if not view.defined_at(stmt.table.name):
            raise SQLExecutionError(f"no table {stmt.table.name!r}")
        graph = view(stmt.table.name)
        self.key = getattr(graph, "key_name", None) or "_key"
        if isinstance(self.key, tuple):
            raise _decline("a table with a composite key")
        if stmt.where is not None:
            graph = fql.filter(graph, self._holds(stmt.where, True))
        self.filtered, self.aggs, self.by = graph, {}, None
        if stmt.group is not None or any(
            isinstance(item.expr, q.FuncE) and item.expr.name in _FOLDS
            for item in stmt.items
        ):
            group = stmt.group or q.GroupSpec([[]])
            if group.mode != "plain":
                raise _decline("GROUPING SETS, ROLLUP or CUBE")
            self.by = [self._attr(column, None) for column in group.sets[0]]
        self.items = [self._output(item) for item in stmt.items]
        if self.by is not None:  # "#n" feeds the NULL-group guard
            graph = fql.group_and_aggregate(
                by=self.by, input=graph, **self.aggs, **{"#n": fql.Count()}
            )
        self.order = [self._attr(o.expr, self.by) for o in stmt.order]
        if len({o.descending for o in stmt.order}) > 1:
            raise _decline("mixed ORDER BY directions")
        if self.order:
            key = self.order if len(self.order) > 1 else self.order[0]
            graph = fql.order_by(graph, key, stmt.order[0].descending)
        # the NULL guards must see every row the limit would cut, except
        # that one sort column puts any NULL key first (see DESIGN.md)
        self.limit = stmt.limit
        if self.by is None and len(self.order) < 2 and self.limit is not None:
            graph, self.limit = fql.limit(graph, self.limit), None
        self.graph = graph

    def _holds(self, e: Any, truth: bool) -> Predicate:
        """Rows where SQL's three-valued *e* is TRUE (FALSE when *truth*
        is false): NOT flips the polarity, and NULL satisfies neither."""
        if isinstance(e, q.Logic):
            parts = [self._holds(part, truth) for part in e.parts]
            return And(*parts) if (e.op == "and") == truth else Or(*parts)
        if isinstance(e, q.NotE):
            return self._holds(e.operand, not truth)
        if isinstance(e, q.BetweenE):
            both = q.Logic("and", [q.Cmp(">=", e.operand, e.lo),
                                   q.Cmp("<=", e.operand, e.hi)])
            return self._holds(both, truth != e.negated)
        if isinstance(e, q.IsNull):
            item, wanted = self._operand(e.operand), truth != e.negated
            if item is None or isinstance(item, Literal):
                holds = (item is None) == wanted
                return TruePredicate() if holds else FalsePredicate()
            if wanted:  # FDM has no predicate that selects "undefined"
                raise _decline("IS NULL over a column")
            return Comparison("!=", item, _NONE)
        if isinstance(e, q.Cmp):
            left, right = self._operand(e.left), self._operand(e.right)
            if left is None or right is None:
                return FalsePredicate()  # a comparison with NULL: UNKNOWN
            test, guards = Comparison(e.op, left, right), _defined(left, right)
            if not truth:  # both defined, neither None, the test fails
                return And(Not(test), *guards)
            if test.op == "!=" or test.op == "==" and len(guards) == 2:
                return And(test, *guards)
            return test  # None fails == against a value, and every order
        if isinstance(e, q.InE):
            item = self._operand(e.operand)
            values = [self._value(value) for value in e.values]
            if item is None or truth == e.negated and None in values:
                return FalsePredicate()  # NULL IN …, x NOT IN (…, NULL)
            known = Literal(tuple(  # NaN equals nothing, NULL is no value
                v for v in values if v is not None and v == v))
            if truth != e.negated:
                return Membership(item, known)
            return And(Membership(item, known, negated=True), *_defined(item))
        raise _decline("LIKE" if isinstance(e, q.LikeE) else "this WHERE term")

    def _operand(self, e: Any) -> Any:
        # a column as a reference, a constant as a literal, NULL as None
        if isinstance(e, q.Col):
            attr = self._column(e)
            return KeyRef() if attr is None else AttrRef(attr)
        value = self._value(e)
        return None if value is None else Literal(value)

    def _value(self, e: Any) -> Any:
        # a constant's value, None for NULL; ? binds positionally
        if isinstance(e, q.Unary):
            value = self._value(e.operand)
            if value is None or isinstance(value, (int, float)):
                return None if value is None else -value
        if isinstance(e, q.Lit):
            return None if is_null(e.value) else e.value
        if isinstance(e, q.Param):
            if e.index >= len(self.params):
                raise SQLExecutionError(f"missing parameter #{e.index + 1}")
            return self.params[e.index]
        raise _decline("arithmetic or functions outside the select list")

    def _column(self, e: q.Col) -> str | None:
        # the attribute a column names; None for the key column
        if e.qualifier not in (None, self.binding):
            raise SQLExecutionError(f"unknown column {e.label()!r}")
        return None if e.name == self.key else e.name

    def _attr(self, e: Any, by: list | None) -> str:
        # a GROUP BY or ORDER BY column, grouped when *by* is set: FDM
        # groups and orders by attributes, never by the key
        if not isinstance(e, q.Col) or self._column(e) is None:
            raise _decline("GROUP BY or ORDER BY an expression or the key")
        if by is not None and e.name not in by:
            raise _decline("ORDER BY a column outside GROUP BY")
        return e.name

    def _output(self, item: q.SelectItem) -> tuple[str, Any] | None:
        # (label, read) of one select item, None for *: read is the
        # attribute to read off an answer row (None: its key), or a
        # read(key, row) of the hidden aggregates
        e, grouped = item.expr, self.by is not None
        if isinstance(e, q.Star) and not grouped and (
            e.qualifier in (None, self.binding)
        ):
            return None
        if isinstance(e, q.Col) and (not grouped or e.name in self.by):
            return item.alias or e.name, self._column(e)
        if not (grouped and isinstance(e, q.FuncE) and e.name in _FOLDS):
            raise _decline("this select item (arithmetic, a function, or "
                           "a column outside GROUP BY)")
        arg = None if e.star else e.args[0] if len(e.args) == 1 else e
        if e.distinct or not (arg is None or isinstance(arg, q.Col)):
            raise _decline("an aggregate over DISTINCT or an expression")
        attr = None if arg is None else self._column(arg)
        if attr is None and e.name != "count":
            raise _decline("an aggregate over the key column")
        label = item.alias or f"{e.name}({'*' if arg is None else arg.name})"
        fold = self._fold(_FOLDS[e.name](attr) if attr else fql.Count())
        if e.name == "sum":  # SUM over no value is NULL, not 0
            n = self._fold(fql.Count(attr))
            return label, lambda key, row: None if row[n] == 0 else row[fold]
        if e.name != "count" or attr is None:
            return label, lambda key, row: row[fold]
        top = self._fold(fql.Max(attr))  # None only if a None was counted

        def count(key: Any, row: dict) -> int:
            if row[fold] and row[top] is None:
                raise _decline("COUNT over a NULL value")
            return row[fold]

        return label, count

    def _fold(self, aggregate: Any) -> str:
        # register a hidden aggregate; its output attribute reads it back
        name = f"#{len(self.aggs)}"
        self.aggs[name] = aggregate
        return name

    def reply(self) -> dict[str, list]:
        """Drain the graph once into ``{"columns": [...], "rows": [...]}``."""
        rows = []
        try:
            with protocol.relation_batches(self.graph) as batches:
                for batch in batches:
                    if type(batch) is ColumnBatch:  # committed row dicts
                        batch = zip(batch.keys, batch.rows)
                    for key, value in batch:
                        if type(value) is not dict:
                            if getattr(value, "kind", None) != "tuple":
                                continue  # a nested function: no row shape
                            value = dict(value.items())
                        rows.append((key, value))
        except TypeError as exc:  # a fold met None or mixed types
            raise _decline(f"an aggregate over NULL or mixed types ({exc})")
        if self.by and (
            any(row[a] is None for _key, row in rows for a in self.by)
            or sum(row["#n"] for _key, row in rows) != len(self.filtered)
        ):
            raise _decline("a NULL group (GROUP BY over NULL or undefined)")
        if self.by == [] and not rows:  # SQL folds no rows into one
            rows = [((), {n: a.compute(()) for n, a in self.aggs.items()})]
        if any(row.get(a) is None for _key, row in rows for a in self.order):
            raise _decline("ORDER BY over a NULL sort key")
        if self.limit is not None:
            rows = rows[: self.limit]
        items = []
        for item in self.items:  # * is the key, then attributes as met
            if item is not None:
                items.append(item)
                continue
            names = dict.fromkeys(
                a for _key, row in rows for a in row if a != self.key)
            items.append((self.key, None))
            items += [(name, name) for name in names]
        labels = [label for label, _read in items]
        columns = [  # a repeated label is suffixed: name, name_2, …
            f"{label}_{n + 1}" if (n := labels[:i].count(label)) else label
            for i, label in enumerate(labels)
        ]
        encode, scalars = protocol.encode_value, protocol._SCALARS
        cut = []  # the reply column by column; NULL where undefined
        for _label, read in items:
            if read is None:
                column = [key for key, _row in rows]
            elif callable(read):
                column = [read(key, row) for key, row in rows]
            else:
                column = [row.get(read) for _key, row in rows]
            if not scalars.issuperset(map(type, column)):
                column = [v if type(v) in scalars else encode(v)
                          for v in column]
            cut.append(column)
        return {"columns": columns, "rows": [list(row) for row in zip(*cut)]}


def _defined(*operands: Any) -> list:
    # guards dropping rows where a column operand is None (SQL NULL)
    return [Comparison("!=", x, _NONE) for x in operands
            if not isinstance(x, Literal)]
