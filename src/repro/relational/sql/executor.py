"""Executor: interpret parsed SQL against a dict of Relations.

The pipeline is the textbook one — FROM/JOIN build a working set of row
environments, WHERE filters in three-valued logic, GROUP BY (incl. GROUPING
SETS / ROLLUP / CUBE with NULL fill) folds, HAVING filters groups, SELECT
evaluates items, then DISTINCT / ORDER BY (NULLs last) / LIMIT shape the
single output relation. Equi-joins hash; everything else scans.
"""

from __future__ import annotations

import re
from typing import Any, Optional

from repro.errors import SQLExecutionError
from repro.relational.nulls import (
    NULL,
    UNKNOWN,
    is_null,
    sql_and,
    sql_compare,
    sql_not,
    sql_or,
    sql_truthy,
)
from repro.relational.relation import Relation
from repro.relational.sql.ast import (
    BetweenE,
    Bin,
    Cmp,
    Col,
    CreateTableStmt,
    DeleteStmt,
    DropTableStmt,
    FuncE,
    InE,
    InsertStmt,
    IsNull,
    JoinClause,
    LikeE,
    Lit,
    Logic,
    NotE,
    OrderItem,
    Param,
    SelectStmt,
    SetOpStmt,
    Star,
    TableRef,
    Unary,
    UpdateStmt,
)

__all__ = ["SQLExecutor"]

_AGG_NAMES = {"count", "sum", "avg", "min", "max"}
_SCALARS = {
    "upper": lambda v: NULL if is_null(v) else str(v).upper(),
    "lower": lambda v: NULL if is_null(v) else str(v).lower(),
    "length": lambda v: NULL if is_null(v) else len(v),
    "abs": lambda v: NULL if is_null(v) else abs(v),
}


class _Scope:
    """The working set: row envs with qualified keys + bare-name resolution."""

    def __init__(self) -> None:
        self.rows: list[dict[str, Any]] = []
        self.qualified: list[str] = []  # "binding.col" in order
        self.bare: dict[str, str | None] = {}  # col → qualified or None=ambiguous

    def add_columns(self, binding: str, columns: list[str]) -> None:
        for col in columns:
            qualified = f"{binding}.{col}"
            self.qualified.append(qualified)
            if col in self.bare:
                self.bare[col] = None
            else:
                self.bare[col] = qualified

    def resolve(self, col: Col) -> str:
        if col.qualifier is not None:
            key = f"{col.qualifier}.{col.name}"
            if key not in set(self.qualified):
                raise SQLExecutionError(f"unknown column {key!r}")
            return key
        target = self.bare.get(col.name, "__missing__")
        if target == "__missing__":
            raise SQLExecutionError(f"unknown column {col.name!r}")
        if target is None:
            raise SQLExecutionError(f"ambiguous column {col.name!r}")
        return target

    def output_name(self, qualified: str) -> str:
        col = qualified.split(".", 1)[1]
        return col if self.bare.get(col) == qualified else qualified


class SQLExecutor:
    """Interprets parsed statements against a name → Relation dict."""
    def __init__(self, tables: dict[str, Relation]):
        self.tables = tables

    # -- public entry -------------------------------------------------------------

    def execute(self, stmt: Any, params: tuple = ()) -> Any:
        if isinstance(stmt, (SelectStmt, SetOpStmt)):
            return self._select_any(stmt, params)
        if isinstance(stmt, InsertStmt):
            return self._insert(stmt, params)
        if isinstance(stmt, UpdateStmt):
            return self._update(stmt, params)
        if isinstance(stmt, DeleteStmt):
            return self._delete(stmt, params)
        if isinstance(stmt, CreateTableStmt):
            if stmt.table in self.tables:
                raise SQLExecutionError(f"table {stmt.table!r} exists")
            self.tables[stmt.table] = Relation(
                stmt.table, [c for c, _t in stmt.columns]
            )
            return 0
        if isinstance(stmt, DropTableStmt):
            if stmt.table not in self.tables:
                raise SQLExecutionError(f"no table {stmt.table!r}")
            del self.tables[stmt.table]
            return 0
        raise SQLExecutionError(f"cannot execute {stmt!r}")

    # -- SELECT ------------------------------------------------------------------

    def _select_any(self, stmt: Any, params: tuple) -> Relation:
        if isinstance(stmt, SetOpStmt):
            left = self._select_any(stmt.left, params)
            right = self._select_any(stmt.right, params)
            from repro.relational import algebra

            if stmt.op == "union":
                return algebra.union(left, right)
            if stmt.op == "intersect":
                return algebra.intersect(left, right)
            return algebra.except_(left, right)
        return self._select(stmt, params)

    def _table(self, name: str) -> Relation:
        try:
            return self.tables[name]
        except KeyError:
            raise SQLExecutionError(f"no table {name!r}") from None

    def _base_scope(self, ref: TableRef) -> _Scope:
        rel = self._table(ref.name)
        scope = _Scope()
        scope.add_columns(ref.binding, rel.columns)
        for row in rel.rows:
            scope.rows.append(
                {f"{ref.binding}.{c}": v for c, v in zip(rel.columns, row)}
            )
        return scope

    def _equi_pairs(
        self, on: Any, scope: _Scope, right_binding: str
    ) -> Optional[list[tuple[Col, Col]]]:
        """Extract `a = b` conjunctions where one side is the new table."""
        conjuncts = (
            on.parts if isinstance(on, Logic) and on.op == "and" else [on]
        )
        pairs: list[tuple[Col, Col]] = []
        for c in conjuncts:
            if not (
                isinstance(c, Cmp)
                and c.op in ("=", "==")
                and isinstance(c.left, Col)
                and isinstance(c.right, Col)
            ):
                return None
            left_is_new = c.left.qualifier == right_binding
            right_is_new = c.right.qualifier == right_binding
            if left_is_new == right_is_new:
                return None
            pairs.append(
                (c.right, c.left) if left_is_new else (c.left, c.right)
            )
        return pairs

    def _join(self, scope: _Scope, join: JoinClause, params: tuple) -> _Scope:
        rel = self._table(join.table.name)
        binding = join.table.binding
        right_rows = [
            {f"{binding}.{c}": v for c, v in zip(rel.columns, row)}
            for row in rel.rows
        ]
        out = _Scope()
        out.qualified = list(scope.qualified)
        out.bare = dict(scope.bare)
        out.add_columns(binding, rel.columns)

        if join.kind == "cross":
            for lrow in scope.rows:
                for rrow in right_rows:
                    out.rows.append({**lrow, **rrow})
            return out

        pairs = self._equi_pairs(join.on, scope, binding)
        null_right = {f"{binding}.{c}": NULL for c in rel.columns}
        matched_right: set[int] = set()

        def on_holds(env: dict) -> bool:
            return sql_truthy(self._eval(join.on, env, params, out))

        if pairs is not None:
            buckets: dict[tuple, list[int]] = {}
            right_keys = [f"{binding}.{b.name}" for _a, b in pairs]
            for j, rrow in enumerate(right_rows):
                key = tuple(rrow[k] for k in right_keys)
                if any(is_null(v) for v in key):
                    continue
                buckets.setdefault(key, []).append(j)
            left_cols = [a for a, _b in pairs]
            for lrow in scope.rows:
                try:
                    key = tuple(
                        lrow[scope.resolve(a)] for a in left_cols
                    )
                except SQLExecutionError:
                    key = None
                matches = (
                    buckets.get(key, [])
                    if key is not None and not any(is_null(v) for v in key)
                    else []
                )
                if matches:
                    for j in matches:
                        matched_right.add(j)
                        out.rows.append({**lrow, **right_rows[j]})
                elif join.kind in ("left", "full"):
                    out.rows.append({**lrow, **null_right})
        else:
            for lrow in scope.rows:
                any_match = False
                for j, rrow in enumerate(right_rows):
                    env = {**lrow, **rrow}
                    if on_holds(env):
                        any_match = True
                        matched_right.add(j)
                        out.rows.append(env)
                if not any_match and join.kind in ("left", "full"):
                    out.rows.append({**lrow, **null_right})
        if join.kind in ("right", "full"):
            null_left = {q: NULL for q in scope.qualified}
            for j, rrow in enumerate(right_rows):
                if j not in matched_right:
                    out.rows.append({**null_left, **rrow})
        return out

    def _select(self, stmt: SelectStmt, params: tuple) -> Relation:
        if stmt.table is None:
            # SELECT without FROM: single empty env
            scope = _Scope()
            scope.rows = [{}]
        else:
            scope = self._base_scope(stmt.table)
            for join in stmt.joins:
                scope = self._join(scope, join, params)

        rows = scope.rows
        if stmt.where is not None:
            rows = [
                env
                for env in rows
                if sql_truthy(self._eval(stmt.where, env, params, scope))
            ]

        has_aggs = any(
            self._contains_aggregate(item.expr) for item in stmt.items
        ) or (stmt.having is not None)

        # produced: (order_env, group_rows, output_values) triples so that
        # ORDER BY can reference source columns the projection dropped
        if stmt.group is not None:
            produced, columns = self._grouped_select(
                stmt, rows, scope, params
            )
        elif has_aggs:
            env = {"__rows__": rows}
            values, columns = self._eval_items(
                stmt.items, env, rows, scope, params
            )
            produced = [(env, rows, tuple(values))]
        else:
            produced = []
            columns = None
            for env in rows:
                values, columns = self._eval_items(
                    stmt.items, env, None, scope, params
                )
                produced.append((env, None, tuple(values)))
            if columns is None:
                _probe, columns = self._eval_items(
                    stmt.items, {}, None, scope, params, probe=True
                )

        if stmt.order:
            produced = self._order(produced, stmt.order, scope, params)

        out = Relation("result", _uniquify(columns or ["?"]))
        out.rows = [values for _env, _rows, values in produced]
        if stmt.distinct:
            out = out.distinct()
        if stmt.limit is not None:
            out.rows = out.rows[: stmt.limit]
        return out

    def _grouped_select(
        self,
        stmt: SelectStmt,
        rows: list[dict],
        scope: _Scope,
        params: tuple,
    ) -> tuple[list[tuple], list[str]]:
        group = stmt.group
        assert group is not None
        if group.mode == "plain":
            sets = [group.sets[0]]
        elif group.mode == "sets":
            sets = group.sets
        elif group.mode == "rollup":
            base = group.sets[0]
            sets = [base[:n] for n in range(len(base), -1, -1)]
        else:  # cube
            base = group.sets[0]
            n = len(base)
            sets = [
                [base[i] for i in range(n) if mask & (1 << i)]
                for mask in range((1 << n) - 1, -1, -1)
            ]

        all_group_exprs: list = []
        seen_labels: set[str] = set()
        for s in sets:
            for e in s:
                label = self._label(e)
                if label not in seen_labels:
                    seen_labels.add(label)
                    all_group_exprs.append(e)

        produced: list[tuple] = []
        columns: list[str] | None = None
        multi = len(sets) > 1
        for set_index, group_exprs in enumerate(sets):
            labels = {self._label(e) for e in group_exprs}
            groups: dict[tuple, list[dict]] = {}
            order: list[tuple] = []
            for env in rows:
                key = tuple(
                    self._eval(e, env, params, scope) for e in group_exprs
                )
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(env)
            if not rows and not group_exprs:
                groups[()] = []
                order.append(())
            for key in order:
                member_rows = groups[key]
                group_env = dict(member_rows[0]) if member_rows else {}
                # NULL out grouping columns not in this set (GROUPING SETS)
                if multi:
                    for e in all_group_exprs:
                        if self._label(e) not in labels and isinstance(e, Col):
                            group_env[scope.resolve(e)] = NULL
                for e, v in zip(group_exprs, key):
                    if isinstance(e, Col):
                        group_env[scope.resolve(e)] = v
                if stmt.having is not None:
                    verdict = self._eval(
                        stmt.having, group_env, params, scope,
                        group_rows=member_rows,
                    )
                    if not sql_truthy(verdict):
                        continue
                values, columns = self._eval_items(
                    stmt.items, group_env, member_rows, scope, params
                )
                if multi:
                    grouping_id = 0
                    for i, e in enumerate(all_group_exprs):
                        if self._label(e) not in labels:
                            grouping_id |= 1 << i
                    values = values + [grouping_id]
                produced.append((group_env, member_rows, tuple(values)))
        if columns is not None and multi:
            columns = columns + ["grouping_id"]
        return produced, columns or []

    def _eval_items(
        self,
        items: list,
        env: dict,
        group_rows: Optional[list[dict]],
        scope: _Scope,
        params: tuple,
        probe: bool = False,
    ) -> tuple[list[Any], list[str]]:
        values: list[Any] = []
        columns: list[str] = []
        for item in items:
            if isinstance(item.expr, Star):
                for qualified in scope.qualified:
                    if (
                        item.expr.qualifier is not None
                        and not qualified.startswith(
                            item.expr.qualifier + "."
                        )
                    ):
                        continue
                    columns.append(scope.output_name(qualified))
                    values.append(NULL if probe else env.get(qualified, NULL))
                continue
            columns.append(item.alias or self._label(item.expr))
            values.append(
                NULL
                if probe
                else self._eval(
                    item.expr, env, params, scope, group_rows=group_rows
                )
            )
        return values, columns

    def _order(
        self,
        produced: list[tuple],
        order: list[OrderItem],
        scope: _Scope,
        params: tuple,
    ) -> list[tuple]:
        def sort_key(triple: tuple):
            env, group_rows, _values = triple
            parts = []
            for item in order:
                try:
                    value = self._eval(
                        item.expr, env, params, scope, group_rows=group_rows
                    )
                except SQLExecutionError:
                    value = NULL
                null_rank = 1 if is_null(value) else 0
                token = _Comparable(value)
                parts.append(
                    (null_rank, token.negate() if item.descending else token)
                )
            return tuple(parts)

        return sorted(produced, key=sort_key)

    # -- expression evaluation -----------------------------------------------------

    def _contains_aggregate(self, expr: Any) -> bool:
        if isinstance(expr, FuncE) and expr.name in _AGG_NAMES:
            return True
        for child_name in ("left", "right", "operand", "lo", "hi", "pattern"):
            child = getattr(expr, child_name, None)
            if child is not None and self._contains_aggregate(child):
                return True
        for many in ("parts", "args", "values"):
            for child in getattr(expr, many, ()) or ():
                if self._contains_aggregate(child):
                    return True
        return False

    def _label(self, expr: Any) -> str:
        if isinstance(expr, Col):
            return expr.name
        if isinstance(expr, FuncE):
            inner = "*" if expr.star else ",".join(
                self._label(a) for a in expr.args
            )
            return f"{expr.name}({inner})"
        if isinstance(expr, Lit):
            return repr(expr.value)
        return type(expr).__name__.lower()

    def _eval(
        self,
        expr: Any,
        env: dict,
        params: tuple,
        scope: Optional[_Scope],
        group_rows: Optional[list[dict]] = None,
    ) -> Any:
        if isinstance(expr, Lit):
            return expr.value
        if isinstance(expr, Param):
            try:
                value = params[expr.index]
            except IndexError:
                raise SQLExecutionError(
                    f"missing parameter #{expr.index + 1}"
                ) from None
            return NULL if value is None else value
        if isinstance(expr, Col):
            if scope is not None:
                return env.get(scope.resolve(expr), NULL)
            key = expr.label()
            if key in env:
                return env[key]
            if expr.name in env:
                return env[expr.name]
            raise SQLExecutionError(f"unknown column {key!r}")
        if isinstance(expr, Unary):
            value = self._eval(expr.operand, env, params, scope, group_rows)
            return NULL if is_null(value) else -value
        if isinstance(expr, Bin):
            left = self._eval(expr.left, env, params, scope, group_rows)
            right = self._eval(expr.right, env, params, scope, group_rows)
            if is_null(left) or is_null(right):
                return NULL
            try:
                return {
                    "+": lambda a, b: a + b,
                    "-": lambda a, b: a - b,
                    "*": lambda a, b: a * b,
                    "/": lambda a, b: a / b,
                    "%": lambda a, b: a % b,
                }[expr.op](left, right)
            except (ZeroDivisionError, TypeError) as exc:
                raise SQLExecutionError(str(exc)) from exc
        if isinstance(expr, Cmp):
            return sql_compare(
                expr.op,
                self._eval(expr.left, env, params, scope, group_rows),
                self._eval(expr.right, env, params, scope, group_rows),
            )
        if isinstance(expr, Logic):
            result = None
            for part in expr.parts:
                value = self._eval(part, env, params, scope, group_rows)
                if result is None:
                    result = value
                elif expr.op == "and":
                    result = sql_and(result, value)
                else:
                    result = sql_or(result, value)
            return result
        if isinstance(expr, NotE):
            return sql_not(
                self._eval(expr.operand, env, params, scope, group_rows)
            )
        if isinstance(expr, IsNull):
            value = self._eval(expr.operand, env, params, scope, group_rows)
            holds = is_null(value)
            return (not holds) if expr.negated else holds
        if isinstance(expr, InE):
            needle = self._eval(expr.operand, env, params, scope, group_rows)
            if is_null(needle):
                return UNKNOWN
            found = False
            saw_null = False
            for value_expr in expr.values:
                value = self._eval(value_expr, env, params, scope, group_rows)
                if is_null(value):
                    saw_null = True
                elif value == needle:
                    found = True
                    break
            if found:
                return sql_not(True) if expr.negated else True
            if saw_null:
                return UNKNOWN
            return sql_not(False) if expr.negated else False
        if isinstance(expr, BetweenE):
            value = self._eval(expr.operand, env, params, scope, group_rows)
            lo = self._eval(expr.lo, env, params, scope, group_rows)
            hi = self._eval(expr.hi, env, params, scope, group_rows)
            verdict = sql_and(
                sql_compare(">=", value, lo), sql_compare("<=", value, hi)
            )
            return sql_not(verdict) if expr.negated else verdict
        if isinstance(expr, LikeE):
            value = self._eval(expr.operand, env, params, scope, group_rows)
            pattern = self._eval(expr.pattern, env, params, scope, group_rows)
            if is_null(value) or is_null(pattern):
                return UNKNOWN
            regex = "^" + re.escape(str(pattern)).replace(
                "%", ".*"
            ).replace("_", ".") + "$"
            holds = re.match(regex, str(value)) is not None
            return (not holds) if expr.negated else holds
        if isinstance(expr, FuncE):
            if expr.name in _SCALARS:
                if len(expr.args) != 1:
                    raise SQLExecutionError(
                        f"{expr.name}() takes one argument"
                    )
                return _SCALARS[expr.name](
                    self._eval(expr.args[0], env, params, scope, group_rows)
                )
            rows = group_rows if group_rows is not None else env.get("__rows__")
            if rows is None:
                raise SQLExecutionError(
                    f"aggregate {expr.name}() outside GROUP BY context"
                )
            if expr.star:
                return len(rows)
            arg = expr.args[0]
            values = [
                self._eval(arg, member, params, scope) for member in rows
            ]
            values = [v for v in values if not is_null(v)]
            if expr.distinct:
                values = list(dict.fromkeys(values))
            if expr.name == "count":
                return len(values)
            if not values:
                return NULL
            if expr.name == "sum":
                return sum(values)
            if expr.name == "avg":
                return sum(values) / len(values)
            if expr.name == "min":
                return min(values)
            return max(values)
        raise SQLExecutionError(f"cannot evaluate {expr!r}")

    # -- DML ------------------------------------------------------------------------

    def _insert(self, stmt: InsertStmt, params: tuple) -> int:
        rel = self._table(stmt.table)
        columns = stmt.columns or rel.columns
        unknown = [c for c in columns if c not in rel.columns]
        if unknown:
            raise SQLExecutionError(
                f"unknown column(s) {unknown} in INSERT"
            )
        count = 0
        for row_exprs in stmt.rows:
            if len(row_exprs) != len(columns):
                raise SQLExecutionError(
                    "INSERT arity mismatch: "
                    f"{len(row_exprs)} values for {len(columns)} columns"
                )
            provided = {
                c: self._eval(e, {}, params, None)
                for c, e in zip(columns, row_exprs)
            }
            rel.append([provided.get(c, NULL) for c in rel.columns])
            count += 1
        return count

    def _update(self, stmt: UpdateStmt, params: tuple) -> int:
        rel = self._table(stmt.table)
        for column, _expr in stmt.assignments:
            rel.column_index(column)  # validate
        count = 0
        new_rows = []
        for row in rel.rows:
            env = rel.row_dict(row)
            if stmt.where is None or sql_truthy(
                self._eval(stmt.where, env, params, None)
            ):
                updated = dict(env)
                for column, expr in stmt.assignments:
                    updated[column] = self._eval(expr, env, params, None)
                new_rows.append(tuple(updated[c] for c in rel.columns))
                count += 1
            else:
                new_rows.append(row)
        rel.rows = new_rows
        return count

    def _delete(self, stmt: DeleteStmt, params: tuple) -> int:
        rel = self._table(stmt.table)
        kept = []
        count = 0
        for row in rel.rows:
            env = rel.row_dict(row)
            if stmt.where is None or sql_truthy(
                self._eval(stmt.where, env, params, None)
            ):
                count += 1
            else:
                kept.append(row)
        rel.rows = kept
        return count


def _uniquify(columns: list[str]) -> list[str]:
    """SQL tolerates duplicate output labels; our Relation does not —
    suffix repeats (name, name_2, ...)."""
    seen: dict[str, int] = {}
    out = []
    for c in columns:
        n = seen.get(c, 0) + 1
        seen[c] = n
        out.append(c if n == 1 else f"{c}_{n}")
    return out


class _Comparable:
    """Sort token that never raises on mixed types and can invert order."""

    __slots__ = ("value", "sign")

    def __init__(self, value: Any, sign: int = 1):
        self.value = value
        self.sign = sign

    def negate(self) -> "_Comparable":
        return _Comparable(self.value, -self.sign)

    def __lt__(self, other: "_Comparable") -> bool:
        a, b = self.value, other.value
        if is_null(a) or is_null(b):
            return False
        try:
            verdict = a < b
        except TypeError:
            verdict = str(type(a)) < str(type(b))
        return verdict if self.sign > 0 else not verdict and a != b

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, _Comparable) and (
            self.value == other.value
        )
