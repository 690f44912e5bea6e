"""The FQL-graph-to-SQL compiler behind the offload backend.

Two stages, both total functions that either succeed or raise
:class:`Unsupported` (never a wrong answer):

1. :func:`parse_graph` — structural: walks an *optimized* derived
   function graph and either recognizes the offloadable grammar
   (``Wrap* Core``, where ``Wrap`` is a limit or a key-preserving map,
   and ``Core`` is an ordered/filtered scan or a fused
   group-aggregate over a filtered scan, rooted at one stored
   relation) or declines.
2. :func:`generate_sql` — semantic: emits SQLite SQL against a synced
   :class:`~repro.compile.mirror.TableMirror`, consulting the mirror's
   per-column hostility profiles and declining any operation whose SQL
   semantics would diverge from the naive Python interpretation.

The semantic contract is *bit-identical results in the naive
enumeration order* — the same bar the batched executor's differential
suites pin. Divergence risks and their treatments:

* **undefined vs present** — FDM distinguishes a tuple without
  ``bonus`` from one with ``bonus = None``; SQL has only NULL. Every
  predicate compiles to a three-valued expression ``E ∈ {1, 0, NULL}``
  with NULL ⇔ *undefined* (presence column = 0), so ``NOT`` can map
  undefined to false exactly like the AST's ``_Undefined`` handling.
* **cross-type comparisons** — Python raises ``TypeError`` (→ false);
  SQLite orders storage classes (``1 < 'a'`` is true). Ordered
  comparisons carry ``typeof()`` guards; equality needs none (distinct
  storage classes are unequal in both worlds).
* **NaN** — binds as NULL, so NaN-bearing columns decline the
  operations where NULL-collapse with None would show.
* **order/grouping fidelity** — ORDER BY compiles a rank term
  reproducing the ``_SortKey`` undefined-last rule with ``ord`` as the
  stability tiebreak; GROUP BY groups on mirror columns but decodes
  each group key from its first member row, so result *objects* (bools
  vs ints, int vs float) are exactly Python's.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro._util import MISSING
from repro.fql.aggregates import Avg, Count, Max, Min, Sum
from repro.fql.filter import FilteredFunction
from repro.fql.group import GroupBy
from repro.fql.order import LimitedFunction, OrderedFunction
from repro.fql.project import MappedFunction
from repro.optimizer.physical import (
    FusedGroupAggregateFunction,
    IndexLookupFunction,
    KeyLookupFunction,
)
from repro.predicates.ast import (
    And,
    AttrRef,
    Between,
    Comparison,
    FalsePredicate,
    Literal,
    Membership,
    Not,
    Or,
    Predicate,
    TruePredicate,
    _FLIP_OP,
)
from repro.storage.relation import StoredRelationFunction

__all__ = ["Unsupported", "QueryShape", "CompiledQuery", "parse_graph",
           "generate_sql"]

_INT64_LIMIT = 2**63

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_SQL_OP = {"==": "=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class Unsupported(Exception):
    """A graph shape or column profile the compiler declines.

    *slug* is a short stable bucket for the fallback counters;
    *detail* is the human-readable reason shown by ``explain()``.
    Declining is always safe — the caller falls back to the batched
    executor, which the differential suites pin against naive.
    """

    def __init__(self, slug: str, detail: str | None = None):
        super().__init__(detail or slug)
        self.slug = slug
        self.detail = detail or slug


class QueryShape:
    """The structural parse of an offloadable graph (stage 1 output)."""

    def __init__(
        self,
        relation: StoredRelationFunction,
        filters: list[Predicate],
        order: tuple[Any, bool] | None,
        limit: int | None,
        fused: FusedGroupAggregateFunction | None,
        transforms: list[Callable[[Any, Any], Any]],
    ):
        self.relation = relation
        self.table_name = relation.table_name
        self.filters = filters
        #: ``(key spec, reverse)`` of an ORDER BY, or ``None``.
        self.order = order
        self.limit = limit
        #: The fused group-aggregate core, or ``None`` for a row query.
        self.fused = fused
        #: Map transforms above the core, outermost first.
        self.transforms = transforms


class CompiledQuery:
    """One executable SQL statement plus its decode plan (stage 2)."""

    def __init__(
        self,
        sql: str,
        params: list,
        kind: str,
        decoders: list[tuple[str, int, Callable[..., Any]]],
        signature: tuple,
    ):
        self.sql = sql
        self.params = params
        #: ``"rows"`` (SELECT ord) or ``"aggregate"`` (grouped fold).
        self.kind = kind
        #: Per-aggregate ``(name, sql column count, cols -> acc)``.
        self.decoders = decoders
        #: The mirror column-profile signature this SQL was compiled
        #: against; a post-resync mismatch forces recompilation.
        self.signature = signature


# ---------------------------------------------------------------------------
# Stage 1: structural parse
# ---------------------------------------------------------------------------


def parse_graph(optimized: Any) -> QueryShape:
    """Recognize the offloadable grammar in *optimized*, or decline."""
    node = optimized
    transforms: list[Callable[[Any, Any], Any]] = []
    limit: int | None = None
    while True:
        if isinstance(node, LimitedFunction):
            n = node._n
            limit = n if limit is None else min(limit, n)
            node = node.source
        elif isinstance(node, MappedFunction):
            transforms.append(node._transform)
            node = node.source
        else:
            break

    order: tuple[Any, bool] | None = None
    if isinstance(node, OrderedFunction):
        spec = node._key_spec
        if callable(spec):
            raise Unsupported("callable_sort_key", "order_by with a callable")
        order = (spec, node._reverse)
        node = node.source

    filters: list[Predicate] = []

    def collect_filters(node: Any) -> Any:
        while isinstance(node, FilteredFunction):
            predicate = node.predicate
            if not predicate.is_transparent:
                raise Unsupported("opaque_predicate", "lambda predicate")
            if predicate.references_key():
                raise Unsupported(
                    "key_predicate", "predicate references __key__"
                )
            filters.append(predicate)
            node = node.source
        return node

    node = collect_filters(node)

    fused: FusedGroupAggregateFunction | None = None
    if isinstance(node, FusedGroupAggregateFunction):
        if order is not None or filters:
            raise Unsupported(
                "operators_above_aggregate",
                "order/filter above a fused aggregate",
            )
        if node._by.fn is not None:
            raise Unsupported("callable_group_by", "group by a callable")
        fused = node
        node = collect_filters(node.source)

    if isinstance(node, (KeyLookupFunction, IndexLookupFunction)):
        raise Unsupported("point_lookup", f"{node.op_name} core")
    if not isinstance(node, StoredRelationFunction):
        raise Unsupported(
            "unsupported_core",
            f"{getattr(node, 'op_name', type(node).__name__)} core",
        )
    return QueryShape(node, filters, order, limit, fused, transforms)


# ---------------------------------------------------------------------------
# Stage 2: SQL generation against a synced mirror
# ---------------------------------------------------------------------------


def generate_sql(shape: QueryShape, mirror: Any) -> CompiledQuery:
    """Emit the SQL (SQLite dialect) + decode plan for *shape* over
    *mirror*, or decline."""
    params: list = []
    where: list[str] = []
    for predicate in shape.filters:
        expr = _predicate(predicate, mirror, params)
        where.append(f"COALESCE({expr}, 0)")

    if shape.fused is not None:
        return _aggregate_query(shape, mirror, where, params)
    return _row_query(shape, mirror, where, params)


def _row_query(
    shape: QueryShape, mirror: Any, where: list[str], params: list
) -> CompiledQuery:
    if shape.order is not None:
        order_terms = _order_terms(shape.order, mirror)
    else:
        order_terms = ["ord ASC"]
    sql = f'SELECT ord FROM "{mirror.sql_name}"'
    if where:
        sql += " WHERE " + " AND ".join(where)
    sql += " ORDER BY " + ", ".join(order_terms)
    if shape.limit is not None:
        sql += f" LIMIT {int(shape.limit)}"
    return CompiledQuery(sql, params, "rows", [], mirror.signature())


def _aggregate_query(
    shape: QueryShape, mirror: Any, where: list[str], params: list
) -> CompiledQuery:
    fused = shape.fused
    assert fused is not None
    group_cols: list[str] = []
    for attr in fused._by.attrs or ():
        idx = mirror.column(attr)
        if idx is None:
            # every row lacks the grouping attribute: no groups at all
            where.append("0")
            continue
        profile = mirror.profiles[attr]
        if not profile.storable:
            raise Unsupported("hostile_column", f"group column {attr!r}")
        if not profile.allows_group:
            raise Unsupported("nan_group_key", f"group column {attr!r}")
        # rows not defining the attribute fall out of every group,
        # and present-None groups separately from absent (p = 0)
        where.append(f"p{idx} = 1")
        group_cols.append(f"c{idx}")

    select = ["MIN(ord)", "COUNT(*)"]
    decoders: list[tuple[str, int, Callable[..., Any]]] = []
    for name, agg in fused._aggs.items():
        parts, decoder = _aggregate_parts(name, agg, mirror)
        select.extend(parts)
        decoders.append((name, len(parts), decoder))

    sql = f'SELECT {", ".join(select)} FROM "{mirror.sql_name}"'
    if where:
        sql += " WHERE " + " AND ".join(where)
    if group_cols:
        sql += " GROUP BY " + ", ".join(group_cols)
    else:
        # a global aggregate over zero rows yields one SQL row but zero
        # Python groups; the count guard drops it
        sql += " HAVING COUNT(*) > 0"
    sql += " ORDER BY MIN(ord)"
    if shape.limit is not None:
        sql += f" LIMIT {int(shape.limit)}"
    return CompiledQuery(sql, params, "aggregate", decoders, mirror.signature())


def _aggregate_parts(
    name: str, agg: Any, mirror: Any
) -> tuple[list[str], Callable[..., Any]]:
    """(SQL select expressions, cols → Python fold accumulator)."""
    if type(agg) not in (Count, Sum, Avg, Min, Max):
        raise Unsupported("unsupported_aggregate", f"{type(agg).__name__}")
    attr = agg.attr
    if attr is None:
        if type(agg) is Count:
            return ["COUNT(*)"], lambda cols: int(cols[0])
        raise Unsupported("unsupported_aggregate", f"bare {type(agg).__name__}")
    if not isinstance(attr, str):
        raise Unsupported("callable_aggregate", f"{name} over a callable")

    idx = mirror.column(attr)
    if idx is None:
        # the attribute exists on no row: every tuple contributes
        # MISSING, so the fold never leaves its seed
        if type(agg) is Count:
            return [], lambda: 0
        if type(agg) is Sum:
            return [], lambda: 0
        if type(agg) is Avg:
            return [], lambda: (0, 0)
        return [], lambda: MISSING  # Min / Max

    profile = mirror.profiles[attr]
    if not profile.storable:
        raise Unsupported("hostile_column", f"aggregate column {attr!r}")
    if type(agg) is Count:
        # count-present: the presence column sums to exactly the number
        # of contributing tuples, whatever the values are
        return (
            [f"COALESCE(SUM(p{idx}), 0)"],
            lambda cols: int(cols[0]),
        )
    if type(agg) in (Sum, Avg):
        if not profile.allows_sum:
            raise Unsupported("unsummable_column", f"{name} over {attr!r}")
        if type(agg) is Sum:
            return (
                [f"SUM(c{idx})"],
                lambda cols: cols[0] if cols[0] is not None else 0,
            )
        return (
            [f"SUM(c{idx})", f"COUNT(c{idx})"],
            lambda cols: (
                cols[0] if cols[0] is not None else 0,
                int(cols[1]),
            ),
        )
    if not profile.allows_minmax:
        raise Unsupported("unorderable_column", f"{name} over {attr!r}")
    fn = "MIN" if type(agg) is Min else "MAX"
    return (
        [f"{fn}(c{idx})"],
        lambda cols: MISSING if cols[0] is None else cols[0],
    )


def _order_terms(order: tuple[Any, bool], mirror: Any) -> list[str]:
    """ORDER BY terms reproducing ``_SortKey`` + stable-sort semantics."""
    spec, reverse = order
    attrs = [spec] if isinstance(spec, str) else list(spec)
    rank_parts: list[str] = []
    cols: list[str] = []
    for attr in attrs:
        idx = mirror.column(attr)
        if idx is None:
            # key extraction fails on every row: all rank 1, original
            # order preserved by the ord tiebreak
            rank_parts, cols = ["1"], []
            break
        profile = mirror.profiles[attr]
        if not profile.storable:
            raise Unsupported("hostile_column", f"order column {attr!r}")
        if not profile.allows_order:
            raise Unsupported(
                "unorderable_column",
                f"order column {attr!r} mixes type families",
            )
        rank_parts.append(f"p{idx} = 0")
        cols.append(f"c{idx}")
    if not rank_parts:
        rank = "0"  # order_by([]) — every key equal, stable no-op
    elif rank_parts == ["1"]:
        rank = "1"
    else:
        rank = f"CASE WHEN {' OR '.join(rank_parts)} THEN 1 ELSE 0 END"
    direction = "DESC" if reverse else "ASC"
    terms = [f"{rank} {direction}"]
    # value columns participate only at rank 0 (a row whose *other*
    # order attribute is undefined must not be sub-sorted by this one)
    terms.extend(
        f"CASE WHEN {rank} = 0 THEN {col} ELSE NULL END {direction}"
        for col in cols
    )
    terms.append("ord ASC")  # Python sorts are stable in both directions
    return terms


# ---------------------------------------------------------------------------
# Predicicate compilation: E ∈ {1, 0, NULL}, NULL ⇔ undefined
# ---------------------------------------------------------------------------


def _predicate(predicate: Predicate, mirror: Any, params: list) -> str:
    if isinstance(predicate, TruePredicate):
        return "1"
    if isinstance(predicate, FalsePredicate):
        return "0"
    if isinstance(predicate, And):
        if not predicate.parts:
            return "1"
        # And maps an undefined part to false (never undefined itself)
        parts = [
            f"COALESCE({_predicate(p, mirror, params)}, 0)"
            for p in predicate.parts
        ]
        return "(" + " AND ".join(parts) + ")"
    if isinstance(predicate, Or):
        if not predicate.parts:
            return "0"
        parts = [
            f"COALESCE({_predicate(p, mirror, params)}, 0)"
            for p in predicate.parts
        ]
        return "(" + " OR ".join(parts) + ")"
    if isinstance(predicate, Not):
        inner = _predicate(predicate.operand, mirror, params)
        # NOT(undefined) is false, not true — same as the AST's catch
        return f"COALESCE(1 - ({inner}), 0)"
    if isinstance(predicate, Comparison):
        return _comparison(predicate, mirror, params)
    if isinstance(predicate, Membership):
        return _membership(predicate, mirror, params)
    if isinstance(predicate, Between):
        return _between(predicate, mirror, params)
    raise Unsupported(
        "unsupported_predicate", type(predicate).__name__
    )


def _column_operand(expr: Any, mirror: Any) -> tuple[str, Any] | None:
    """``(c<i>, profile)`` for a single-step attribute ref, declining
    hostile columns; ``("__absent__", None)`` for a never-present attr."""
    if not (isinstance(expr, AttrRef) and len(expr.path) == 1):
        return None
    attr = expr.path[0]
    idx = mirror.column(attr)
    if idx is None:
        return ("__absent__", None)
    profile = mirror.profiles[attr]
    if not profile.storable:
        raise Unsupported("hostile_column", f"column {attr!r}")
    return (str(idx), profile)


def _literal_family(value: Any) -> str:
    """``numeric`` / ``text`` for a bindable scalar literal, or decline."""
    if isinstance(value, bool):
        return "numeric"
    if isinstance(value, int):
        if abs(value) >= _INT64_LIMIT:
            raise Unsupported("big_int_literal", f"|{value}| >= 2**63")
        return "numeric"
    if isinstance(value, float):
        return "numeric"  # NaN handled before this point
    if isinstance(value, str):
        return "text"
    raise Unsupported("non_scalar_literal", repr(value))


def _typeof_guard(column: str, family: str) -> str:
    if family == "numeric":
        return f"typeof(c{column}) IN ('integer', 'real')"
    return f"typeof(c{column}) = 'text'"


def _comparison(cmp: Comparison, mirror: Any, params: list) -> str:
    left, right, op = cmp.left, cmp.right, cmp.op
    if isinstance(left, Literal) and isinstance(right, Literal):
        try:
            verdict = _COMPARATORS[op](left.value, right.value)
        except TypeError:
            verdict = False
        return "1" if verdict else "0"
    if isinstance(left, Literal):
        left, right, op = right, left, _FLIP_OP[op]
    if not isinstance(right, Literal):
        raise Unsupported(
            "non_literal_comparison", cmp.to_source()
        )
    column = _column_operand(left, mirror)
    if column is None:
        raise Unsupported("complex_operand", cmp.to_source())
    idx, profile = column
    if profile is None:
        return "NULL"  # attribute on no row: undefined everywhere
    c, p = f"c{idx}", f"p{idx}"
    value = right.value

    if value is None:
        if profile.has_nan:
            # NaN is stored as NULL too; `IS NULL` could not tell the
            # two apart even though Python's == / != can
            raise Unsupported("nan_vs_none", "None compare over NaN column")
        if op == "==":
            body = f"({c} IS NULL)"
        elif op == "!=":
            body = f"({c} IS NOT NULL)"
        else:
            body = "0"  # any ordered compare with None: TypeError → false
        return f"CASE WHEN {p} = 0 THEN NULL ELSE {body} END"

    if isinstance(value, float) and math.isnan(value):
        # NaN never compares equal/ordered; != holds for every value
        body = "1" if op == "!=" else "0"
        return f"CASE WHEN {p} = 0 THEN NULL ELSE {body} END"

    family = _literal_family(value)
    params.append(value)
    sql_op = _SQL_OP[op]
    if op == "==":
        # present-None / NaN rows are NULL: Python says False, and
        # distinct storage classes are unequal in both worlds, so no
        # typeof guard is needed
        return (
            f"CASE WHEN {p} = 0 THEN NULL "
            f"WHEN {c} IS NULL THEN 0 ELSE ({c} = ?) END"
        )
    if op == "!=":
        # None != x and NaN != x are both True in Python
        return (
            f"CASE WHEN {p} = 0 THEN NULL "
            f"WHEN {c} IS NULL THEN 1 ELSE ({c} {sql_op} ?) END"
        )
    # ordered: SQLite orders across storage classes where Python raises
    # TypeError (→ false), so gate on the literal's type family
    guard = _typeof_guard(idx, family)
    return (
        f"CASE WHEN {p} = 0 THEN NULL "
        f"WHEN {guard} THEN ({c} {sql_op} ?) ELSE 0 END"
    )


def _membership(mb: Membership, mirror: Any, params: list) -> str:
    if not isinstance(mb.collection, Literal):
        raise Unsupported("non_literal_collection", mb.to_source())
    collection = mb.collection.value
    if not isinstance(collection, (list, tuple, set, frozenset)):
        # `x in "abc"` is substring matching, not SQL IN
        raise Unsupported("non_sequence_collection", repr(collection))
    column = _column_operand(mb.item, mirror)
    if column is None:
        raise Unsupported("complex_operand", mb.to_source())
    idx, profile = column
    if profile is None:
        return "NULL"
    c, p = f"c{idx}", f"p{idx}"

    elements = list(collection)
    has_none = any(e is None for e in elements)
    bindable: list[Any] = []
    for element in elements:
        if element is None:
            continue
        if isinstance(element, float) and math.isnan(element):
            # list containment checks NaN by identity; SQL cannot
            raise Unsupported("nan_in_collection", mb.to_source())
        _literal_family(element)  # raises on non-scalars / big ints
        bindable.append(element)
    if has_none and profile.has_nan:
        # a stored NaN reads as NULL and would wrongly match None
        raise Unsupported("nan_vs_none", "None in collection over NaN column")

    # present-None rows: None is in the collection iff a None element
    # exists (equality, no TypeError possible for list containment)
    null_hit = has_none
    if mb.negated:
        null_verdict = "0" if null_hit else "1"
    else:
        null_verdict = "1" if null_hit else "0"
    if not bindable:
        # only None elements (or empty): membership reduces to the
        # NULL-branch verdict for None rows and a constant otherwise
        const = "0" if not mb.negated else "1"
        return (
            f"CASE WHEN {p} = 0 THEN NULL "
            f"WHEN {c} IS NULL THEN {null_verdict} ELSE {const} END"
        )
    placeholders = ", ".join("?" * len(bindable))
    params.extend(bindable)
    in_op = "NOT IN" if mb.negated else "IN"
    return (
        f"CASE WHEN {p} = 0 THEN NULL "
        f"WHEN {c} IS NULL THEN {null_verdict} "
        f"ELSE ({c} {in_op} ({placeholders})) END"
    )


def _between(bt: Between, mirror: Any, params: list) -> str:
    if not (isinstance(bt.lo, Literal) and isinstance(bt.hi, Literal)):
        raise Unsupported("non_literal_bounds", bt.to_source())
    column = _column_operand(bt.item, mirror)
    if column is None:
        raise Unsupported("complex_operand", bt.to_source())
    idx, profile = column
    if profile is None:
        return "NULL"
    c, p = f"c{idx}", f"p{idx}"
    lo, hi = bt.lo.value, bt.hi.value

    def bound_family(value: Any) -> str | None:
        if value is None:
            return None
        if isinstance(value, float) and math.isnan(value):
            return None  # nan <= x is False: the range selects nothing
        return _literal_family(value)

    lo_family, hi_family = bound_family(lo), bound_family(hi)
    if lo_family is None or hi_family is None or lo_family != hi_family:
        # mixed/None/NaN bounds: `lo <= v <= hi` is False for every
        # value (TypeError or NaN comparison), defined rows included
        return f"CASE WHEN {p} = 0 THEN NULL ELSE 0 END"
    guard = _typeof_guard(idx, lo_family)
    params.extend([lo, hi])
    return (
        f"CASE WHEN {p} = 0 THEN NULL "
        f"WHEN {guard} THEN ({c} >= ? AND {c} <= ?) ELSE 0 END"
    )
