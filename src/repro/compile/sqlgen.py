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
suites pin. A guard is emitted only where the column profile can reach
its branch: a clean column (never absent, never None/NaN, one type
family) compiles to bare comparisons. Profiles only widen between
rebuilds and every :class:`CompiledQuery` carries the profile
signature it was compiled against, so a write that widens one
recompiles the next read with the guard back. Divergence risks and
their treatments:

* **undefined vs present** — FDM distinguishes a tuple without
  ``bonus`` from one with ``bonus = None``; SQL has only NULL. Every
  predicate compiles to a three-valued expression ``E ∈ {1, 0, NULL}``
  with NULL ⇔ *undefined* (presence column = 0), so ``NOT`` can map
  undefined to false exactly like the AST's ``_Undefined`` handling;
  ``COALESCE`` wraps only expressions that can be undefined.
* **cross-type comparisons** — Python raises ``TypeError`` (→ false);
  SQLite orders storage classes (``1 < 'a'`` is true). Ordered
  comparisons over mixed columns carry ``typeof()`` guards; equality
  needs none (distinct storage classes are unequal in both worlds),
  and a column holding none of the literal's family folds to a
  constant.
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
    _COMPARATORS,
    _FLIP_OP,
)
from repro.storage.relation import StoredRelationFunction

__all__ = ["Unsupported", "QueryShape", "CompiledQuery", "parse_graph",
           "generate_sql"]

_INT64_LIMIT = 2**63

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
    where = [_defined(*_predicate(p, mirror, params)) for p in shape.filters]
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
        if profile.has_missing:
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
        count = f"COALESCE(SUM(p{idx}), 0)" if profile.has_missing else "COUNT(*)"
        return [count], lambda cols: int(cols[0])
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
            # key extraction fails on every row: all keys equal, so
            # the stable sort keeps the original order
            return ["ord ASC"]
        profile = mirror.profiles[attr]
        if not profile.storable:
            raise Unsupported("hostile_column", f"order column {attr!r}")
        if not profile.allows_order:
            raise Unsupported(
                "unorderable_column",
                f"order column {attr!r} mixes type families",
            )
        if profile.has_missing:
            rank_parts.append(f"p{idx} = 0")
        cols.append(f"c{idx}")
    direction = "DESC" if reverse else "ASC"
    # rank 1 ⇔ some order attribute is undefined (``_SortKey`` puts
    # those rows last); value columns participate only at rank 0 (a row
    # whose *other* order attribute is undefined must not be sub-sorted
    # by this one)
    rank = " OR ".join(rank_parts)
    terms = [f"({rank}) {direction}"] if rank else []
    terms.extend(
        f"CASE WHEN {rank} THEN NULL ELSE {col} END {direction}"
        if rank else f"{col} {direction}"
        for col in cols
    )
    terms.append("ord ASC")  # Python sorts are stable in both directions
    return terms


# ---------------------------------------------------------------------------
# Predicate compilation: E ∈ {1, 0, NULL}, NULL ⇔ undefined
# ---------------------------------------------------------------------------


def _defined(sql: str, nullable: bool) -> str:
    """*sql* with undefined read as false (``COALESCE`` only if reachable)."""
    return f"COALESCE({sql}, 0)" if nullable else sql


def _case(
    profile: Any, idx: Any, branches: list[tuple[str | None, str]], otherwise: str
) -> tuple[str, bool]:
    """``(sql, nullable)`` of a CASE over a column's *reachable* branches:
    undefined → NULL first when some row lacks the attribute, then each
    ``(condition, verdict)`` whose condition is not ``None``."""
    whens = f"WHEN p{idx} = 0 THEN NULL " if profile.has_missing else ""
    for cond, then in branches:
        if cond:
            whens += f"WHEN {cond} THEN {then} "
    if not whens:
        return otherwise, False
    return f"CASE {whens}ELSE {otherwise} END", profile.has_missing


def _predicate(
    predicate: Predicate, mirror: Any, params: list
) -> tuple[str, bool]:
    """``(sql, nullable)``: *sql* is 1/0, or NULL only when *nullable*."""
    if isinstance(predicate, TruePredicate):
        return "1", False
    if isinstance(predicate, FalsePredicate):
        return "0", False
    if isinstance(predicate, (And, Or)):
        conjunction = isinstance(predicate, And)
        if not predicate.parts:
            return ("1" if conjunction else "0"), False
        # And/Or map an undefined part to false (never undefined itself)
        parts = [_defined(*_predicate(p, mirror, params)) for p in predicate.parts]
        return "(" + (" AND " if conjunction else " OR ").join(parts) + ")", False
    if isinstance(predicate, Not):
        inner, nullable = _predicate(predicate.operand, mirror, params)
        # NOT(undefined) is false, not true — same as the AST's catch
        return _defined(f"(1 - ({inner}))", nullable), False
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


def _family_guard(
    c: str, profile: Any, family: str, ordered: bool
) -> str | None | bool:
    """The condition picking the present rows a *family* literal cannot
    compare with in SQL as Python does (None, NaN, other families);
    ``None`` when the profile proves no row reaches it, and ``False``
    when no row holds a value of *family* (every row reaches it)."""
    if family == "numeric":
        if profile.numeric_only:
            return None
        if not (profile.has_int or profile.has_float or profile.has_bool):
            return False
    elif profile.text_only:
        return None
    elif not profile.has_text:
        return False
    if not ordered:
        # distinct storage classes are unequal in both worlds: only the
        # NULL of a None / NaN needs its own verdict
        return f"{c} IS NULL" if profile.has_none or profile.has_nan else None
    # SQLite orders across storage classes where Python raises TypeError
    if family == "numeric":
        return f"typeof({c}) NOT IN ('integer', 'real')"
    return f"typeof({c}) != 'text'"


def _comparison(cmp: Comparison, mirror: Any, params: list) -> tuple[str, bool]:
    left, right, op = cmp.left, cmp.right, cmp.op
    if isinstance(left, Literal) and isinstance(right, Literal):
        try:
            verdict = _COMPARATORS[op](left.value, right.value)
        except TypeError:
            verdict = False
        return ("1" if verdict else "0"), False
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
        return "NULL", True  # attribute on no row: undefined everywhere
    c = f"c{idx}"
    value = right.value
    # Python's verdict for a None / NaN / other-family operand: a
    # TypeError or an inequality, i.e. false — but true for `!=`
    off = "1" if op == "!=" else "0"

    if value is None:
        if profile.has_nan:
            # NaN is stored as NULL too; `IS NULL` could not tell the
            # two apart even though Python's == / != can
            raise Unsupported("nan_vs_none", "None compare over NaN column")
        if op in ("==", "!=") and profile.has_none:
            test = "IS NOT NULL" if op == "!=" else "IS NULL"
            return _case(profile, idx, [], f"({c} {test})")
        return _case(profile, idx, [], off)

    if isinstance(value, float) and math.isnan(value):
        # NaN never compares equal/ordered; != holds for every value
        return _case(profile, idx, [], off)

    ordered = op not in ("==", "!=")
    guard = _family_guard(c, profile, _literal_family(value), ordered)
    if guard is False:
        return _case(profile, idx, [], off)
    params.append(value)
    return _case(profile, idx, [(guard, off)], f"({c} {_SQL_OP[op]} ?)")


def _membership(mb: Membership, mirror: Any, params: list) -> tuple[str, bool]:
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
        return "NULL", True
    c = f"c{idx}"

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
    null_verdict = "1" if has_none != mb.negated else "0"
    null = f"{c} IS NULL" if profile.has_none or profile.has_nan else None
    if bindable:
        params.extend(bindable)
        in_op = "NOT IN" if mb.negated else "IN"
        body = f"({c} {in_op} ({', '.join('?' * len(bindable))}))"
    else:
        # only None elements (or empty): a constant for every value
        body = "1" if mb.negated else "0"
    return _case(profile, idx, [(null, null_verdict)], body)


def _between(bt: Between, mirror: Any, params: list) -> tuple[str, bool]:
    if not (isinstance(bt.lo, Literal) and isinstance(bt.hi, Literal)):
        raise Unsupported("non_literal_bounds", bt.to_source())
    column = _column_operand(bt.item, mirror)
    if column is None:
        raise Unsupported("complex_operand", bt.to_source())
    idx, profile = column
    if profile is None:
        return "NULL", True
    c = f"c{idx}"
    lo, hi = bt.lo.value, bt.hi.value

    def bound_family(value: Any) -> str | None:
        if value is None:
            return None
        if isinstance(value, float) and math.isnan(value):
            return None  # nan <= x is False: the range selects nothing
        return _literal_family(value)

    family = bound_family(lo)
    guard = (
        family is not None
        and family == bound_family(hi)
        and _family_guard(c, profile, family, ordered=True)
    )
    if guard is False:
        # mixed/None/NaN bounds, or a column with no value of the
        # bounds' family: `lo <= v <= hi` is False for every value
        # (TypeError or NaN comparison), defined rows included
        return _case(profile, idx, [], "0")
    params.extend([lo, hi])
    return _case(profile, idx, [(guard, "0")], f"({c} >= ? AND {c} <= ?)")
