"""The operator table: what each logical operator means, stated once.

A derived FQL function is its own logical plan (DESIGN.md §5). Four
layers need more from an operator than its children, and each reads it
from the operator's :class:`Operator` entry in :data:`OPERATORS`:

* ``token`` — what identifies it: :func:`plan_token`, read with
  literals by the plan cache (``exec.cache.fingerprint``) and without
  by the workload profiler (``obs.workload.fingerprint_of``);
* ``lower`` — its physical node (``exec.lower.lower``);
* ``delta`` — its view-maintenance rule (``ivm.operators.derive_delta``);
* ``rows`` — its row estimate
  (``optimizer.cardinality.estimate_cardinality``).

An operator with no entry gets :class:`Operator`'s defaults: it runs
per-key inside an otherwise batched pipeline, never shares a cached
plan, recomputes its views when anything beneath it changes, and is
estimated by counting. Adding an operator is its ``DerivedFunction``
subclass, one entry here, and (for speed) its physical node (DESIGN.md
§6, "Adding an operator"). Rewrite rules (:mod:`repro.optimizer.rules`)
and the SQL compiler (:mod:`repro.compile.sqlgen`) still name the
operators they handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.exec import nodes
from repro.fdm.databases import (
    MaterialDatabaseFunction,
    OverlayDatabaseFunction,
)
from repro.fdm.functions import DerivedFunction, FDMFunction
from repro.fql.filter import FilteredFunction, RestrictedFunction
from repro.fql.group import AggregatedRelationFunction, GroupedDatabaseFunction
from repro.fql.join import JoinedRelationFunction
from repro.fql.order import LimitedFunction, OrderedFunction
from repro.fql.outer import PartitionedRelationFunction
from repro.fql.project import MappedFunction
from repro.fql.setops import IntersectFunction, MinusFunction, UnionFunction
from repro.fql.views import MaterializedView
from repro.ivm import operators as ivm
from repro.obs.workload import normalize_source
from repro.optimizer import cardinality
from repro.optimizer.cardinality import estimate_cardinality as rows_of
from repro.optimizer.physical import (
    FusedGroupAggregateFunction,
    IndexLookupFunction,
    KeyLookupFunction,
)
from repro.optimizer.rules import fused_parts
from repro.storage.relation import StoredRelationFunction

__all__ = ["Operator", "OPERATORS", "operator_of", "plan_token"]


def _instance_token(fn, literals):
    # parameters may hide opaque state, so the instance itself is the
    # only safe cache token; a query class can only name the operator
    return ("instance", id(fn)) if literals else ("op", type(fn).__name__)


@dataclass(frozen=True)
class Operator:
    """One logical operator's entry; the defaults are the safe behaviour
    of an operator nobody has described."""

    #: ``token(fn, literals)``: the operator's own parameters, hashable.
    #: With *literals* it keeps constants and the identity of opaque
    #: callables; without, constants read ``"?"`` and callables by
    #: label, so rebuilt graphs of one shape agree.
    token: Callable[[Any, bool], Any] = _instance_token
    #: ``lower(fn, low)``: the physical node; ``low`` lowers an input.
    lower: Callable[[Any, Callable], Any] = lambda fn, low: nodes.NaiveNode(fn)
    #: ``delta(fn, base_deltas, aux, stats)``, or ``FALLBACK``: no sound
    #: rule, recompute when anything the operator reads has changed.
    delta: Any = ivm.FALLBACK
    #: ``rows(fn)``: estimated mappings; ``None`` counts the extension.
    rows: Callable[[Any], float] | None = None
    #: Answers from a snapshot of its input (a materialized view): the
    #: input's plan and data versions are not part of its token.
    reads_snapshot: bool = False


_DEFAULT = Operator()


def operator_of(fn: DerivedFunction) -> Operator:
    """The entry for *fn*'s class (or its nearest base class with one),
    else the defaults."""
    for cls in type(fn).__mro__:
        entry = OPERATORS.get(cls)
        if entry is not None:
            return entry
    return _DEFAULT


# -- plan tokens -------------------------------------------------------------


def _opaque(obj, literals, label="fn"):
    # a query class cannot tell two arbitrary callables apart, and
    # identity would split one logical query into a class per closure
    return (label, id(obj)) if literals else label


def _text(source, literals):
    return source if literals else normalize_source(source)


def _predicate(predicate, literals):
    if predicate.is_transparent:
        return _text(predicate.to_source(), literals)
    return _opaque(predicate, literals, type(predicate).__name__)


def _group_by(by, literals):
    return by.attrs if by.attrs is not None else _opaque(by.fn, literals)


def _aggregates(aggs, literals):
    return tuple(
        (
            name,
            type(agg).__name__,
            _opaque(agg.attr, literals) if callable(agg.attr) else agg.attr,
        )
        for name, agg in aggs.items()
    )


def _map_token(fn, literals):
    params = fn.op_params()
    if fn.op_name == "project":
        return ("project", tuple(params["attrs"]))
    if fn.op_name == "rename":
        return ("rename", tuple(sorted(params["mapping"].items())))
    transparent = params.get("transparent", {})
    if fn.op_name == "extend" and set(transparent) == set(
        params.get("computed", ())
    ):
        sources = ((a, _text(s, literals)) for a, s in transparent.items())
        return ("extend", tuple(sorted(sources)))
    return (fn.op_name, _opaque(fn._transform, literals, "opaque"))


def _order_token(fn, literals):
    spec = fn._key_spec
    if isinstance(spec, (list, tuple)):
        spec = tuple(spec)
    elif not isinstance(spec, str):
        spec = _opaque(spec, literals)
    return (spec, fn._reverse)


def _members(functions, literals):
    return tuple(
        (name, plan_token(sub, literals)) for name, sub in functions.items()
    )


def _join_token(fn, literals):
    plan = fn.plan
    return (
        _members(plan.atoms, literals),
        tuple(_text(f"{a!r}={b!r}", literals) for a, b in plan.edges),
        tuple(plan.order_hint) if plan.order_hint else None,
    )


def _key_lookup_token(fn, literals):
    key = fn._key_value if literals else "?"
    try:
        hash(key)
    except TypeError:
        key = repr(key)
    return ("key", key, _predicate(fn._residual, literals))


def _index_lookup_token(fn, literals):
    bounds = (fn._eq, fn._lo, fn._hi, fn._lo_open, fn._hi_open)
    return (
        fn._attr,
        repr(bounds) if literals else "bounds?",
        _predicate(fn._residual, literals),
    )


def _view_token(fn, literals):
    # reads go to the snapshot, not the live expression: DML without a
    # refresh keeps cached plans valid, a refresh (or a maintained-view
    # sync) invalidates everything reading through the view
    if literals:
        return ("mview", id(fn), fn.maintenance_version())
    return ("mview", fn.name or "mview")


def plan_token(fn: FDMFunction, literals: bool) -> Any:
    """The hashable token of a derived-function graph, read one of two ways.

    ``literals=True`` is the plan-cache key: operator structure with
    every constant, the identity of every opaque callable, and at the
    leaves each base function's identity and data version — equal
    tokens mean the same plan is valid. ``literals=False`` is the
    workload query class: the same structure with constants
    parameterized and identities and versions dropped, so ``age > 41``
    and ``age > 12`` over any state of the same table agree.
    """
    if isinstance(fn, DerivedFunction):
        entry = operator_of(fn)
        inputs = () if entry.reads_snapshot else fn.children
        return (
            type(fn).__name__,
            entry.token(fn, literals),
            tuple(plan_token(child, literals) for child in inputs),
        )
    if isinstance(fn, StoredRelationFunction):
        if not literals:
            return ("stored", fn.table_name)
        manager = fn._manager
        txn = manager.current()
        # the commit clock, not the WAL length: the clock is monotonic
        # even across a replica snapshot resync (which truncates and
        # re-seeds the WAL, letting its length revisit old values)
        return (
            "stored",
            id(fn._engine),
            fn.table_name,
            manager.now(),
            (txn.start_ts, txn.write_seq) if txn is not None else None,
        )
    if isinstance(fn, MaterialDatabaseFunction):
        if not literals:
            return ("db", _members(fn._functions, literals))
        version = getattr(fn, "_version", None)
        return ("db", id(fn), version, _members(fn._functions, literals))
    if isinstance(fn, OverlayDatabaseFunction):
        return (
            "overlay",
            plan_token(fn.base, literals),
            _members(fn._overlay, literals),
            tuple(sorted(fn._hidden)),
        )
    if literals:
        return ("leaf", id(fn), getattr(fn, "_version", None))
    return ("leaf", str(fn.fn_name or type(fn).__name__))


# -- lowering ----------------------------------------------------------------


def _map_node(fn, child):
    attrs = fn.op_params().get("attrs") if fn.op_name == "project" else None
    return nodes.MapNode(child, fn._transform, label=fn.op_name, attrs=attrs)


def _lower_restrict(fn, low):
    if not fn.source.is_enumerable:
        return nodes.NaiveNode(fn)
    return nodes.RestrictNode(low(fn.source), fn.restricted_keys)


def _lower_order(fn, low):
    spec = fn._key_spec
    return nodes.OrderNode(
        low(fn.source),
        fn._sort_key,
        fn._reverse,
        label=f"order [{fn.op_params()['key']!r}]",
        attr=spec if isinstance(spec, str) else None,
    )


def _lower_limit(fn, low):
    # limit ∘ map ≡ map ∘ limit (maps preserve keys): truncate below the
    # transforms so only surviving rows are ever evaluated, as the naive
    # path does
    inner = fn.source
    maps = []
    while isinstance(inner, MappedFunction):
        maps.append(inner)
        inner = inner.source
    node = nodes.LimitNode(low(inner), fn._n)
    for mapped in reversed(maps):
        node = _map_node(mapped, node)
    return node


def _lower_aggregate(fn, low):
    parts = fused_parts(fn)
    if parts is None:
        return nodes.AggregateOverGroupsNode(
            low(fn.source), fn.aggregates, name=fn.fn_name
        )
    source, by, aggs = parts
    return nodes.GroupAggregateNode(low(source), by, aggs, name=fn.fn_name)


def _lower_probing(node_cls):
    """Lowering for ∩ / ∖: the naive path never enumerates their right
    operand (point probes via ``defined_at``), so a non-enumerable right
    side must stay naive."""

    def lower(fn, low):
        if not fn.right.is_enumerable:
            return nodes.NaiveNode(fn)
        return node_cls(low(fn.left), low(fn.right), fn)

    return lower


# -- delta and row-estimate adapters -----------------------------------------


def _aggregate_delta(fn, base_deltas, aux, stats):
    parts = fused_parts(fn)
    if parts is None:
        return ivm.fallback_if_changed(fn, base_deltas)
    return ivm.group_rule(fn, base_deltas, aux, stats, parts)


def _source_rows(fn):
    return rows_of(fn.source)


#: Logical operator class → its :class:`Operator` entry.
OPERATORS: dict[type, Operator] = {
    FilteredFunction: Operator(
        token=lambda fn, lit: _predicate(fn.predicate, lit),
        lower=lambda fn, low: nodes.FilterNode(low(fn.source), fn.predicate),
        delta=ivm.filter_rule,
        rows=cardinality.filter_rows,
    ),
    RestrictedFunction: Operator(
        # the frozenset itself is the token: a hash would collide
        token=lambda fn, lit: ("keys", fn.restricted_keys if lit else "?"),
        lower=_lower_restrict,
        delta=ivm.restrict_rule,
        rows=lambda fn: float(
            min(len(fn.restricted_keys), rows_of(fn.source))
        ),
    ),
    MappedFunction: Operator(
        token=_map_token,
        lower=lambda fn, low: _map_node(fn, low(fn.source)),
        delta=ivm.map_rule,
        rows=_source_rows,
    ),
    OrderedFunction: Operator(
        token=_order_token,
        lower=_lower_order,
        delta=ivm.presentation_rule,
        rows=_source_rows,
    ),
    LimitedFunction: Operator(
        token=lambda fn, lit: ("limit", fn._n if lit else "?"),
        lower=_lower_limit,
        delta=ivm.presentation_rule,
        rows=lambda fn: float(min(fn._n, rows_of(fn.source))),
    ),
    GroupedDatabaseFunction: Operator(
        token=lambda fn, lit: _group_by(fn.by, lit),
        lower=lambda fn, low: nodes.GroupNode(low(fn.source), fn),
        delta=ivm.group_rule,
        rows=cardinality.group_rows,
    ),
    AggregatedRelationFunction: Operator(
        token=lambda fn, lit: _aggregates(fn.aggregates, lit),
        lower=_lower_aggregate,
        delta=_aggregate_delta,
        rows=_source_rows,
    ),
    FusedGroupAggregateFunction: Operator(
        token=lambda fn, lit: (
            _group_by(fn._by, lit),
            _aggregates(fn._aggs, lit),
        ),
        lower=lambda fn, low: nodes.FusedGroupAggregateNode(
            low(fn.source), fn._by, fn._aggs, name=fn.fn_name
        ),
        delta=ivm.group_rule,
        rows=cardinality.group_rows,
    ),
    JoinedRelationFunction: Operator(
        token=_join_token,
        lower=lambda fn, low: nodes.HashJoinNode(fn),
        delta=ivm.join_rule,
        rows=cardinality.join_rows,
    ),
    # set operations keep the default token: union's conflict policy and
    # nested-merge behaviour are per instance
    UnionFunction: Operator(
        lower=lambda fn, low: nodes.UnionNode(low(fn.left), low(fn.right), fn),
        delta=ivm.setop_rule,
        rows=lambda fn: rows_of(fn.left) + rows_of(fn.right),
    ),
    IntersectFunction: Operator(
        lower=_lower_probing(nodes.IntersectNode),
        delta=ivm.setop_rule,
        rows=lambda fn: min(rows_of(fn.left), rows_of(fn.right)),
    ),
    MinusFunction: Operator(
        lower=_lower_probing(nodes.MinusNode),
        delta=ivm.setop_rule,
        rows=lambda fn: rows_of(fn.left),
    ),
    KeyLookupFunction: Operator(
        token=_key_lookup_token,
        lower=lambda fn, low: nodes.KeyLookupNode(fn),
        rows=lambda fn: 1.0,
    ),
    IndexLookupFunction: Operator(
        token=_index_lookup_token,
        lower=lambda fn, low: nodes.IndexLookupNode(fn),
        rows=cardinality.index_lookup_rows,
    ),
    MaterializedView: Operator(
        token=_view_token, delta=ivm.snapshot_rule, reads_snapshot=True
    ),
    # outer marking passes its source through unchanged and runs naive
    PartitionedRelationFunction: Operator(rows=_source_rows),
}
