"""Rewrite rules over derived-function graphs.

A derived FQL function *is* its own logical plan (DESIGN.md §5): rules
pattern-match on operator classes, inspect transparent predicates, and
rebuild extensionally-equal but cheaper graphs. Opaque (lambda) predicates
stop most rules cold — by design; that lost optimization headroom is what
benchmark S1 measures.

Rules:

* :class:`FuseFilters` — σp(σq(x)) → σ(p∧q)(x).
* :class:`PushFilterBelowOrder` — σ commutes with ordering.
* :class:`PushFilterBelowSetOps` — σ distributes over ∪ (both sides) and
  pushes into the left operand of ∩ / ∖.
* :class:`PushFilterBelowGroupAggregate` — a HAVING-style filter touching
  only group-key attributes filters source tuples instead of groups.
* :class:`PushFilterIntoJoin` — conjuncts owned by a single join atom
  filter that atom before joining.
* :class:`FilterToKeyLookup` — ``__key__ == c`` becomes a point
  application (the relation function is its own primary index).
* :class:`FilterToIndexLookup` — equality/range conjuncts on indexed
  attributes of stored relations become index accesses.
* :class:`FuseGroupAggregate` — aggregate(group(x)) becomes the one-pass
  physical operator (Fig. 4b → Fig. 4c).
* :class:`CollapseProjects` — π over π keeps only the outer list.
* :class:`ReorderJoinAtoms` — cardinality-guided join order
  (:mod:`repro.optimizer.joinorder`).
"""

from __future__ import annotations

from typing import Any

from repro.fdm.functions import FDMFunction
from repro.fql.filter import FilteredFunction
from repro.fql.group import AggregatedRelationFunction, GroupedDatabaseFunction
from repro.fql.join import JoinedRelationFunction
from repro.fql.order import OrderedFunction
from repro.fql.project import MappedFunction
from repro.fql.setops import (
    IntersectFunction,
    MinusFunction,
    UnionFunction,
)
from repro.optimizer.physical import (
    FusedGroupAggregateFunction,
    IndexLookupFunction,
    KeyLookupFunction,
)
from repro.predicates.ast import (
    And,
    AttrRef,
    BinOp,
    Expr,
    FuncCall,
    KeyRef,
    Predicate,
    TruePredicate,
    UnaryOp,
    atom_of,
)
from repro.storage.relation import StoredRelationFunction

__all__ = [
    "Rule",
    "FuseFilters",
    "PushFilterBelowOrder",
    "PushFilterBelowSetOps",
    "PushFilterBelowGroupAggregate",
    "PushFilterIntoJoin",
    "FilterToKeyLookup",
    "FilterToIndexLookup",
    "FuseGroupAggregate",
    "CollapseProjects",
    "ReorderJoinAtoms",
    "DEFAULT_RULES",
    "conjuncts",
    "combine",
    "fused_parts",
]


class Rule:
    """A local rewrite; ``apply`` returns a replacement node or None."""

    name = "rule"

    def apply(self, node: FDMFunction) -> FDMFunction | None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<rule {self.name}>"


# -- predicate plumbing -------------------------------------------------------


def conjuncts(pred: Predicate) -> list[Predicate]:
    """Flatten nested ANDs into a conjunct list (other nodes are atomic)."""
    if isinstance(pred, And):
        out: list[Predicate] = []
        for part in pred.parts:
            out.extend(conjuncts(part))
        return out
    return [pred]


def combine(parts: list[Predicate]) -> Predicate:
    """AND a conjunct list back together (empty list = always-true)."""
    if not parts:
        return TruePredicate()
    if len(parts) == 1:
        return parts[0]
    return And(*parts)


def _attr_to_keyref_expr(expr: Expr, label: str) -> Expr:
    if isinstance(expr, AttrRef) and expr.path == (label,):
        return KeyRef()
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            _attr_to_keyref_expr(expr.left, label),
            _attr_to_keyref_expr(expr.right, label),
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(_attr_to_keyref_expr(expr.operand, label))
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.fn_name,
            [_attr_to_keyref_expr(a, label) for a in expr.args],
        )
    return expr


def attr_to_keyref(pred: Predicate, label: str) -> Predicate:
    """Rewrite references to attribute *label* into the mapping key.

    Used when pushing a join-output predicate (over the key's attribute
    name, e.g. ``cid``) down to the relation function, where that value is
    the function *input*, not a tuple attribute.
    """
    return pred.map_exprs(lambda expr: _attr_to_keyref_expr(expr, label))


# -- the rules -------------------------------------------------------------------


class FuseFilters(Rule):
    name = "fuse_filters"

    def apply(self, node: FDMFunction) -> FDMFunction | None:
        if not isinstance(node, FilteredFunction):
            return None
        inner = node.source
        if not isinstance(inner, FilteredFunction):
            return None
        return FilteredFunction(
            inner.source, And(inner.predicate, node.predicate)
        )


class PushFilterBelowOrder(Rule):
    name = "push_filter_below_order"

    def apply(self, node: FDMFunction) -> FDMFunction | None:
        if not isinstance(node, FilteredFunction):
            return None
        inner = node.source
        if not isinstance(inner, OrderedFunction):
            return None
        return inner.rebuild(
            (FilteredFunction(inner.source, node.predicate),)
        )


class PushFilterBelowSetOps(Rule):
    """Push a *key-only* filter below a set operation.

    Only predicates that reference the key alone are sound to push: a
    set operation's value at a colliding key is not necessarily either
    operand's value — union merges unequal nested values, intersect
    and minus recurse into a nested result holding a *subset* of the
    row's attributes (``t ∖ t`` over a NaN-bearing row yields a nested
    diff with just the NaN attributes, which an attribute predicate
    above sees as undefined). Pushing an attribute predicate would
    evaluate it against the operand rows instead of those result
    values and change the answer. Key predicates commute: filtering
    keys first never alters any collision's value.
    """

    name = "push_filter_below_setops"

    def apply(self, node: FDMFunction) -> FDMFunction | None:
        if not isinstance(node, FilteredFunction):
            return None
        inner = node.source
        pred = node.predicate
        if not pred.is_transparent or pred.attrs():
            return None
        if isinstance(inner, UnionFunction):
            return inner.rebuild(
                (
                    FilteredFunction(inner.left, pred),
                    FilteredFunction(inner.right, pred),
                )
            )
        if isinstance(inner, (IntersectFunction, MinusFunction)):
            return inner.rebuild(
                (FilteredFunction(inner.left, pred), inner.right)
            )
        return None


class PushFilterBelowGroupAggregate(Rule):
    """HAVING on pure group-key attributes is WHERE in disguise."""

    name = "push_filter_below_group_aggregate"

    def apply(self, node: FDMFunction) -> FDMFunction | None:
        if not isinstance(node, FilteredFunction):
            return None
        pred = node.predicate
        if not pred.is_transparent or pred.references_key():
            return None
        inner = node.source
        if isinstance(inner, AggregatedRelationFunction) and isinstance(
            inner.source, GroupedDatabaseFunction
        ):
            grouped = inner.source
            agg_names = set(inner.aggregates)
        elif isinstance(inner, FusedGroupAggregateFunction):
            grouped = None
            agg_names = set(inner.op_params()["aggs"])
        else:
            return None
        by = grouped.by if grouped is not None else inner._by
        if by.attrs is None:
            return None
        pushable: list[Predicate] = []
        residual: list[Predicate] = []
        for c in conjuncts(pred):
            if (
                c.is_transparent
                and c.attrs()
                and c.attrs() <= set(by.attrs)
                and not (c.attrs() & agg_names)
            ):
                pushable.append(c)
            else:
                residual.append(c)
        if not pushable:
            return None
        if grouped is not None:
            rebuilt: FDMFunction = inner.rebuild(
                (
                    grouped.rebuild(
                        (FilteredFunction(grouped.source, combine(pushable)),)
                    ),
                )
            )
        else:
            rebuilt = inner.rebuild(
                (FilteredFunction(inner.source, combine(pushable)),)
            )
        if residual:
            return FilteredFunction(rebuilt, combine(residual))
        return rebuilt


class PushFilterIntoJoin(Rule):
    """Conjuncts owned by one join atom filter that atom pre-join."""

    name = "push_filter_into_join"

    def apply(self, node: FDMFunction) -> FDMFunction | None:
        if not isinstance(node, FilteredFunction):
            return None
        pred = node.predicate
        if not pred.is_transparent or pred.references_key():
            return None
        join_fn = node.source
        if not isinstance(join_fn, JoinedRelationFunction):
            return None
        plan = join_fn.plan
        owner: dict[str, str | None] = {}
        key_labels: dict[str, set[str]] = {}
        for atom_name, fn in plan.atoms.items():
            attrs: set[str] = set()
            label = getattr(fn, "key_name", None)
            labels: set[str] = set()
            if isinstance(label, str):
                labels = {label}
            elif isinstance(label, tuple):
                labels = set(label)
            attrs |= labels
            key_labels[atom_name] = labels
            for t in fn.tuples() if hasattr(fn, "tuples") else fn.values():
                if isinstance(t, FDMFunction) and t.is_enumerable:
                    attrs |= set(t.keys())
                break  # sample the first tuple only
            for attr in attrs:
                owner[attr] = (
                    atom_name if attr not in owner else None
                )  # None = ambiguous

        pushed: dict[str, list[Predicate]] = {}
        residual: list[Predicate] = []
        for c in conjuncts(pred):
            attrs = c.attrs()
            owners = {owner.get(a) for a in attrs}
            if (
                attrs
                and len(owners) == 1
                and None not in owners
                and c.is_transparent
            ):
                atom_name = next(iter(owners))
                local = c
                for label in key_labels[atom_name] & attrs:
                    # composite-key components cannot become KeyRef
                    if len(key_labels[atom_name]) == 1:
                        local = attr_to_keyref(local, label)
                    else:
                        local = None
                        break
                if local is None:
                    residual.append(c)
                    continue
                pushed.setdefault(atom_name, []).append(local)
            else:
                residual.append(c)
        if not pushed:
            return None
        from repro.fdm.databases import OverlayDatabaseFunction

        base_db = join_fn.children[0]
        overlay = OverlayDatabaseFunction(base_db)
        new_atoms = dict(plan.atoms)
        for atom_name, preds in pushed.items():
            filtered = FilteredFunction(
                plan.atoms[atom_name], combine(preds), name=atom_name
            )
            overlay[atom_name] = filtered
            new_atoms[atom_name] = filtered
        from repro.fql.join import JoinPlan

        new_plan = JoinPlan(new_atoms, plan.edges, order_hint=plan.order_hint)
        rebuilt: FDMFunction = JoinedRelationFunction(
            overlay, new_plan, name=join_fn.fn_name
        )
        if residual:
            return FilteredFunction(rebuilt, combine(residual))
        return rebuilt


def _probe_is_the_key(value: Any) -> bool:
    # a bool or float equals an int key of another type, and a lookup
    # answers with its probe: only the scan returns the stored key
    if isinstance(value, tuple):
        return all(_probe_is_the_key(part) for part in value)
    return not isinstance(value, (bool, float))


class FilterToKeyLookup(Rule):
    name = "filter_to_key_lookup"

    def apply(self, node: FDMFunction) -> FDMFunction | None:
        if not isinstance(node, FilteredFunction):
            return None
        pred = node.predicate
        if not pred.is_transparent:
            return None
        parts = conjuncts(pred)
        for i, c in enumerate(parts):
            atom = atom_of(c)
            if (
                atom is not None
                and atom.column is None
                and atom.op == "=="
                and _probe_is_the_key(atom.value)
            ):
                residual = combine(parts[:i] + parts[i + 1 :])
                return KeyLookupFunction(
                    node.source, atom.value, residual=residual
                )
        return None


class FilterToIndexLookup(Rule):
    name = "filter_to_index_lookup"

    def apply(self, node: FDMFunction) -> FDMFunction | None:
        if not isinstance(node, FilteredFunction):
            return None
        stored = node.source
        if not isinstance(stored, StoredRelationFunction):
            return None
        pred = node.predicate
        if not pred.is_transparent:
            return None
        parts = conjuncts(pred)
        for i, c in enumerate(parts):
            atom = atom_of(c)
            if atom is None or atom.column is None:
                continue
            attr, op, value = atom
            residual = combine(parts[:i] + parts[i + 1 :])
            if op == "==" and stored.has_index(attr):
                return IndexLookupFunction(
                    stored, attr, eq=value, residual=residual
                )
            if stored.has_index(attr, kind="sorted"):
                if op == "between":
                    lo, hi = value
                    return IndexLookupFunction(
                        stored, attr, lo=lo, hi=hi, residual=residual
                    )
                if op in (">", ">="):
                    return IndexLookupFunction(
                        stored, attr, lo=value, lo_open=(op == ">"),
                        residual=residual,
                    )
                if op in ("<", "<="):
                    return IndexLookupFunction(
                        stored, attr, hi=value, hi_open=(op == "<"),
                        residual=residual,
                    )
        return None


def fused_parts(node: FDMFunction) -> tuple | None:
    """``(source, by, aggregates)`` when *node* is ``aggregate(group(x))``,
    else ``None``.

    The one statement of "aggregate∘group collapses": the rewrite rule
    below applies it to plans, and the operator table reads an unfused
    pair's lowering and delta rule through it.
    """
    if not isinstance(node, AggregatedRelationFunction):
        return None
    grouped = node.source
    if not isinstance(grouped, GroupedDatabaseFunction):
        return None
    return grouped.source, grouped.by, node.aggregates


class FuseGroupAggregate(Rule):
    name = "fuse_group_aggregate"

    def apply(self, node: FDMFunction) -> FDMFunction | None:
        parts = fused_parts(node)
        if parts is None:
            return None
        return FusedGroupAggregateFunction(*parts, name=node.fn_name)


class CollapseProjects(Rule):
    name = "collapse_projects"

    def apply(self, node: FDMFunction) -> FDMFunction | None:
        if not (
            isinstance(node, MappedFunction) and node.op_name == "project"
        ):
            return None
        inner = node.source
        if not (
            isinstance(inner, MappedFunction) and inner.op_name == "project"
        ):
            return None
        outer_attrs = node.op_params()["attrs"]
        inner_attrs = inner.op_params()["attrs"]
        if not set(outer_attrs) <= set(inner_attrs):
            return None
        from repro.fql.project import project

        return project(inner.source, outer_attrs)


class ReorderJoinAtoms(Rule):
    name = "reorder_join_atoms"

    def apply(self, node: FDMFunction) -> FDMFunction | None:
        if not isinstance(node, JoinedRelationFunction):
            return None
        if node.plan.order_hint is not None:
            return None
        from repro.optimizer.joinorder import choose_order

        order = choose_order(node.plan)
        if order == node.plan.order_atoms():
            return None
        from repro.fql.join import JoinPlan

        new_plan = JoinPlan(
            dict(node.plan.atoms), list(node.plan.edges), order_hint=order
        )
        return JoinedRelationFunction(
            node.children[0], new_plan, name=node.fn_name
        )


#: Order matters: pushdowns run before access-path selection so filters
#: sit directly on stored relations when index rules fire.
DEFAULT_RULES: list[Rule] = [
    FuseFilters(),
    PushFilterBelowOrder(),
    PushFilterBelowSetOps(),
    PushFilterBelowGroupAggregate(),
    PushFilterIntoJoin(),
    FilterToKeyLookup(),
    FilterToIndexLookup(),
    FuseGroupAggregate(),
    CollapseProjects(),
    ReorderJoinAtoms(),
]
