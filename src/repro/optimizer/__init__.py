"""The joint PL/DB optimizer over FQL expression graphs (paper §4.2).

``optimize(fn)`` rewrites a derived function into an extensionally equal
but cheaper one; ``explain(fn)`` renders the operator tree with cardinality
estimates; ``split(fn)`` reports the PL↔engine pushdown frontier.
"""

from __future__ import annotations

from typing import Any

from repro.fdm.functions import DerivedFunction, FDMFunction
from repro.optimizer.cardinality import (
    estimate_cardinality,
    estimate_selectivity,
)
from repro.optimizer.joinorder import choose_order, estimate_sequence_cost
from repro.optimizer.physical import (
    FusedGroupAggregateFunction,
    IndexLookupFunction,
    KeyLookupFunction,
)
from repro.optimizer.pushdown import PushdownReport, split
from repro.optimizer.rules import DEFAULT_RULES, Rule

__all__ = [
    "optimize",
    "explain",
    "estimate_cardinality",
    "estimate_selectivity",
    "choose_order",
    "estimate_sequence_cost",
    "split",
    "PushdownReport",
    "Rule",
    "DEFAULT_RULES",
    "FusedGroupAggregateFunction",
    "IndexLookupFunction",
    "KeyLookupFunction",
]

_MAX_PASSES = 8


def optimize(
    fn: FDMFunction,
    rules: list[Rule] | None = None,
    trace: list[str] | None = None,
) -> FDMFunction:
    """Apply rewrite rules bottom-up to a fixpoint (bounded passes).

    The result is a new function graph; the input is never modified —
    optimization itself is an FQL-style out-of-place operation. Pass a
    list as *trace* to collect the names of the rules that fired, in
    firing order (the ``explain`` helpers use this).
    """
    active_rules = DEFAULT_RULES if rules is None else rules
    current = fn
    for _pass in range(_MAX_PASSES):
        rewritten, changed = _rewrite_once(current, active_rules, trace)
        current = rewritten
        if not changed:
            break
    return current


def _rewrite_once(
    fn: FDMFunction, rules: list[Rule], trace: list[str] | None = None
) -> tuple[FDMFunction, bool]:
    # local import: the operator table imports this package's rules
    from repro.operators import operator_of

    changed = False

    def visit(node: FDMFunction) -> FDMFunction:
        nonlocal changed
        if (
            isinstance(node, DerivedFunction)
            and operator_of(node).reads_snapshot
        ):
            # a view answers from its snapshot, which is a leaf: a
            # rewrite beneath it would rebuild the view, re-evaluating
            # its whole expression
            return node
        children = getattr(node, "children", ())
        if children:
            new_children = tuple(visit(child) for child in children)
            if any(
                new is not old for new, old in zip(new_children, children)
            ):
                try:
                    node = node.rebuild(new_children)
                    changed = True
                except TypeError:
                    return node  # not rebuildable; keep the original
        progress = True
        while progress:
            progress = False
            for rule in rules:
                replacement = rule.apply(node)
                if replacement is not None and replacement is not node:
                    node = replacement
                    changed = True
                    progress = True
                    if trace is not None:
                        trace.append(rule.name)
        return node

    return visit(fn), changed


def explain(fn: FDMFunction, estimates: bool = True) -> str:
    """Render the operator tree, optionally with cardinality estimates."""
    lines: list[str] = []

    from repro.fql.join import JoinedRelationFunction

    def visit(node: FDMFunction, indent: int) -> None:
        pad = "  " * indent
        if isinstance(node, DerivedFunction):
            params = ", ".join(
                f"{k}={v!r}" for k, v in node.op_params().items()
            )
            label = f"{pad}{node.op_name}({params})"
        else:
            label = f"{pad}scan {node.name!r} [{node.kind}]"
        if estimates:
            try:
                rows = estimate_cardinality(node)
                label += f"  ~{rows:.0f} rows"
            except Exception:
                pass
        lines.append(label)
        if isinstance(node, JoinedRelationFunction):
            # show the join atoms (which may carry pushed-down filters)
            for atom_name in node.atom_order:
                lines.append("  " * (indent + 1) + f"atom {atom_name!r}:")
                visit(node.plan.atoms[atom_name], indent + 2)
            return
        for child in getattr(node, "children", ()):
            visit(child, indent + 1)

    visit(fn, 0)
    return "\n".join(lines)
