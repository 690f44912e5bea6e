"""Segment reach: which segments of a table a filter can touch.

:func:`surviving_partitions` is the one answer the columnar scan,
``ScanNode.describe``, explain, the partition-wise cardinality estimate
and IVM's static prune sets all read. A one-segment table answers
``{0}`` without walking the predicate; otherwise the answer is the
predicate may-walk (:func:`~repro.predicates.ast.may_hold`, the
transparency that powers pushdown, DESIGN.md §5) with a per-partition
atom test, so it is *conservative* — it keeps every partition a
satisfying row **may** occupy, and anything it cannot decide keeps them
all. Soundness leans on one fact: rows missing the partitioning
attribute (or holding a value the scheme cannot place) land in
partition 0 and can never satisfy an attribute-anchored atom (undefined
attributes fail predicates), so dropping partition 0 when the anchor
excludes it is safe.
"""

from __future__ import annotations

from typing import Any

from repro.partition.scheme import PartitionScheme
from repro.predicates.ast import Atom, Predicate, may_hold

__all__ = ["surviving_partitions"]

_FIRST = frozenset((0,))


def _reach(scheme: PartitionScheme, atom: Atom) -> frozenset[int] | None:
    """The partitions a row satisfying *atom* may live in (``None``:
    any of them)."""
    column, op, value = atom
    if column != scheme.attr:
        return None
    try:
        if op == "==":
            return scheme.partitions_for_eq(value)
        if op == "in":
            union: frozenset[int] = frozenset()
            for element in value:
                got = scheme.partitions_for_eq(element)
                if got is None:
                    return None
                union |= got
            return union
        if op == "between":
            return scheme.partitions_for_range(*value)
        if op in ("<", "<="):
            return scheme.partitions_for_range(hi=value, hi_open=op == "<")
        if op in (">", ">="):
            return scheme.partitions_for_range(lo=value, lo_open=op == ">")
    except Exception:
        return None
    return None  # != reaches every partition (even the anchor's)


def surviving_partitions(
    scheme: PartitionScheme, predicate: Predicate | None
) -> frozenset[int]:
    """The segments a row satisfying *predicate* may live in: per
    segment, the predicate's may-walk with the atom test "may a row
    *scheme* places here satisfy the atom?"."""
    n = scheme.n_partitions
    if n == 1:
        return _FIRST
    if predicate is None or not getattr(predicate, "is_transparent", False):
        return frozenset(range(n))
    return frozenset(
        pid
        for pid in range(n)
        if may_hold(
            predicate,
            lambda atom: (got := _reach(scheme, atom)) is None or pid in got,
        )
    )


def expression_partition_prunes(fn: Any) -> dict[int, tuple[Any, frozenset[int]]]:
    """Per stored leaf of an expression graph, the union of segments
    any occurrence's filters reach (:func:`surviving_partitions`).

    Keyed by ``id(leaf)`` — the same key the IVM state uses for base
    deltas — mapping to ``(leaf, surviving)`` so consumers (explain, the
    IVM skip check) share one graph walk. A leaf referenced anywhere
    *outside* a contiguous filter prefix contributes all its partitions
    (no pruning for that occurrence), so the result is safe to use as a
    skip condition: a commit whose delta tags are disjoint from a leaf's
    surviving set cannot change anything the expression reads from it.
    """
    from repro.fdm.databases import DatabaseFunction
    from repro.fdm.functions import DerivedFunction, FDMFunction
    from repro.fql.filter import FilteredFunction, RestrictedFunction
    from repro.predicates.ast import And
    from repro.storage.relation import StoredRelationFunction

    out: dict[int, tuple[Any, frozenset[int]]] = {}

    def note(leaf: Any, preds: list) -> None:
        table = leaf._engine.tables.get(leaf.table_name)
        if table is None:
            return
        predicate = None
        if preds:
            predicate = preds[0] if len(preds) == 1 else And(*preds)
        surviving = surviving_partitions(table.scheme, predicate)
        prior = out.get(id(leaf))
        if prior is not None:
            surviving = prior[1] | surviving
        out[id(leaf)] = (leaf, surviving)

    def walk(node: Any, preds: list) -> None:
        if isinstance(node, StoredRelationFunction):
            note(node, preds)
            return
        if isinstance(node, FilteredFunction):
            walk(node.source, preds + [node.predicate])
            return
        if isinstance(node, RestrictedFunction):
            walk(node.source, preds)
            return
        if isinstance(node, DatabaseFunction) and not isinstance(
            node, DerivedFunction
        ):
            for _name, value in node.items():
                if isinstance(value, FDMFunction):
                    walk(value, [])
            return
        for child in getattr(node, "children", ()):
            walk(child, [])

    try:
        walk(fn, [])
    except Exception:
        return {}
    return out
