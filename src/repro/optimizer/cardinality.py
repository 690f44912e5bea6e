"""Cardinality estimation over derived-function graphs.

Relations carry their table's live statistics (row counts, distinct
values, min/max); everything else uses the textbook defaults (equality
1/V(attr), range one-third, independence across conjuncts). Estimates
feed the join orderer and the explain output — they never affect result
correctness, only physical choices.
"""

from __future__ import annotations

from typing import Any

from repro.fdm.functions import DerivedFunction, FDMFunction
from repro.predicates.ast import (
    And,
    Atom,
    Not,
    Or,
    Predicate,
    TruePredicate,
    atom_of,
)
from repro.fdm.relations import table_of

__all__ = ["estimate_cardinality", "estimate_selectivity"]

#: Defaults when no statistics apply.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1 / 3
DEFAULT_OPAQUE_SELECTIVITY = 1 / 3
DEFAULT_GROUP_SHRINK = 10


def _stats_of(fn: FDMFunction) -> Any:
    table = table_of(fn)
    return None if table is None else table.stats


def estimate_selectivity(pred: Predicate, source: FDMFunction) -> float:
    """Estimated fraction of mappings the predicate keeps."""
    return _selectivity_against(pred, _stats_of(source))


def _selectivity_against(pred: Predicate, stats: Any) -> float:
    """Selectivity of *pred* against one statistics carrier (the whole
    table's, or — for partition-pruned estimates — one segment's)."""

    def of(p: Predicate) -> float:
        if isinstance(p, TruePredicate):
            return 1.0
        if isinstance(p, And):
            out = 1.0
            for part in p.parts:
                out *= of(part)
            return out
        if isinstance(p, Or):
            out = 0.0
            for part in p.parts:
                out += of(part)
            return min(1.0, out)
        if isinstance(p, Not):
            return max(0.0, 1.0 - of(p.operand))
        atom = atom_of(p)
        if atom is None:
            return DEFAULT_OPAQUE_SELECTIVITY
        return _atom_selectivity(atom, stats)

    return max(0.0, min(1.0, of(pred)))


def _atom_selectivity(atom: Atom, stats: Any) -> float:
    """Selectivity of one atom: the attribute's statistics where they
    exist, else the textbook default for its operator."""
    column, op, value = atom
    if op == "in":
        return min(1.0, len(value) * DEFAULT_EQ_SELECTIVITY)
    attr_stats = None
    if stats is not None and column is not None:
        attr_stats = stats.attr(column)
    if op in ("==", "!="):
        if attr_stats is None:
            sel = DEFAULT_EQ_SELECTIVITY
        else:
            sel = attr_stats.selectivity_eq(value)
        return sel if op == "==" else 1.0 - sel
    if attr_stats is None:
        return DEFAULT_RANGE_SELECTIVITY
    if op == "between":
        return attr_stats.selectivity_range(*value)
    if op in ("<", "<="):
        return attr_stats.selectivity_range(None, value)
    return attr_stats.selectivity_range(value, None)


def estimate_cardinality(fn: FDMFunction) -> float:
    """Estimated number of mappings of *fn* (never enumerates non-leaves
    when statistics can answer). Each operator's estimate is its ``rows``
    entry in the operator table (:mod:`repro.operators`)."""
    stats = _stats_of(fn)
    if stats is not None:
        return float(stats.row_count)
    if isinstance(fn, DerivedFunction):
        # local import: the operator table imports this module
        from repro.operators import operator_of

        rows = operator_of(fn).rows
        if rows is not None:
            return rows(fn)
    # other leaves (and operators that declare no estimate) know their
    # size; data spaces count as big
    if fn.is_enumerable:
        try:
            return float(len(fn))
        except Exception:
            return float(sum(1 for _ in fn.keys()))
    return float("inf")


def filter_rows(fn: Any) -> float:
    """σ: source rows × selectivity, tightened by partition pruning."""
    base = _base_of(fn.source)
    standard = estimate_cardinality(fn.source) * estimate_selectivity(
        fn.predicate, base
    )
    pruned = _pruned_filter_estimate(fn.predicate, base)
    if pruned is not None:
        return min(standard, pruned)
    return standard


def group_rows(fn: Any) -> float:
    """γ (``group`` or the fused group-aggregate, one estimate for both
    so fusing a plan never moves it): the product of the group-by
    attributes' distinct counts when statistics know them, else a fixed
    shrink of the source."""
    source, by = fn.source, fn._by
    base = estimate_cardinality(source)
    stats = _stats_of(_base_of(source))
    if stats is not None and by.attrs:
        distinct = 1.0
        for attr in by.attrs:
            attr_stats = stats.attr(attr)
            if attr_stats is not None:
                distinct *= max(1, attr_stats.n_distinct)
        return float(min(base, distinct))
    return max(1.0, base / DEFAULT_GROUP_SHRINK)


def join_rows(fn: Any) -> float:
    """⋈: the atoms' product, divided per edge by its larger side."""
    plan = fn.plan
    total = 1.0
    for atom in plan.atoms.values():
        total *= max(1.0, estimate_cardinality(atom))
    for left, right in plan.edges:
        left_size = max(1.0, estimate_cardinality(plan.atoms[left.atom]))
        right_size = max(1.0, estimate_cardinality(plan.atoms[right.atom]))
        total /= max(left_size, right_size)
    return max(0.0, total)


def index_lookup_rows(fn: Any) -> float:
    """Index access: source rows × the indexed attribute's selectivity."""
    stats = _stats_of(fn.source)
    params = fn.op_params()
    if stats is not None:
        attr_stats = stats.attr(params["attr"])
        if attr_stats is not None:
            if "eq" in params:
                sel = attr_stats.selectivity_eq(params["eq"])
            else:
                lo, hi = params["range"]
                sel = attr_stats.selectivity_range(lo, hi)
            return estimate_cardinality(fn.source) * sel
    return estimate_cardinality(fn.source) * DEFAULT_EQ_SELECTIVITY


def _pruned_filter_estimate(
    pred: Predicate, base: FDMFunction
) -> float | None:
    """Partition-wise filter estimate (DESIGN.md §10).

    When the filter's statistics carrier is a relation whose
    segments the filter cannot all reach, estimate per *surviving*
    partition against that segment's own statistics and sum:
    ``Σ rows_p × sel_p(pred)``. Matching rows concentrate in the
    surviving partitions, so applying the whole-table
    selectivity to the surviving row count would double-count the
    partition-anchored conjunct (≈n_partitions× too low for equality
    predicates); segment-local distributions instead tighten estimates
    exactly where global stats mislead (clustered ranges, skew). The
    caller takes ``min`` with the standard estimate, so pruning can only
    ever tighten.
    """
    from repro.partition.prune import surviving_partitions

    table = table_of(base)
    if table is None:
        return None
    surviving = surviving_partitions(table.scheme, pred)
    if len(surviving) >= len(table.segments):
        return None  # nothing pruned: the plain path is identical
    segments = [table.segments[pid].stats for pid in surviving]
    return float(
        sum(s.row_count * _selectivity_against(pred, s) for s in segments)
    )


def _base_of(fn: FDMFunction) -> FDMFunction:
    """Descend key-preserving unary chains to the statistics carrier."""
    while True:
        children = getattr(fn, "children", ())
        if table_of(fn) is not None or len(children) != 1:
            return fn
        fn = children[0]
