"""``lower(fn)``: compile a logical derived-function graph into a
physical pipeline (DESIGN.md §6).

A derived FQL function *is* its own logical plan (DESIGN.md §5); this
module is the other half of the split — each logical operator class
names its physical node in the operator table (:mod:`repro.operators`).
Operators without an entry fall back to a
:class:`~repro.exec.nodes.NaiveNode` leaf (their subtree runs per-key),
so lowering is total: it never fails, it only degrades.
"""

from __future__ import annotations

from typing import Any

from repro.fdm.functions import DerivedFunction, FDMFunction
from repro.exec.nodes import (
    FilterNode,
    NaiveNode,
    PhysicalNode,
    RestrictNode,
    ScanNode,
)

__all__ = ["lower", "PhysicalPipeline"]


class PhysicalPipeline:
    """A lowered plan: the physical root plus provenance for explain."""

    def __init__(
        self,
        root: PhysicalNode,
        logical: FDMFunction,
        fired_rules: list[str] | None = None,
        engine: Any = None,
    ):
        self.root = root
        self.logical = logical
        self.fired_rules = list(fired_rules or [])
        #: The storage engine the router resolved for *logical*: where
        #: this plan's cache, meter rollup and profile live.
        self.engine = engine
        #: Memo of :func:`repro.obs.workload.info_of`.
        self.workload_info: tuple | None = None

    def iter_entries(self):
        """Flattened (key, value) stream, in naive-equivalent order."""
        for batch in self.root.batches():
            yield from batch

    def iter_keys(self):
        """Flattened key stream (values computed only where required)."""
        for batch in self.root.key_batches():
            yield from batch

    def iter_batches(self):
        """The root's batches, unflattened (the wire encoder's drain)."""
        return self.root.batches()

    def explain(self) -> str:
        """Indented rendering of the physical operator tree."""
        lines: list[str] = []

        def visit(node: PhysicalNode, indent: int) -> None:
            lines.append("  " * indent + node.describe())
            for child in node.children:
                visit(child, indent + 1)

        visit(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<PhysicalPipeline root={self.root.describe()!r}>"


def lower(
    fn: FDMFunction,
    logical: FDMFunction | None = None,
    fired_rules: list[str] | None = None,
    engine: Any = None,
) -> PhysicalPipeline | None:
    """Lower *fn* (usually an optimized graph) into a physical pipeline.

    Returns ``None`` when the root operator has no specialized lowering —
    the caller then keeps the per-key interpretation, which is exactly
    what a :class:`NaiveNode` wrapping the root would do, minus a layer.
    """
    root = _node_for(fn)
    if isinstance(root, NaiveNode) and root.fn is fn:
        return None
    _attach_scan_predicates(root)
    # NB: not `logical or fn` — truthiness of an FDM function is len()
    return PhysicalPipeline(
        root, fn if logical is None else logical, fired_rules, engine
    )


def _attach_scan_predicates(
    node: PhysicalNode, pending: list | None = None
) -> None:
    """Push transparent filter conjunctions down onto their scan leaves.

    Walks the physical tree collecting the transparent predicates of
    consecutive filter/restrict nodes; when the chain bottoms out at a
    :class:`ScanNode` over a stored relation, the conjunction becomes the
    scan's zone predicate, which the scan tests each segment against
    when it runs — the partition scheme first, then the segment's zone
    map (DESIGN.md §10, §13). Any other node breaks the chain (a map
    re-shapes tuples, a limit re-orders nothing but the pending filters
    no longer sit directly above the scan's output).
    """
    from repro.predicates.ast import And

    if pending is None:
        pending = []
    if isinstance(node, FilterNode):
        below = (
            pending + [node.predicate]
            if node.predicate.is_transparent
            else []
        )
        _attach_scan_predicates(node.children[0], below)
        return
    if isinstance(node, RestrictNode):
        # restriction only drops keys: filters above still apply to
        # every row the scan produces
        _attach_scan_predicates(node.children[0], pending)
        return
    if isinstance(node, ScanNode):
        from repro.storage.relation import StoredRelationFunction

        if pending and isinstance(node.fn, StoredRelationFunction):
            node.zone_predicate = (
                pending[0] if len(pending) == 1 else And(*pending)
            )
        return
    for child in node.children:
        _attach_scan_predicates(child, [])


def _node_for(fn: FDMFunction) -> PhysicalNode:
    if not isinstance(fn, DerivedFunction):
        return ScanNode(fn)
    # local import: the operator table imports the layers that call it
    from repro.operators import operator_of

    entry = operator_of(fn)
    return NaiveNode(fn) if entry.lower is None else entry.lower(fn, _node_for)
