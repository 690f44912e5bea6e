"""Per-node statistics: the walk that numbers a plan's nodes, and the
rows ``analyze()``, the slow log and trace spans render.

A run's counts are not kept here. Every batch a node yields passes its
:meth:`~repro.exec.nodes.PhysicalNode.funnel`, which adds to the node's
row in the running query's context (:mod:`repro.obs.context`), by the
ordinal ``lower()`` gave the node. A node's ``wall`` is inclusive: the
time spent inside its stream, its children's pulls included, so a
parent's wall is at least each child's.
"""

from __future__ import annotations

from typing import Any, Iterator

__all__ = ["walk", "tree_stats", "render_stats", "fmt_ns"]


def walk(node: Any, depth: int = 0) -> Iterator[tuple[Any, int]]:
    """Depth-first (node, depth) traversal of a physical operator tree."""
    yield node, depth
    for child in getattr(node, "children", ()):
        yield from walk(child, depth + 1)


def tree_stats(root: Any, rows: list[list[int]]) -> list[dict[str, Any]]:
    """One run's node rows (``[batches, rows, wall_ns, first_ns]`` by
    ordinal) as the tree under *root*, flattened to plain data safe to
    keep after the plan is gone (slow-query entries outlive it)."""
    out = []
    for node, depth in walk(root):
        batches, rows_out, wall_ns, _first = rows[node.ordinal]
        out.append(
            {
                "depth": depth,
                "node": node.describe(),
                "batches": batches,
                "rows_in": sum(rows[c.ordinal][1] for c in node.children),
                "rows_out": rows_out,
                "wall_ns": wall_ns,
            }
        )
    return out


def render_stats(rows: list[dict[str, Any]], indent: int = 1) -> list[str]:
    """Human lines for :func:`tree_stats` rows (analyze/slowlog output),
    closed by a line saying that ``wall`` is inclusive."""
    return [
        "  " * (row["depth"] + indent)
        + row["node"]
        + f"  [batches={row['batches']} rows_in={row['rows_in']}"
        + f" rows_out={row['rows_out']} wall={fmt_ns(row['wall_ns'])}]"
        for row in rows
    ] + ["  " * indent + "(wall is inclusive: a node's includes its children's)"]


def fmt_ns(ns: int) -> str:
    """A wall-clock duration in adaptive ns/us/ms units."""
    if ns >= 1_000_000:
        return f"{ns / 1_000_000:.2f}ms"
    if ns >= 1_000:
        return f"{ns / 1_000:.1f}us"
    return f"{ns}ns"
