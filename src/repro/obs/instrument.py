"""Per-node pipeline instrumentation.

:func:`instrument_pipeline` wraps every physical node's ``batches``
stream with counting/timing shims and returns the stats mapping.
The shims monkeypatch ``node.batches`` on a *specific node instance*, so
only freshly lowered pipelines are ever instrumented, never the cached
ones served to ordinary queries: :func:`fresh_instrumented` is the one
way ``analyze()`` and an observed enumeration
(:mod:`repro.obs.context`) get a pipeline with shims on.
"""

from __future__ import annotations

import time
from typing import Any, Iterator

__all__ = [
    "walk",
    "instrument_pipeline",
    "fresh_instrumented",
    "tree_stats",
    "render_stats",
    "fmt_ns",
]


def walk(node: Any, depth: int = 0) -> Iterator[tuple[Any, int]]:
    """Depth-first (node, depth) traversal of a physical operator tree."""
    yield node, depth
    for child in getattr(node, "children", ()):
        yield from walk(child, depth + 1)


def instrument_pipeline(root: Any) -> dict[int, dict[str, int]]:
    """Wrap every node's ``batches`` with counting/timing shims.

    Returns ``{id(node): {"batches", "rows", "wall_ns", "first_ns"}}``;
    ``wall_ns`` is time spent *inside* the node's generator (children's
    time excluded by construction, since their shims subtract the same
    way), ``first_ns`` the monotonic instant of the first pull.
    """
    stats: dict[int, dict[str, int]] = {}
    for node, _depth in walk(root):
        if id(node) in stats:
            continue
        st = {"batches": 0, "rows": 0, "wall_ns": 0, "first_ns": 0}
        stats[id(node)] = st
        original = node.batches

        def wrapped(original=original, st=st):
            it = original()
            while True:
                t0 = time.perf_counter_ns()
                if not st["first_ns"]:
                    st["first_ns"] = t0
                try:
                    batch = next(it)
                except StopIteration:
                    st["wall_ns"] += time.perf_counter_ns() - t0
                    return
                st["wall_ns"] += time.perf_counter_ns() - t0
                st["batches"] += 1
                st["rows"] += len(batch)
                yield batch

        node.batches = wrapped
    return stats


def fresh_instrumented(fn: Any, engine: Any = None) -> tuple[Any, dict]:
    """Plan *fn* afresh with the router's own rules and shim every node.

    Returns ``(pipeline, stats)``, or ``(None, {})`` when the root has
    no specialized lowering. Never consults the plan cache and never
    offloads: the copy exists to be measured node by node.
    """
    from repro.exec.lower import lower
    from repro.exec.run import pipeline_rules
    from repro.optimizer import optimize

    fired: list[str] = []
    optimized = optimize(fn, rules=pipeline_rules(), trace=fired)
    pipeline = lower(optimized, logical=fn, fired_rules=fired, engine=engine)
    if pipeline is None:
        return None, {}
    return pipeline, instrument_pipeline(pipeline.root)


def tree_stats(
    root: Any, stats: dict[int, dict[str, int]]
) -> list[dict[str, Any]]:
    """The instrumented tree flattened to rows safe to keep after the
    pipeline is gone (slow-query entries outlive their plan objects)."""
    out = []
    for node, depth in walk(root):
        st = stats.get(id(node), {})
        rows_in = sum(
            stats.get(id(c), {}).get("rows", 0)
            for c in getattr(node, "children", ())
        )
        out.append(
            {
                "depth": depth,
                "node": node.describe(),
                "batches": st.get("batches", 0),
                "rows_in": rows_in,
                "rows_out": st.get("rows", 0),
                "wall_ns": st.get("wall_ns", 0),
            }
        )
    return out


def render_stats(rows: list[dict[str, Any]], indent: int = 1) -> list[str]:
    """Human lines for :func:`tree_stats` rows (analyze/slowlog output)."""
    return [
        "  " * (row["depth"] + indent)
        + row["node"]
        + f"  [batches={row['batches']} rows_in={row['rows_in']}"
        + f" rows_out={row['rows_out']} wall={fmt_ns(row['wall_ns'])}]"
        for row in rows
    ]


def fmt_ns(ns: int) -> str:
    """A wall-clock duration in adaptive ns/us/ms units."""
    if ns >= 1_000_000:
        return f"{ns / 1_000_000:.2f}ms"
    if ns >= 1_000:
        return f"{ns / 1_000:.1f}us"
    return f"{ns}ns"
