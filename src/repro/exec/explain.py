"""``explain(fn)``: the full story of one query, as text.

Renders three layers — the logical derived-function graph exactly as the
user wrote it, the optimizer rules that fired (in order, with repeats),
and the lowered physical pipeline the executor will pull batches
through. ``examples/explain_pipeline.py`` walks through reading the
output; README.md documents the format.
"""

from __future__ import annotations

import time
from typing import Any

from repro.fdm.functions import FDMFunction
from repro.exec.lower import lower
from repro.obs.instrument import fmt_ns
from repro.obs.instrument import walk as _walk

__all__ = ["explain", "analyze"]


def explain(fn: FDMFunction, estimates: bool = True) -> str:
    """Explain logical plan, fired rules, and physical pipeline for *fn*.

    Uses the executor's own rule set (``pipeline_rules()``), so the
    printed pipeline is the one transparent enumeration actually runs —
    not the hypothetical plan of a full ``optimize()`` call, which may
    additionally apply enumeration-order-changing rules (index access,
    join reordering).
    """
    from repro.optimizer import explain as logical_explain, optimize
    from repro.exec.run import pipeline_rules

    lines: list[str] = ["== logical plan =="]
    lines.append(logical_explain(fn, estimates=estimates))

    trace: list[str] = []
    optimized = optimize(fn, rules=pipeline_rules(), trace=trace)

    lines.append("")
    lines.append("== rules fired ==")
    if trace:
        lines.extend(f"  {i + 1}. {name}" for i, name in enumerate(trace))
    else:
        lines.append("  (none)")

    if optimized is not fn:
        lines.append("")
        lines.append("== optimized plan ==")
        lines.append(logical_explain(optimized, estimates=estimates))

    partition_lines = _partition_summary(fn)
    if partition_lines:
        lines.append("")
        lines.append("== partitioning ==")
        lines.extend(partition_lines)

    lines.append("")
    lines.append("== physical pipeline ==")
    pipeline = lower(optimized, logical=fn, fired_rules=trace)
    if pipeline is None:
        lines.append("  (naive per-key interpretation)")
    else:
        lines.append(pipeline.explain())

    lines.append("")
    lines.append("== offload ==")
    lines.extend(_offload_summary(fn, optimized))

    lines.append("")
    lines.append("== batching ==")
    lines.extend(_batching_summary(pipeline))
    return "\n".join(lines)


def _offload_summary(fn: FDMFunction, optimized: Any) -> list[str]:
    """The SQL-offload verdict (and compiled SQL) for this query.

    Delegates to :func:`repro.compile.offload.explain_offload`, which
    walks the same gates the router does without touching the fallback
    counters; any surprise degrades to a one-line note rather than
    breaking ``explain()``.
    """
    try:
        from repro.compile.offload import explain_offload

        return explain_offload(fn, optimized)
    except Exception as exc:  # explain must never fail
        return [f"  (offload explain unavailable: {exc})"]


def _batching_summary(pipeline: Any) -> list[str]:
    """Kernel backend and static zone verdicts."""
    from repro.exec.kernels import HAVE_NUMPY, kernel_backend

    out = [
        f"  kernels: {kernel_backend()}"
        + ("" if HAVE_NUMPY else " (numpy unavailable)"),
    ]
    if pipeline is None:
        return out
    for node, _depth in _walk(pipeline.root):
        zone_line = _zone_verdict(node)
        if zone_line is not None:
            out.append(zone_line)
    return out


def _zone_verdict(node: Any) -> str | None:
    """Static zone-map verdict for a scan carrying a zone predicate.

    The verdict is computed against each segment's *current*
    statistics — the same bounds execution will consult.
    """
    from repro.exec.nodes import ScanNode
    from repro.storage.stats import zone_may_match

    if not isinstance(node, ScanNode) or node.zone_predicate is None:
        return None
    fn = node.fn
    pred = node.zone_predicate
    engine = getattr(fn, "_engine", None)
    table = None if engine is None else engine.tables.get(fn.table_name)
    if table is None:
        return None
    segments = table.segments if table.is_partitioned else [table]
    skipped = sum(1 for s in segments if not zone_may_match(s.stats, pred))
    return (
        f"  zone maps {fn.fn_name!r}: scan {len(segments) - skipped}/"
        f"{len(segments)} segments ({skipped} skipped) "
        f"[{pred.to_source()}]"
    )


def analyze(fn: FDMFunction) -> str:
    """Run *fn* once and report per-node batch/row/time counters.

    Drains a fresh instrumented copy of the plan
    (:func:`repro.obs.instrument.fresh_instrumented`, the same copy a
    traced or slow-logged enumeration drains; never the cached plan)
    and renders the operator tree annotated with ``batches / rows /
    wall`` per node plus the zone-map skip totals the run accumulated.
    """
    from repro.exec.batch import counters
    from repro.obs.instrument import (
        fresh_instrumented,
        render_stats,
        tree_stats,
    )

    pipeline, stats = fresh_instrumented(fn)

    lines: list[str] = ["== analyze =="]
    if pipeline is None:
        start = time.perf_counter_ns()
        n = sum(1 for _ in fn.items())
        wall = time.perf_counter_ns() - start
        lines.append("  (naive per-key interpretation)")
        lines.append(f"  rows={n} wall={fmt_ns(wall)}")
        return "\n".join(lines)

    before = counters.snapshot()
    start = time.perf_counter_ns()
    for _batch in pipeline.root.batches():
        pass
    total_wall = time.perf_counter_ns() - start
    after = counters.snapshot()

    lines.extend(render_stats(tree_stats(pipeline.root, stats)))
    skipped = after["zone_segments_skipped"] - before["zone_segments_skipped"]
    scanned = after["zone_segments_scanned"] - before["zone_segments_scanned"]
    if skipped or scanned:
        lines.append(
            f"  zone maps: {skipped} segment(s) skipped, {scanned} scanned"
        )
    lines.append(f"  total wall={fmt_ns(total_wall)}")
    lines.extend(_batching_summary(pipeline))
    return "\n".join(lines)


def _partition_summary(fn: FDMFunction) -> list[str]:
    """Per partitioned base table: scheme and pruning verdict.

    Scan lines of the physical pipeline carry the same verdict; this
    section also covers leaves that never lower to a scan node (join
    atoms), so the partition story is visible in one place.
    """
    from repro.partition.prune import expression_partition_prunes

    prunes = expression_partition_prunes(fn)
    out = []
    for leaf, surviving in prunes.values():
        table = leaf._engine.tables.get(leaf.table_name)
        if table is None:
            continue
        total = table.n_partitions
        out.append(
            f"  {leaf.fn_name!r}: {table.scheme.describe()}, "
            f"scan {len(surviving)}/{total} partitions "
            f"({total - len(surviving)} pruned)"
        )
    return out
