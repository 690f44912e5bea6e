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
    """Kernel backend, static zone verdicts and join probes."""
    from repro.exec.kernels import HAVE_NUMPY, kernel_backend

    out = [
        f"  kernels: {kernel_backend()}"
        + ("" if HAVE_NUMPY else " (numpy unavailable)"),
    ]
    if pipeline is None:
        return out
    for node, _depth in _walk(pipeline.root):
        out.extend(filter(None, (_zone_verdict(node), _join_probe(node))))
    return out


def _join_probe(node: Any) -> str | None:
    """Which probe an image join runs: the one its last run took
    (:func:`analyze`), else a dry run over its atoms' batches, metered
    as inner work of the caller's query (a served EXPLAIN's budgets)."""
    from repro.errors import ResourceExhaustedError
    from repro.exec.nodes import HashJoinNode
    from repro.obs.context import QueryContext, _local
    from repro.obs.resources import active_meter

    if not isinstance(node, HashJoinNode):
        return None
    ran = node.probed
    if ran is None:
        outer = _local.context
        _local.context = QueryContext(active_meter(), pipeline=node)
        try:
            ran = node.dry_probe()
        except ResourceExhaustedError:
            raise
        except Exception as exc:  # explain must never fail
            return f"  join probe: unavailable ({exc})"
        finally:
            _local.context = outer
    if not ran:
        return None  # the bindings path
    took, n = ran
    probe = f"int kernel on {took} of {n} batches" if took else "dict"
    return f"  join probe {' ⋈ '.join(node.fn.atom_order)}: {probe}"


def _zone_verdict(node: Any) -> str | None:
    """Static zone-map verdict for a scan carrying a zone predicate.

    Like the scan, it tests only the segments the predicate reaches,
    each against its *current* statistics — the same bounds execution
    will consult — so its counts are the meter's for a run now.
    """
    from repro.exec.nodes import ScanNode
    from repro.partition.prune import surviving_partitions
    from repro.storage.stats import zone_may_match

    if not isinstance(node, ScanNode) or node.zone_predicate is None:
        return None
    table = node.table()
    if table is None:
        return None
    fn = node.fn
    pred = node.zone_predicate
    reach = surviving_partitions(table.scheme, pred)
    segments = [s for pid, s in enumerate(table.segments) if pid in reach]
    skipped = sum(1 for s in segments if not zone_may_match(s.stats, pred))
    return (
        f"  zone maps {fn.fn_name!r}: scan {len(segments) - skipped}/"
        f"{len(segments)} segments ({skipped} skipped) "
        f"[{pred.to_source()}]"
    )


def analyze(fn: FDMFunction) -> str:
    """Run *fn* once and report per-node batch/row/time counters.

    Routes *fn* the way ``items()`` does, so the run takes the cached
    plan, offloaded or batched, under a verb frame that asks for its
    node rows (:attr:`repro.obs.context.QueryContext.tree`). Renders
    the operator tree annotated with ``batches / rows / wall`` per node
    (``wall`` is inclusive: a node's time includes its children's) plus
    the zone-map skip totals of this run, read off the meter it runs
    under.
    """
    from repro.exec.cache import engine_of
    from repro.exec.run import pipeline_for, route_items
    from repro.obs.context import _local
    from repro.obs.instrument import render_stats
    from repro.obs.resources import metered

    with metered(engine_of(fn)) as meter:
        frame = _local.context
        tree = frame.tree = []
        start = time.perf_counter_ns()
        routed = route_items(fn)
        if routed is None:  # it runs per key: inner queries are not its nodes
            frame.tree, routed = None, fn.items()
        n = sum(1 for _ in routed)
        total_wall = time.perf_counter_ns() - start

    lines: list[str] = ["== analyze =="]
    if not tree:
        lines.append("  (naive per-key interpretation)")
        lines.append(f"  rows={n} wall={fmt_ns(total_wall)}")
        return "\n".join(lines)
    lines.extend(render_stats(tree))
    skipped = meter.zone_segments_skipped
    scanned = meter.zone_segments_scanned
    if skipped or scanned:
        lines.append(
            f"  zone maps: {skipped} segment(s) skipped, {scanned} scanned"
        )
    lines.append(f"  total wall={fmt_ns(total_wall)}")
    lines.extend(_batching_summary(pipeline_for(fn)))
    return "\n".join(lines)


def _partition_summary(fn: FDMFunction) -> list[str]:
    """Per base table of several segments: scheme and pruning verdict.

    Scan lines of the physical pipeline carry the same verdict; this
    section also covers leaves that never lower to a scan node (join
    atoms), so the partition story is visible in one place.
    """
    from repro.fdm.relations import table_of
    from repro.partition.prune import expression_partition_prunes

    prunes = expression_partition_prunes(fn)
    out = []
    for leaf, surviving in prunes.values():
        table = table_of(leaf)
        total = 0 if table is None else len(table.segments)
        if total < 2:  # one segment has no fan-out to report
            continue
        out.append(
            f"  {leaf.fn_name!r}: {table.scheme.describe()}, "
            f"scan {len(surviving)}/{total} partitions "
            f"({total - len(surviving)} pruned)"
        )
    return out
