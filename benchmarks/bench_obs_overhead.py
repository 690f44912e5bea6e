"""The observability tax on the paper's hottest figure workload.

`docs/observability.md` promises that the tracing/metrics/slow-log
machinery is inert when off: fig04bc grouping with ``REPRO_TRACE=off``
must stay within 5% of the untraced path, and sampled tracing at rate
0.01 must stay close behind. This module measures exactly the workload
``bench_fig04bc_grouping.test_exec_batched_unrolled`` guards — diff the
``trace_off`` row in ``BENCH_obs_overhead.json`` against that module's
committed baseline to see the absolute trajectory.

Five legs:

* ``trace_off`` — the default serving configuration; the guarded number.
* ``sampled`` — rate 0.01 through :func:`maybe_trace`, the head-based
  sampling entry the server uses; ~1 in 100 runs pays the capture cost.
* ``fully_traced`` — every run rooted with :func:`start_trace`
  (per-node wall times and spans from the cached plan's run); measured
  for context, deliberately not held to an overhead budget.
* ``slowlog_armed`` — small top-k and filter queries over a 20 000-row
  stored table with the slow log armed at a threshold that never
  fires, against the log disarmed: every armed run times its nodes,
  and that must stay within the same 5%.
* ``routed_fixed_cost`` — what a small read pays beyond its rows: a
  routed drain of a cached 20-row filter over 1 000 rows against a raw
  drain of the same plan (``FIXED_COST_BOUND``).

The <5% claim is asserted in-run with paired, interleaved medians so a
machine-speed difference against an old committed JSON cannot fake a
pass or a failure.
"""

import random
import statistics
import time

import pytest

import repro
from repro import fql
from repro.exec.run import pipeline_for, route_batches
from repro.obs.trace import (
    clear_traces,
    latest_trace_id,
    maybe_trace,
    start_trace,
    using_trace_mode,
)


def _unrolled(db):
    groups = fql.group(by=["age"], input=db.customers)
    return fql.aggregate(groups, count=fql.Count())


def _paired_medians(run_a, run_b, rounds=40):
    """Median seconds for two runners, sampled alternately so clock
    drift and cache warmth cancel out instead of biasing one side."""
    a, b = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        run_a()
        a.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_b()
        b.append(time.perf_counter() - t0)
    return statistics.median(a), statistics.median(b)


@pytest.mark.benchmark(group="obs_overhead")
def test_trace_off(benchmark, fdm_retail, exec_batch):
    """fig04bc grouping under REPRO_TRACE=off: the guarded number.

    Also asserts the 5% budget directly: sampled tracing at rate 0.01
    (the production head-sampling configuration) must sit within 5% of
    the off mode, measured paired in this very process. The ratio is
    recorded in the JSON as evidence.
    """
    expr = _unrolled(fdm_retail)

    def run():
        return {k: t("count") for k, t in expr.items()}

    with using_trace_mode("off"):
        dict(expr.items())  # warm the plan cache
        result = benchmark(run)
    assert sum(result.values()) == len(fdm_retail.customers)

    def run_sampled():
        with maybe_trace("bench.fig04bc"):
            return {k: t("count") for k, t in expr.items()}

    with using_trace_mode("off"):
        off_med, _ = _paired_medians(run, run)
    with using_trace_mode("0.01"):
        off_med, sampled_med = _paired_medians(run, run_sampled)
    clear_traces()
    ratio = sampled_med / off_med if off_med else 1.0
    benchmark.extra_info["sampled_rate"] = 0.01
    benchmark.extra_info["sampled_over_off_ratio"] = round(ratio, 4)
    # <5% budget, with an absolute floor so sub-millisecond jitter on a
    # fast machine cannot flake the gate
    assert ratio < 1.05 or (sampled_med - off_med) < 0.0005, (
        f"sampled tracing costs {ratio:.3f}x the off mode "
        f"({off_med * 1e3:.3f}ms -> {sampled_med * 1e3:.3f}ms)"
    )


@pytest.mark.benchmark(group="obs_overhead")
def test_metering_default_on(benchmark, fdm_retail, exec_batch):
    """Resource metering is always on (unlike tracing), so the number
    that matters is the routed drain (``expr.items()``: its meter, its
    query context and the one generator above the pipeline) against
    the cached plan's own stream (``pipeline_for(expr).iter_entries()``),
    which runs unobserved — paired in-process. The routed path must stay within the same <5%
    observability tax the tracing machinery honours; the ratio is
    recorded in the JSON as evidence.
    """
    expr = _unrolled(fdm_retail)

    def run():
        return {k: t("count") for k, t in expr.items()}

    with using_trace_mode("off"):
        dict(expr.items())  # warm the plan cache
        result = benchmark(run)
        assert sum(result.values()) == len(fdm_retail.customers)

        def run_bare():
            # the same plan-cache lookup, minus the observed enumeration
            stream = pipeline_for(expr).iter_entries()
            return {k: t("count") for k, t in stream}

        assert run_bare() == result
        bare_med, routed_med = _paired_medians(run_bare, run)
    ratio = routed_med / bare_med if bare_med else 1.0
    benchmark.extra_info["routed_over_bare_ratio"] = round(ratio, 4)
    # <5% budget, with an absolute floor so sub-millisecond jitter on a
    # fast machine cannot flake the gate
    assert ratio < 1.05 or (routed_med - bare_med) < 0.0005, (
        f"the metered, routed drain costs {ratio:.3f}x the plan's own "
        f"stream ({bare_med * 1e3:.3f}ms -> {routed_med * 1e3:.3f}ms)"
    )


@pytest.mark.benchmark(group="obs_overhead")
def test_trace_sampled(benchmark, fdm_retail, exec_batch):
    """The serving path's configuration: head sampling at rate 0.01."""
    expr = _unrolled(fdm_retail)

    def run():
        with maybe_trace("bench.fig04bc"):
            return {k: t("count") for k, t in expr.items()}

    with using_trace_mode("0.01"):
        dict(expr.items())  # warm the plan cache
        result = benchmark(run)
    clear_traces()
    assert sum(result.values()) == len(fdm_retail.customers)


@pytest.mark.benchmark(group="obs_overhead")
def test_fully_traced(benchmark, fdm_retail, exec_batch):
    """Worst case: every run rooted, so each query times its nodes and
    records per-node spans. Context only — no budget asserted."""
    expr = _unrolled(fdm_retail)

    def run():
        with start_trace("bench.fig04bc"):
            return {k: t("count") for k, t in expr.items()}

    with using_trace_mode("on"):
        dict(expr.items())  # warm the plan cache
        result = benchmark(run)
    assert sum(result.values()) == len(fdm_retail.customers)
    assert latest_trace_id() is not None  # capture really happened
    clear_traces()


def _orders(name):
    """A 20 000-row stored table shaped like ``embedded_batch``'s
    ``orders``: what the small read classes filter and rank."""
    rng = random.Random(7)
    db = repro.connect(name=name, default=False)
    db["orders"] = {
        i: {
            "amount": rng.randrange(100_000),
            "day": rng.randrange(365),
            "score": rng.random(),
        }
        for i in range(20_000)
    }
    return db


@pytest.mark.benchmark(group="obs_overhead")
@pytest.mark.parametrize("shape", ["topk", "filter"])
def test_slowlog_armed(benchmark, exec_batch, shape):
    """The slow log armed with a threshold that never fires, against it
    disarmed, paired in-process: an armed run drains the cached plan
    and times its nodes, so it must stay within the 5% budget. The
    ratio is recorded in the JSON as evidence."""
    db = _orders(f"bench-slowlog-{shape}")
    orders = db.orders
    if shape == "topk":
        expr = fql.limit(
            fql.order_by(fql.filter("day < 24", input=orders), "score",
                         reverse=True),
            50,
        )
    else:
        expr = fql.filter("amount > 99000", input=orders)

    def run():
        return sum(1 for _ in expr.items())

    def disarmed():
        db.set_slow_query_threshold(None)
        return run()

    def armed():
        db.set_slow_query_threshold(60_000.0)  # ms: no run comes near it
        return run()

    try:
        expected = disarmed()  # plan once: both sides hit the plan cache
        assert benchmark(armed) == expected
        off_med, on_med = _paired_medians(disarmed, armed, rounds=200)
        assert db.slow_queries() == []
    finally:
        db.set_slow_query_threshold(None)
        db.close()
    ratio = on_med / off_med if off_med else 1.0
    benchmark.extra_info["slowlog_armed_over_disarmed_ratio"] = round(ratio, 4)
    # <5% budget, with the absolute floor the other legs use
    assert ratio < 1.05 or (on_med - off_med) < 0.0005, (
        f"an armed slow log costs {ratio:.3f}x the disarmed one on "
        f"{shape} ({off_med * 1e3:.3f}ms -> {on_med * 1e3:.3f}ms)"
    )


#: What a small read's routed run may cost over a raw drain of its cached
#: plan, and the absolute floor under which the difference is jitter.
#: The aim is 2.0 (ROADMAP item 2); on a 2-core VM the leg reads
#: 2.45-2.6, and read 2.75-3.0 while routing still imported modules
#: and went through ``os.environ.get`` on every query.
FIXED_COST_BOUND = 2.75
FIXED_COST_FLOOR_S = 5e-6


@pytest.mark.benchmark(group="obs_overhead")
def test_routed_fixed_cost(benchmark, exec_batch):
    """A small read pays for its rows, not for the stack: a routed drain
    of a cached plan (``route_batches``: the plan-cache lookup, a meter,
    its live registration and its class fold) against a raw drain of
    the same plan's batches, paired in-process. The query is a served
    ``filter20``'s shape: a 1 000-row stored table whose filter keeps 20
    rows, so the drain itself is small and the fixed cost shows. The
    ratio is recorded in the JSON as evidence."""
    rng = random.Random(7)
    db = repro.connect(name="bench-fixed-cost", default=False)
    db["customers"] = {
        i: {"age": rng.randrange(18, 90), "bucket": i % 50, "tier": i % 3}
        for i in range(1000)
    }
    expr = fql.filter(db.customers, "bucket == $b", {"b": 7})

    def routed():
        return sum(len(batch) for batch in route_batches(expr))

    def raw():
        return sum(len(batch) for batch in plan.iter_batches())

    try:
        plan = pipeline_for(expr)  # plans once: both sides run the cached plan
        assert routed() == raw() == 20
        assert benchmark(routed) == 20
        raw_med, routed_med = _paired_medians(raw, routed, rounds=2000)
    finally:
        db.close()
    ratio = routed_med / raw_med if raw_med else 1.0
    benchmark.extra_info["routed_over_raw_ratio"] = round(ratio, 4)
    assert (
        ratio <= FIXED_COST_BOUND
        or routed_med - raw_med < FIXED_COST_FLOOR_S
    ), (
        f"a routed small read costs {ratio:.2f}x a raw drain of its plan "
        f"({raw_med * 1e6:.1f}us -> {routed_med * 1e6:.1f}us)"
    )
