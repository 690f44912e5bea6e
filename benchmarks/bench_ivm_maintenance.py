"""Experiment IVM (DESIGN.md §9): incremental maintenance vs full diff.

Shape claims: after single-row DML on the retail workload, a maintained
grouped-aggregate view equals a from-scratch recompute, and the delta
path (consume one commit's changelog record, patch one group) beats the
diff-based ``refresh(incremental=True)`` (re-aggregate everything, then
compare per group) by well over an order of magnitude. That claim is a
ratio taken within one run (``speedup_vs_diff``, asserted ≥10×), which
does not depend on the machine; the timings next to it in the committed
``BENCH_ivm_maintenance.json`` are for the trajectory only.
"""

import itertools
import time

import pytest

from repro import fql
from repro.fdm import extensionally_equal
from repro.ivm import maintained_view, using_ivm_mode
from repro.workloads import generate_retail

from conftest import RETAIL_SCALE


def _aggregate_expr(db):
    return fql.group_and_aggregate(
        by=["state"],
        n=fql.Count(),
        total_age=fql.Sum("age"),
        input=db.customers,
    )


@pytest.fixture(scope="module")
def ivm_db():
    """A module-private stored retail database (benchmarks mutate it)."""
    data = generate_retail(**RETAIL_SCALE)
    return data.to_stored_database(name="bench-ivm")


@pytest.fixture(scope="module")
def age_cycle():
    return itertools.cycle(range(18, 91))


def _best_of(step, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        step()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.benchmark(group="ivm-maintenance")
def test_incremental_single_row_update(benchmark, ivm_db, age_cycle):
    """Maintained view: one commit in, one group patched — in one run,
    ≥10× faster than the diff refresh it replaces, commit included."""
    with using_ivm_mode("off"):
        diff_view = fql.materialized_view(_aggregate_expr(ivm_db), name="ref")

        def diff_step():
            ivm_db.customers[1]["age"] = next(age_cycle)
            diff_view.refresh(incremental=True)

        diff = _best_of(diff_step)
    with using_ivm_mode("on"):
        view = maintained_view(_aggregate_expr(ivm_db), name="inc")
        len(view)  # settle the snapshot and group state

        def step():
            ivm_db.customers[1]["age"] = next(age_cycle)
            view.sync()

        incremental = _best_of(step)
        benchmark(step)
        stats = view.maintenance_stats
        assert stats["fallback_recomputes"] == 0
        assert stats["diff_refreshes"] == 0
        assert stats["group_refolds"] == 0  # count/sum decompose
        assert extensionally_equal(view, _aggregate_expr(ivm_db))
    benchmark.extra_info["speedup_vs_diff"] = diff / incremental
    assert incremental * 10 <= diff, (
        f"an incremental sync ({incremental:.6f}s) is not 10x faster than "
        f"a diff refresh ({diff:.6f}s)"
    )


@pytest.mark.benchmark(group="ivm-maintenance")
def test_diff_refresh_single_row_update(benchmark, ivm_db, age_cycle):
    """The pre-IVM path: full snapshot-vs-live diff per refresh."""
    with using_ivm_mode("off"):
        view = fql.materialized_view(_aggregate_expr(ivm_db), name="diff")

        def step():
            ivm_db.customers[1]["age"] = next(age_cycle)
            view.refresh(incremental=True)

        benchmark(step)
        assert extensionally_equal(view, _aggregate_expr(ivm_db))


@pytest.mark.benchmark(group="ivm-maintenance")
def test_full_rebuild_single_row_update(benchmark, ivm_db, age_cycle):
    """The deep-copy rebuild, for scale: what refresh(False) costs."""
    view = fql.materialized_view(_aggregate_expr(ivm_db), name="full")

    def step():
        ivm_db.customers[1]["age"] = next(age_cycle)
        view.refresh(incremental=False)

    benchmark(step)
    assert extensionally_equal(view, _aggregate_expr(ivm_db))


@pytest.mark.benchmark(group="ivm-maintenance-join")
def test_incremental_join_view_order_insert(benchmark, ivm_db):
    """Delta-join: a new order patches one result row, not the world."""
    from repro.fdm.databases import database

    sub = database(
        {
            "customers": ivm_db.customers,
            "order": ivm_db.order,
            "products": ivm_db.products,
        },
        name="sub",
    )
    with using_ivm_mode("on"):
        view = maintained_view(fql.join(sub), name="join-inc")
        len(view)  # settle
        flip = itertools.cycle([True, False])

        def step():
            if next(flip):
                ivm_db.order[(1, 1)] = {"date": "2026-07-01", "qty": 2}
            else:
                del ivm_db.order[(1, 1)]
            view.sync()

        benchmark(step)
        assert view.maintenance_stats["fallback_recomputes"] == 0


@pytest.mark.benchmark(group="ivm-maintenance-eager")
def test_eager_commit_time_maintenance(benchmark, ivm_db, age_cycle):
    """Upkeep inside the commit: reads are then snapshot-speed."""
    with using_ivm_mode("on"):
        view = maintained_view(
            _aggregate_expr(ivm_db), name="eager", eager=True
        )
        len(view)

        def step():
            ivm_db.customers[2]["age"] = next(age_cycle)  # commit syncs

        benchmark(step)
        assert extensionally_equal(view, _aggregate_expr(ivm_db))
