"""Experiment O (DESIGN.md §14): SQL offload vs the batched executor.

A wide analytic table (60k rows, eight columns) queried under both
physical modes from the same stored database: the batched columnar
executor (``REPRO_OFFLOAD=off``) and the SQLite offload backend
(``REPRO_OFFLOAD=force``, mirror pre-synced so the timing isolates
query execution, not snapshot construction). Shape claims asserted per
test: both modes enumerate identically; under ``auto`` routing a key
lookup stays on the batched path (its index probe is already
sub-millisecond, and shipping it through SQL would pay decode latency
for nothing); and after a one-row commit the mirror resyncs by
applying that row from the log, ≥20× faster than rebuilding the table.
``BENCH_offload_scan.json`` keeps only ratios taken within one run
(``speedup_vs_batched``, ``speedup_vs_guarded``,
``resync_speedup_vs_rebuild``), which do not depend on the machine.

``speedup_vs_guarded`` times the SQL compiled against the mirror's
real profiles (this table is clean: no absent attributes, no None, one
type family per column, so the SQL carries no guard) against the SQL
compiled for the same shape over a copy of those profiles that admits
absent values and None — the presence and ``typeof`` guards a hostile
table needs. Both texts run on the mirror's own connection. The lean
filter must be ≥2× faster.

``speedup_vs_batched`` is recorded, not asserted. It used to be the
headline — offloaded ≥2× faster, because SQLite folded rows the Python
executor touched one by one — but the batched executor now reads the
table's column image (DESIGN.md §13): with no write between reads both
queries run on cached typed columns, and the offloaded group-aggregate
takes ~13× *longer* than the batched one (ratio ~0.08; the filter
~0.1). What the SQL backend still has over the executor is the read
after a write: its mirror applies the one written row, while the
executor rescans the table into a new image.
"""

import copy
import itertools
import time

import pytest

import repro
from repro import fql
from repro.compile import offload_stats, using_offload_mode
from repro.compile.mirror import mirror_for
from repro.compile.sqlgen import Unsupported, generate_sql, parse_graph
from repro.exec import using_exec_mode
from repro.exec.run import pipeline_rules
from repro.optimizer import optimize

N_ROWS = 60_000
STATES = ["NY", "CA", "TX", "WA", "OR", "MA", "IL", "GA"]

_DBS: dict[str, object] = {}


def _wide_db():
    db = _DBS.get("wide")
    if db is None:
        db = repro.connect("bench-offload-wide", default=False)
        db["events"] = {
            i: {
                "name": f"e{i}",
                "age": 18 + (i * 7) % 60,
                "state": STATES[(i * 13) % len(STATES)],
                "amount": float((i * 31) % 1000),
                "qty": 1 + (i * 3) % 9,
                "score": ((i * 17) % 500) / 10.0,
                "flag": (i % 5) == 0,
            }
            for i in range(1, N_ROWS + 1)
        }
        _DBS["wide"] = db
    return db


QUERIES = {
    "group_aggregate": lambda db: fql.group_and_aggregate(
        by=["state"],
        n=fql.Count(),
        total=fql.Sum("amount"),
        mean_age=fql.Avg("age"),
        hi=fql.Max("score"),
        lo=fql.Min("qty"),
        input=db.events,
    ),
    "selective_filter": lambda db: fql.filter(
        db.events, "amount > 990.0 and age > 40"
    ),
}


def _drain(fn) -> int:
    n = 0
    for _key, _value in fn.items():
        n += 1
    return n


def _best_of(fn, repeats: int = 7) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _snapshot(build, db, offload):
    with using_exec_mode("batch"), using_offload_mode(offload):
        return [(k, dict(v.items())) for k, v in build(db).items()]


def _guarded_copy(table_mirror, folded):
    """*table_mirror* with profiles that also admit absent values, and
    None outside the *folded* columns (Sum/Avg/Min/Max decline over
    None): the SQL compiled against it carries a hostile table's
    guards."""
    stand_in = copy.copy(table_mirror)
    stand_in.profiles = {}
    for attr, profile in table_mirror.profiles.items():
        widened = stand_in.profiles[attr] = copy.copy(profile)
        widened.has_missing = True
        widened.has_none = attr not in folded
    return stand_in


def _speedup_vs_guarded(db, expr):
    """Same-run ratio: guarded SQL time / lean SQL time, both on the
    mirror's connection, or ``None`` if the shape does not compile."""
    shape = parse_graph(optimize(expr, rules=pipeline_rules()))
    folded = {
        agg.attr
        for agg in (shape.fused._aggs.values() if shape.fused else ())
        if type(agg) is not fql.Count
    }
    mirror = mirror_for(db._engine)
    with mirror.lock:
        table_mirror = mirror.ensure_synced("events", db._manager.now())
        try:
            lean = generate_sql(shape, table_mirror)
        except Unsupported:
            return None  # e.g. a float Sum on a compensating SQLite
        guarded = generate_sql(shape, _guarded_copy(table_mirror, folded))
        conn = mirror.connection()
        assert conn.execute(lean.sql, lean.params).fetchall() == conn.execute(
            guarded.sql, guarded.params
        ).fetchall()
        timed = {
            name: _best_of(lambda q=q: conn.execute(q.sql, q.params).fetchall())
            for name, q in (("lean", lean), ("guarded", guarded))
        }
    return timed["guarded"] / timed["lean"]


@pytest.mark.benchmark(group="offload-scan")
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_offload_vs_batched(benchmark, query):
    db = _wide_db()
    build = QUERIES[query]
    with using_exec_mode("batch"):
        with using_offload_mode("force"):
            expr = build(db)
            _drain(expr)  # syncs the mirror (if cold) + warms the plan
            offloaded = _best_of(lambda: _drain(expr))
        with using_offload_mode("off"):
            expr = build(db)
            _drain(expr)
            batched = _best_of(lambda: _drain(expr))
        with using_offload_mode("force"):
            expr = build(db)
            rows = benchmark(lambda: _drain(expr))
    vs_guarded = _speedup_vs_guarded(db, expr)
    benchmark.extra_info.update(
        {
            "rows": rows,
            "speedup_vs_batched": (
                batched / offloaded if offloaded else float("inf")
            ),
            "speedup_vs_guarded": vs_guarded,
            "backend": offload_stats(db._engine)["backend"],
        }
    )
    # both physical modes enumerate the same answer in the same order
    assert _snapshot(build, db, "force") == _snapshot(build, db, "off")
    if query == "selective_filter":
        assert vs_guarded >= 2, (
            f"the guard-free filter SQL is only {vs_guarded:.2f}x faster "
            "than the guarded one"
        )


@pytest.mark.benchmark(group="offload-scan")
def test_point_lookup_routed_to_batched(benchmark):
    """Under ``auto`` routing a key lookup must not offload: the cost
    gate sees a single-row plan and keeps it on the index probe."""
    db = _wide_db()
    expr = fql.filter(db.events, key__eq=N_ROWS // 2)
    with using_exec_mode("batch"), using_offload_mode("auto"):
        _drain(expr)
        before = offload_stats(db._engine)["queries_offloaded"]
        rows = benchmark(lambda: _drain(expr))
        after = offload_stats(db._engine)["queries_offloaded"]
    benchmark.extra_info.update({"rows": rows})
    assert rows == 1
    assert after == before, (
        "a point lookup was shipped to the offload backend; the auto "
        "cost gate should have kept it on the batched path"
    )


@pytest.mark.benchmark(group="offload-scan")
def test_resync_after_one_row_commit(benchmark):
    """After a one-row commit the next offloaded read applies that one
    row from the log: in one run, a delta sync of the 60k-row table is
    ≥20× faster than a forced rebuild of it, and moves one row."""
    db = _wide_db()
    engine = db._engine
    mirror = mirror_for(engine)
    key = N_ROWS // 2
    values = itertools.count()

    def commit():
        db.events[key]["qty"] = 1 + next(values) % 9

    def sync():
        with mirror.lock:
            mirror.ensure_synced("events", db._manager.now())

    def timed_sync() -> float:
        start = time.perf_counter()
        sync()
        return time.perf_counter() - start

    sync()  # the first sync is a rebuild; time from a fresh mirror on
    before = offload_stats(engine)
    commit()
    delta = timed_sync()
    after = offload_stats(engine)
    for _ in range(6):
        commit()
        delta = min(delta, timed_sync())
    rebuild = float("inf")
    for _ in range(3):
        mirror._tables["events"].source = None  # forces the rebuild path
        rebuild = min(rebuild, timed_sync())
    benchmark.pedantic(sync, setup=commit, rounds=20)
    benchmark.extra_info.update(
        {"resync_speedup_vs_rebuild": rebuild / delta}
    )
    assert after["rows_mirrored"] == before["rows_mirrored"] + 1
    assert after["mirror_rebuilds"] == before["mirror_rebuilds"]
    assert delta * 20 <= rebuild, (
        f"a one-row delta sync ({delta:.6f}s) is not 20x faster than a "
        f"rebuild of the table ({rebuild:.6f}s)"
    )
