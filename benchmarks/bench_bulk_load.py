"""Experiment L (DESIGN.md §4, §13, §14): a 120 000-row load and its
first mirror build.

The rows are the repo benchmark's ``embedded_offload_rw`` events (five
attributes a row). They are loaded with the WAL on into a fresh
database, in one commit, and one offloaded read follows, which builds
the table's SQLite mirror. ``BENCH_bulk_load.json`` records seconds per
phase, none of them asserted:

* ``append_s`` — one ``WriteAheadLog.append`` of the load's record
  (encode in pieces, write, ``fsync``);
* ``load_s`` — ``create_table`` end to end: that append, the version
  chains and the column fold of the statistics;
* ``first_read_s`` — the first offloaded read, mirror build included;
* ``rebuild_s`` — one more mirror build of the whole table, alone.

Asserted, as counts no machine's speed can move: the tracemalloc
transient (peak over the memory held before the call) of that append
is at most 20 MB, and of that mirror build at most 25 MB. Before the
bulk paths went column-wise they were 55.3 and 40.4 MB.
"""

import pathlib
import sys
import time
import tracemalloc

import pytest

import repro
from repro import fql
from repro.compile import offload_stats, using_offload_mode
from repro.compile.mirror import EngineMirror
from repro.exec import using_exec_mode
from repro.storage import WALRecord, WriteAheadLog

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from bench_e2e import gen  # noqa: E402

N_ROWS = 120_000
APPEND_MB = 20
REBUILD_MB = 25


def _transient_mb(fn, *args):
    """Peak memory *fn* allocates over what was held before, in MB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()


def _seconds(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _rebuild(engine, ts):
    mirror = EngineMirror(engine)
    try:
        with mirror.lock:
            mirror.ensure_synced("events", ts)
    finally:
        mirror.close()


@pytest.mark.benchmark(group="bulk-load")
def test_a_bulk_load_and_its_first_mirror_build(benchmark, tmp_path):
    rows = gen.events(1, N_ROWS)
    record = WALRecord(1, [("events", key, row) for key, row in rows.items()])
    timed, traced = (WriteAheadLog(str(tmp_path / f"{n}.wal")) for n in "ab")
    append_s = _seconds(timed.append, record)
    append_mb = _transient_mb(traced.append, record)
    timed.close()
    traced.close()
    del record, timed, traced  # the retained record

    db = repro.connect("bench-bulk-load", wal_path=str(tmp_path / "db.wal"),
                       default=False)
    load_s = _seconds(db.create_table, "events", rows, "eid")
    per_state = fql.group_and_aggregate(
        by=["state"], n=fql.Count(), input=db.events
    )
    with using_exec_mode("batch"), using_offload_mode("auto"):
        first_read_s = _seconds(lambda: dict(per_state.items()))
    engine, ts = db._engine, db._manager.now()
    offloaded = offload_stats(engine)
    rebuild_s = _seconds(_rebuild, engine, ts)
    rebuild_mb = _transient_mb(_rebuild, engine, ts)
    benchmark.extra_info.update(
        {
            "rows": N_ROWS,
            "append_s": append_s,
            "load_s": load_s,
            "first_read_s": first_read_s,
            "rebuild_s": rebuild_s,
            "append_transient_mb": append_mb,
            "rebuild_transient_mb": rebuild_mb,
        }
    )
    benchmark.pedantic(_rebuild, args=(engine, ts), rounds=1, iterations=1)
    db.close()
    assert offloaded["queries_offloaded"] == 1
    assert offloaded["rows_mirrored"] == N_ROWS
    assert append_mb <= APPEND_MB, (
        f"appending the load's WAL record held {append_mb:.1f} MB at peak"
    )
    assert rebuild_mb <= REBUILD_MB, (
        f"a mirror build of {N_ROWS} rows held {rebuild_mb:.1f} MB at peak"
    )
