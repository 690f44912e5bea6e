"""Experiment L (DESIGN.md §4, §13, §14): a 120 000-row load and its
first mirror build.

The rows are the repo benchmark's ``embedded_offload_rw`` events (five
attributes a row). They are loaded with the WAL on into a fresh
database, in one commit, and one offloaded read follows, which builds
the table's SQLite mirror. ``BENCH_bulk_load.json`` records seconds per
phase, none of them asserted:

* ``append_s`` — one ``WriteAheadLog.append`` of the load's record
  (one block: encode in pieces, write, ``fsync``);
* ``load_s`` — ``create_table`` end to end: that append, the version
  chains and the column fold of the statistics;
* ``first_read_s`` — the first offloaded read, mirror build included;
* ``rebuild_s`` — one more mirror build of the whole table, alone;
* ``build_image_ms`` — the median of five copies of the loaded
  segment's rows into a column image (``VersionedTable.build_image``).

Asserted, as counts no machine's speed can move: the load adds fewer
than 0.5 objects the cyclic collector tracks per row (``gc.get_objects()``
before and after; ``tracked_per_row``, 2.00 when each row was a version
object in a one-element chain list); the tracemalloc
transient (peak over the memory held before the call) of that append
is at most 20 MB, and of that mirror build at most 25 MB (before the
bulk paths went column-wise they were 55.3 and 40.4 MB); the database's
WAL file after the load is at most 6 MB (16.1 MB when a record held
one dict per row); a checkpoint of the loaded database is at most
``CHECKPOINT_OVER_WAL`` = 1.1 times that file's bytes (2.2 times when a
checkpoint was an image of one ``[key, data]`` pair a row). Also
recorded, not asserted: ``wal_mb``, that file's size; ``checkpoint_mb``,
the checkpoint's; ``checkpoint_load_s``, the median of five
``load_checkpoint`` calls on it; and ``retained_mb``, what the log's
in-memory record of the load holds beyond the rows it shares
(tracemalloc; 7.7 MB of write tuples when a record kept one per row).
"""

import gc
import pathlib
import statistics
import sys
import time
import tracemalloc

import pytest

import repro
from repro import fql
from repro.compile import offload_stats, using_offload_mode
from repro.compile.mirror import EngineMirror
from repro.exec import using_exec_mode
from repro.storage import WALRecord, WriteAheadLog, load_checkpoint

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from bench_e2e import gen  # noqa: E402

N_ROWS = 120_000
APPEND_MB = 20
REBUILD_MB = 25
WAL_MB = 6
CHECKPOINT_OVER_WAL = 1.1
TRACKED_PER_ROW = 0.5


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


def _retained_mb(rows):
    """What a memory-only log keeps of the load's record, in MB."""
    log = WriteAheadLog()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log.append(WALRecord(1, [("events", key, row) for key, row in rows.items()]))
        return (tracemalloc.get_traced_memory()[0] - before) / 2**20
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
    retained_mb = _retained_mb(rows)

    db = repro.connect("bench-bulk-load", wal_path=str(tmp_path / "db.wal"),
                       default=False)
    gc.collect()
    tracked = len(gc.get_objects())
    load_s = _seconds(db.create_table, "events", rows, "eid")
    tracked_per_row = (len(gc.get_objects()) - tracked) / N_ROWS
    segment = db._engine.table("events").segments[0]
    build_image_ms = 1e3 * statistics.median(
        _seconds(segment.build_image, db._manager.now()) for _ in range(5)
    )
    wal_mb = (tmp_path / "db.wal").stat().st_size / 2**20
    per_state = fql.group_and_aggregate(
        by=["state"], n=fql.Count(), input=db.events
    )
    with using_exec_mode("batch"), using_offload_mode("auto"):
        first_read_s = _seconds(lambda: dict(per_state.items()))
    engine, ts = db._engine, db._manager.now()
    offloaded = offload_stats(engine)
    rebuild_s = _seconds(_rebuild, engine, ts)
    rebuild_mb = _transient_mb(_rebuild, engine, ts)
    checkpoint = tmp_path / "db.ckpt"
    db.checkpoint(str(checkpoint))
    checkpoint_mb = checkpoint.stat().st_size / 2**20
    checkpoint_load_s = statistics.median(
        _seconds(load_checkpoint, str(checkpoint)) for _ in range(5)
    )
    benchmark.extra_info.update(
        {
            "rows": N_ROWS,
            "append_s": append_s,
            "load_s": load_s,
            "first_read_s": first_read_s,
            "rebuild_s": rebuild_s,
            "append_transient_mb": append_mb,
            "rebuild_transient_mb": rebuild_mb,
            "wal_mb": wal_mb,
            "checkpoint_mb": checkpoint_mb,
            "checkpoint_load_s": checkpoint_load_s,
            "retained_mb": retained_mb,
            "tracked_per_row": tracked_per_row,
            "build_image_ms": build_image_ms,
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
    assert wal_mb <= WAL_MB, f"the load's WAL file is {wal_mb:.1f} MB"
    assert checkpoint_mb <= CHECKPOINT_OVER_WAL * wal_mb, (
        f"the checkpoint is {checkpoint_mb:.2f} MiB against the WAL's {wal_mb:.2f}"
    )
    assert tracked_per_row < TRACKED_PER_ROW, (
        f"the load added {tracked_per_row:.2f} collector-tracked objects a row"
    )
