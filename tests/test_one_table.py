"""A flat table is the one-segment table (DESIGN.md §10).

The same seeded history — inserts, updates, deletes, reinserts,
snapshots held and ended, reopens from the WAL and checkpoint installs —
applied to a flat table and to a ``hash_partition("p", 1)`` table
leaves both with the same scan order (at the newest stamp and at every
held one), keys, statistics and query answers after every step, and
the offload mirror patches both row by row.
"""

import random

import pytest

import repro as fql
from repro._util import TOMBSTONE
from repro.compile import offload_stats, set_offload_mode, using_offload_mode
from repro.database import FunctionalDatabase
from repro.exec import set_exec_mode, using_exec_mode
from repro.fdm.databases import DatabaseFunction
from repro.partition import hash_partition
from repro.storage.engine import StorageEngine
from repro.storage.image import engine_record, table_schema

_LATEST = 2**62


@pytest.fixture(autouse=True)
def _reset_modes():
    set_exec_mode(None)
    set_offload_mode(None)
    yield
    set_exec_mode(None)
    set_offload_mode(None)


def _facts(stats):
    """Everything a table's statistics know, as one comparable value."""
    return (
        stats.row_count,
        stats.opaque,
        {
            name: (a.defined, a.values, a.num_min, a.num_max, a.str_min,
                   a.str_max, a.other)
            for name, a in stats.attrs.items()
        },
    )


def _serve(engine):
    """A database over *engine*, its clock at the newest logged stamp."""
    db = FunctionalDatabase.__new__(FunctionalDatabase)
    DatabaseFunction.__init__(db, name=engine.name)
    db._adopt(engine)
    return db


_QUERIES = {
    "scan": lambda t: t,
    "filter": lambda t: fql.filter(t, "v >= 4"),
    "group": lambda t: fql.group_and_aggregate(
        by=["p"], total=fql.Sum("v"), input=t
    ),
}


def _answers(engine, mode):
    db = _serve(engine)
    with using_exec_mode(mode):
        return {
            name: [(k, dict(v.items())) for k, v in build(db.t).items()]
            for name, build in _QUERIES.items()
        }


def _commit(ts, key, data):
    def step(engine):
        engine.apply_commit(ts, [("t", key, data)])
        return engine

    return step


def _hold(ts):
    def step(engine):
        engine.snapshots.hold(ts)
        return engine

    return step


def _release(ts):
    def step(engine):
        engine.snapshots.release(ts)
        return engine

    return step


def _reopen(engine):
    """Replay the log into a new engine that keeps appending to it."""
    wal = engine.wal
    engine = StorageEngine.recover(wal)
    engine.wal = wal
    return engine


def _install(ts):
    """Apply the engine's record at *ts* to an empty engine, as a
    checkpoint load and a snapshot install do."""
    def install(engine):
        record = engine_record(engine, ts)
        fresh = StorageEngine()
        fresh.apply_commit(record.commit_ts, record.writes, record.schemas)
        return fresh

    return install


@pytest.mark.parametrize("seed", range(8))
def test_a_flat_table_is_the_one_segment_table(seed):
    rng = random.Random(seed)
    engines = []
    for scheme in (None, hash_partition("p", 1)):
        engine = StorageEngine()
        engine.create_table("t", partition_by=scheme)
        engine.apply_commit(1, [], schemas={"t": table_schema(engine, "t")})
        engines.append(engine)
    assert [len(e.table("t").segments) for e in engines] == [1, 1]
    live: set = set()
    gone: set = set()
    held: list = []
    for ts in range(2, 42):
        action = rng.random()
        if action < 0.5 or not live:  # insert, update or reinsert
            reinsert = gone and action < 0.2
            key = rng.choice(sorted(gone)) if reinsert else rng.randrange(20)
            row = {"p": rng.randrange(3), "v": rng.randrange(8)}
            step = _commit(ts, key, row)
            live.add(key)
            gone.discard(key)
        elif action < 0.7:
            key = rng.choice(sorted(live))
            step = _commit(ts, key, TOMBSTONE)
            live.discard(key)
            gone.add(key)
        elif action < 0.75:
            step = _hold(ts - 1)  # a reader at the clock
            held.append(ts - 1)
        elif action < 0.8 and held:
            step = _release(held.pop(rng.randrange(len(held))))
        elif action < 0.9:
            step = _reopen  # a new engine: nothing is held there
            held.clear()
        else:
            step = _install(ts - 1)
            held.clear()
        engines = [step(engine) for engine in engines]
        flat, one = (engine.table("t") for engine in engines)
        for snapshot in (_LATEST, *held):
            assert list(flat.scan_at(snapshot)) == list(one.scan_at(snapshot))
            assert list(flat.keys_at(snapshot)) == list(one.keys_at(snapshot))
        assert sorted(flat.keys_at(_LATEST)) == sorted(live)
        assert flat.count_at(_LATEST) == one.count_at(_LATEST) == len(live)
        assert _facts(flat.stats) == _facts(one.stats)
        answers = [_answers(engine, "batch") for engine in engines]
        assert answers[0] == answers[1]
        assert answers[0] == _answers(engines[0], "naive")
        assert answers[1] == _answers(engines[1], "naive")


@pytest.mark.parametrize(
    "scheme, patched",
    [(None, True), (hash_partition("p", 1), True),
     (hash_partition("p", 4), False)],
    ids=["flat", "one-segment", "four-way"],
)
def test_a_one_row_commit_patches_a_one_segment_mirror(scheme, patched):
    db = fql.connect("one-table-mirror", default=False)
    db.create_table(
        "t", rows={i: {"p": i % 4, "v": i} for i in range(40)},
        partition_by=scheme,
    )

    def offloaded():
        with using_exec_mode("batch"), using_offload_mode("force"):
            return [
                (k, dict(v.items()))
                for k, v in fql.filter(db.t, "v >= 10").items()
            ]

    offloaded()
    before = offload_stats(db.engine)
    db.t[5] = {"p": 2, "v": 50}
    got = offloaded()
    with using_exec_mode("naive"):
        assert got == [
            (k, dict(v.items()))
            for k, v in fql.filter(db.t, "v >= 10").items()
        ]
    after = offload_stats(db.engine)
    rebuilds = after["mirror_rebuilds"] - before["mirror_rebuilds"]
    if patched:
        assert after["rows_mirrored"] == before["rows_mirrored"] + 1
        assert rebuilds == 0
    else:
        assert rebuilds == 1
    db.close()
