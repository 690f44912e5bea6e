"""A commit is one block per table, end to end: the history a file log,
a ``WAL_BATCH`` stream, a follower's own log, a checkpoint with the
log's suffix and a snapshot-bootstrapped follower each rebuild, and the
counts a one-row commit keeps."""

from __future__ import annotations

import json
import os

import pytest

import repro
import repro.replication as repl
from repro import fql
from repro._util import LATEST
from repro.compile import offload_stats, using_offload_mode
from repro.errors import PersistenceError
from repro.exec import using_exec_mode
from repro.partition import hash_partition
from repro.storage.image import PIECE_VALUES
from repro.storage.persist import load_checkpoint
from repro.storage.wal import WALRecord, WriteAheadLog
from zoo import hostile_rows

#: The events load: more keys and values than one encoded piece holds,
#: and more rows than the statistics fold row by row.
N_EVENTS = 3 * PIECE_VALUES


def _event(i):
    row = {"name": f"e{i}", "age": 18 + i % 60, "state": "NY TX CA WA".split()[i % 4]}
    if i % 500 == 0:  # the rows change shape mid-block
        row = {"state": row["state"], "name": row["name"], "note": "ñ"}
    elif i % 700 == 0:
        row["amount"] = -0.0 if i % 1400 == 0 else 2**63
    return row


def _history(db, checkpoint=None):
    """The history every carrier rebuilds; a checkpoint to *checkpoint*
    is taken midway, after the loads and before the updates."""
    db.create_table("events", {i: _event(i) for i in range(N_EVENTS)}, key_name="eid")
    db.create_table(
        "customers", rows=hostile_rows(), key_name="cid",
        partition_by=hash_partition("state", 4),
    )
    db.create_table("pairs", {(i, f"k{i}"): {"n": i} for i in range(5)},
                    key_name=("i", "k"))
    db.create_table("empty", {}, key_name="eid")
    if checkpoint is not None:
        db.checkpoint(checkpoint)
    db.events[3] = {"name": "upserted", "age": 99, "state": "TX"}
    del db.events[4]
    moved = next(k for k, row in db.customers.items() if row("state") == "NY")
    db.customers[moved]["state"] = "WA"  # a hash-partition move
    with db.transaction():  # one commit, three blocks, deletes among rows
        db.events[N_EVENTS] = {"name": "late", "age": 1, "state": "CA"}
        del db.events[5]
        del db.customers[moved]
        db.pairs[(9, "k9")] = {"n": 9, "nested": {"a": [None]}}
        del db.pairs[(1, "k1")]


def _layouts(engine, floor=0):
    """Every table's physical layout, values by ``repr`` (NaN equals
    itself there; 1 differs from 1.0 and -0.0 from 0.0). A checkpoint
    or a snapshot at stamp *floor* writes every row it holds at that
    one stamp, so stamps below it read as *floor*."""
    return {
        name: repr({
            pid: {key: [(max(ts, floor), data) for ts, data in versions]
                  for key, versions in segment.items()}
            for pid, segment in engine.table(name).layout().items()
        })
        for name in engine.table_names()
    }


def _feed(leader, replica):
    """Ship *leader*'s whole log to *replica* as ``WAL_BATCH`` frames,
    JSON round-tripped as the wire would."""
    frames = []
    hub = repl.hub_for(leader)
    hello = hub.hello(1, replica.applied_ts(), replica.epoch, frames.append)
    assert hello["mode"] == "stream"
    for frame in [hello, *frames]:
        frame = json.loads(json.dumps(frame))
        replica.apply_wal_batch(
            repl.decode_records(frame["records"]), frame["leader_ts"], frame["epoch"]
        )


def _bytes(path):
    with open(path, "rb") as f:
        return f.read()


def test_reopen_stream_and_follower_restart_rebuild_one_history(tmp_path):
    leader_wal = os.fspath(tmp_path / "leader.wal")
    follower_wal = os.fspath(tmp_path / "follower.wal")
    checkpoint = os.fspath(tmp_path / "midway.ckpt")
    leader = repro.connect("leader", wal_path=leader_wal, default=False)
    _history(leader, checkpoint)
    expected = _layouts(leader.engine)
    assert len(leader.engine.table("customers").segments) == 4

    engine, clock = load_checkpoint(checkpoint)  # plus the log's suffix
    for record in WriteAheadLog.load(leader_wal).records_since(clock):
        engine.apply_commit(record.commit_ts, record.writes, record.schemas)
    assert _layouts(engine, clock) == _layouts(leader.engine, clock)

    follower = repl.ReplicaDatabase(name="follower", wal_path=follower_wal)
    _feed(leader, follower)
    assert _layouts(follower.engine) == expected
    follower.close()
    assert _bytes(follower_wal) == _bytes(leader_wal)

    restarted = repl.ReplicaDatabase(name="follower", wal_path=follower_wal)
    assert _layouts(restarted.engine) == expected
    restarted.close()
    leader.close()

    reopened = repro.connect("reopened", wal_path=leader_wal, default=False)
    assert _layouts(reopened.engine) == expected
    for name in expected:
        kept, rebuilt = (db.engine.table(name).stats for db in (leader, reopened))
        assert rebuilt.row_count == kept.row_count
    # a follower bootstrapped from a snapshot: the leader's log holds
    # nothing below its floor, so HELLO answers with the one record
    now = reopened.manager.now()
    reopened.engine.wal.set_floor(now)
    frames = []
    hello = repl.hub_for(reopened).hello(1, 0, 1, frames.append)
    hello = json.loads(json.dumps(hello))
    assert hello["mode"] == "snapshot" and frames == []
    bootstrapped = repl.ReplicaDatabase(name="bootstrapped")
    bootstrapped.apply_snapshot(hello["snapshot"])
    assert bootstrapped.applied_ts() == now
    assert _layouts(bootstrapped.engine, now) == _layouts(reopened.engine, now)
    bootstrapped.close()
    reopened.close()
    assert _bytes(leader_wal) == _bytes(follower_wal)


# -- counts of a one-row commit ---------------------------------------------------

ORDER = {"cid": 775, "amount": 35813, "qty": 5, "status": "paid", "day": 289,
         "score": 17663, "slot": 1}


def test_a_one_row_record_is_about_the_size_of_the_row_form():
    row_form = json.dumps({"ts": 1, "writes": [
        {"table": "orders", "key": 1, "data": ORDER, "deleted": False}
    ]})
    line = WALRecord(1, [("orders", 1, ORDER)]).to_json()
    assert 0.9 <= len(line) / len(row_form) <= 1.1


def test_a_one_row_commit_writes_one_line_and_patches_one_mirror_row(tmp_path):
    db = repro.connect("counts", wal_path=os.fspath(tmp_path / "c.wal"), default=False)
    db.create_table("orders", {i: dict(ORDER, cid=i % 50) for i in range(2_000)},
                    key_name="oid")
    per_cid = fql.group_and_aggregate(by=["cid"], n=fql.Count(), input=db.orders)
    with using_exec_mode("batch"), using_offload_mode("force"):
        dict(per_cid.items())  # builds the mirror
        before, size = offload_stats(db.engine), db.stats()["wal"]["bytes"]
        db.orders[7] = dict(ORDER, cid=3)
        assert db.stats()["wal"]["bytes"] - size == len(
            WALRecord(db.manager.now(), [("orders", 7, dict(ORDER, cid=3))]).to_json()
        ) + 1
        answer = dict(per_cid.items())
        after = offload_stats(db.engine)
    assert answer[3]("n") == 41 and answer[7]("n") == 39
    assert after["rows_mirrored"] - before["rows_mirrored"] == 1
    assert after["mirror_rebuilds"] == before["mirror_rebuilds"]
    assert after["fallbacks"] == before["fallbacks"]
    assert after["queries_offloaded"] - before["queries_offloaded"] == 1
    db.close()


# -- attribute names on every carrier ---------------------------------------------


def _rows(engine):
    return sorted(
        (key, list(row.items())) for key, row in engine.table("t").scan_at(LATEST)
    )


def test_a_name_reads_back_alike_from_every_carrier(tmp_path):
    """An int name reads back ``"1"`` from the log, a checkpoint with
    the log's suffix, a snapshot and a stream alike; a tuple name, which
    JSON refuses, is refused at commit and leaves the log as it was."""
    wal_path = os.fspath(tmp_path / "names.wal")
    db = repro.connect("names", wal_path=wal_path, default=False)
    db.create_table("t", {1: {"a": 1}}, key_name="k")
    db.t[2] = {1: "int name", "a": 2}
    db.checkpoint(os.fspath(tmp_path / "names.ckpt"))
    db.t[3] = {"a": 3, 1: "after the checkpoint"}
    size = os.path.getsize(wal_path)
    with pytest.raises(PersistenceError):
        db.t[4] = {("x", 1): "tuple name"}
    assert os.path.getsize(wal_path) == size and 4 not in db.t
    expected = [(1, [("a", 1)]), (2, [("1", "int name"), ("a", 2)]),
                (3, [("a", 3), ("1", "after the checkpoint")])]

    engine, clock = load_checkpoint(os.fspath(tmp_path / "names.ckpt"))
    for record in WriteAheadLog.load(wal_path).records_since(clock):
        engine.apply_commit(record.commit_ts, record.writes, record.schemas)
    snapshot = repl.ReplicaDatabase(name="snapshot")
    snapshot.apply_snapshot(json.loads(json.dumps(repl.snapshot_payload(db))))
    streamed = repl.ReplicaDatabase(name="streamed")
    _feed(db, streamed)
    db.close()
    reopened = repro.connect("reopened", wal_path=wal_path, default=False)
    for got in (engine, snapshot.engine, streamed.engine, reopened.engine):
        assert _rows(got) == expected
    for closing in (snapshot, streamed, reopened):
        closing.close()
