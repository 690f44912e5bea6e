"""WAL-shipping replication (DESIGN.md §12): offset-aware WAL suffix
iteration, wire codecs, the leader→follower stream (operator-zoo
differential at a pinned commit ts, partition-layout and WAL parity),
kill/restart catch-up without a full resync, live views and
subscriptions on replicas, staleness barriers (read-your-writes and
bounded staleness with bounce-to-leader), and fencing after a manual
promote."""

from __future__ import annotations

import json
import os
import time

import pytest

import repro as fql
import repro.client
import repro.replication as repl
import repro.server
from repro._util import TOMBSTONE
from repro.compile import using_offload_mode
from repro.errors import (
    FencedLeaderError,
    ReadOnlyReplicaError,
    ReplicaLagError,
    ReplicationError,
    WALError,
)
from repro.exec import using_exec_mode
from repro.partition import hash_partition
from repro.storage.engine import StorageEngine
from repro.storage.persist import load_checkpoint
from repro.storage.wal import WALRecord, WriteAheadLog
from zoo import hostile_rows

STATES = ["NY", "CA", "TX", "WA"]


def _rows(n=40):
    return {
        i: {
            "name": f"c{i}",
            "age": 18 + (i * 17) % 60,
            "state": STATES[i % len(STATES)],
        }
        for i in range(1, n + 1)
    }


def _region_rows():
    return {
        i: {"state": s, "region": "east" if s in ("NY", "MA") else "west"}
        for i, s in enumerate(STATES, start=1)
    }


def _build_leader(name="repl-leader"):
    db = fql.connect(name, default=False)
    db.create_table(
        "customers",
        rows=_rows(),
        key_name="cid",
        partition_by=hash_partition("state", 4),
    )
    db.create_table("regions", rows=_region_rows(), key_name="rid")
    return db


def _wait(condition, timeout=8.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


def _caught_up(leader, replica, timeout=8.0):
    target = leader.manager.now()
    replica.ensure_read_at(min_ts=target, timeout=timeout)


def _canon(value, sort_lists=True):
    if isinstance(value, fql.fdm.FDMFunction) and value.is_enumerable:
        return {k: _canon(v, sort_lists) for k, v in value.items()}
    if sort_lists and isinstance(value, list):
        return sorted(value, key=repr)
    return value


#: Read-only expressions evaluated identically on leader and follower.
ZOO = {
    "filter_text": lambda db: fql.filter(db.customers, "age > 40"),
    "filter_kw": lambda db: fql.filter(db.customers, state="NY"),
    "filter_opaque": lambda db: fql.filter(
        lambda e: e.age % 3 == 0, db.customers
    ),
    "project": lambda db: fql.project(db.customers, ["age", "state"]),
    "rename": lambda db: fql.rename(db.customers, age="years"),
    "order_limit": lambda db: fql.limit(
        fql.order_by(db.customers, "age", reverse=True), 7
    ),
    "group": lambda db: fql.group(by=["state"], input=db.customers),
    "agg_decomposable": lambda db: fql.group_and_aggregate(
        by=["state"],
        n=fql.Count(),
        total=fql.Sum("age"),
        lo=fql.Min("age"),
        hi=fql.Max("age"),
        input=db.customers,
    ),
    "agg_holistic": lambda db: fql.group_and_aggregate(
        by=["state"],
        ages=fql.Collect("age"),
        med=fql.Median("age"),
        input=db.customers,
    ),
    "agg_global": lambda db: fql.group_and_aggregate(
        by=[], n=fql.Count(), total=fql.Sum("age"), input=db.customers
    ),
    "join": lambda db: fql.join(
        fql.subdatabase(db, relations=["customers", "regions"]),
        on=[["customers.state", "regions.state"]],
    ),
    "union": lambda db: fql.union(
        fql.filter(db.customers, "age < 30"),
        fql.filter(db.customers, "age >= 60"),
    ),
    "intersect": lambda db: fql.intersect(
        fql.filter(db.customers, "age > 25"),
        fql.filter(db.customers, state="NY"),
    ),
    "minus": lambda db: fql.minus(
        db.customers, fql.filter(db.customers, "age < 40")
    ),
}


# ---------------------------------------------------------------------------
# WAL suffix iteration (the shipper's offset-aware read path)
# ---------------------------------------------------------------------------


class TestRecordsSince:
    def _log(self, stamps=(2, 5, 9)):
        log = WriteAheadLog()
        for ts in stamps:
            log.append(WALRecord(ts, [("t", ts, {"v": ts})]))
        return log

    def test_suffix_by_binary_search(self):
        log = self._log()
        assert [r.commit_ts for r in log.records_since(0)] == [2, 5, 9]
        assert [r.commit_ts for r in log.records_since(2)] == [5, 9]
        assert [r.commit_ts for r in log.records_since(5)] == [9]
        assert log.records_since(9) == []
        assert log.records_since(100) == []

    def test_floor_reports_lost_history(self):
        log = self._log()
        log.set_floor(4)
        assert log.records_since(3) is None  # below the floor: gone
        assert [r.commit_ts for r in log.records_since(4)] == [5, 9]

    def test_truncate_raises_floor(self):
        log = self._log()
        log.truncate()
        assert log.floor == 9
        assert log.records_since(0) is None
        assert log.records_since(9) == []
        assert log.last_commit_ts() == 9  # the clock survives truncation

    def test_recover_replays_through_suffix_iterator(self):
        log = self._log()
        engine = StorageEngine.recover(log)
        assert engine.table("t").read(5, 2**62) == {"v": 5}
        log.truncate()
        with pytest.raises(WALError):
            StorageEngine.recover(log)  # history gone: refuse quietly-wrong


# ---------------------------------------------------------------------------
# wire codecs
# ---------------------------------------------------------------------------


class TestWireCodec:
    def test_record_roundtrip_with_tombstone_and_tuple_key(self):
        record = WALRecord(
            7,
            [
                ("t", 1, {"name": "a", "n": 2}),
                ("t", (1, "x"), TOMBSTONE),
            ],
        )
        decoded = repl.decode_record(repl.encode_record(record))
        assert decoded.commit_ts == 7
        assert decoded.writes[0] == ("t", 1, {"name": "a", "n": 2})
        assert decoded.writes[1] == ("t", (1, "x"), TOMBSTONE)

    def test_corrupt_record_raises_typed_error(self):
        with pytest.raises(WALError):
            repl.decode_record({"ts": 1})

    def test_table_schema_carries_partition_and_indexes(self):
        db = _build_leader("repl-schema")
        db.create_index("customers", "age", kind="sorted")
        schema = repl.table_schema(db.engine, "customers")
        assert schema["key_name"] == "cid"
        assert schema["partition"]["n"] == 4
        assert schema["indexes"] == [{"attr": "age", "kind": "sorted"}]
        db.close()


# ---------------------------------------------------------------------------
# the stream: leader → follower
# ---------------------------------------------------------------------------


@pytest.fixture
def leader():
    db = _build_leader()
    yield db
    db.close()


@pytest.fixture
def server(leader):
    with repro.server.serve(leader, port=0) as srv:
        yield srv


@pytest.fixture
def replica(leader, server):
    db = repl.start_replica(
        port=server.port, name="repl-follower", poll_interval=0.05
    )
    _caught_up(leader, db)
    yield db
    db.close()


class TestReplicaStream:
    def test_operator_zoo_differential(self, leader, replica):
        """Every read-only zoo expression answers identically on the
        leader and the caught-up replica at the same commit ts."""
        _caught_up(leader, replica)
        for name, build in ZOO.items():
            assert _canon(build(leader)) == _canon(build(replica)), (
                f"{name} diverged between leader and replica"
            )

    def test_partition_layout_and_wal_parity(self, leader, replica):
        """The follower's physical layout is byte-for-byte the
        leader's: same partition scheme, same per-partition counts,
        same WAL records in the same order."""
        assert replica.partition_layout("customers") == (
            leader.partition_layout("customers")
        )
        leader_wal = [
            (r.commit_ts, r.writes) for r in leader.engine.wal.records()
        ]
        replica_wal = [
            (r.commit_ts, r.writes) for r in replica.engine.wal.records()
        ]
        assert replica_wal == leader_wal

    def test_dml_update_delete_and_partition_move_flow(self, leader, replica):
        with leader.transaction():
            leader.customers[1]["age"] = 99
            leader.customers[2]["state"] = "WA"  # moves partitions
            del leader.customers[3]
        _caught_up(leader, replica)
        assert replica.customers(1)("age") == 99
        assert replica.customers(2)("state") == "WA"
        assert not replica.customers.defined_at(3)
        assert replica.partition_layout("customers") == (
            leader.partition_layout("customers")
        )

    def test_new_table_created_from_its_schema_record(self, leader, replica):
        leader.create_table(
            "orders",
            rows={(1, 1): {"qty": 2}},
            key_name=("cid", "oid"),
            partition_by=hash_partition("qty", 2),
        )
        _caught_up(leader, replica)
        assert replica.orders((1, 1))("qty") == 2
        assert replica.engine.table("orders").key_name == ("cid", "oid")
        assert replica.partition_layout("orders")["scheme"]["n"] == 2

    def test_ddl_reaches_an_attached_follower_as_records(self, leader, replica):
        """create_index / partition_table / drop are commits like any
        other: the follower learns them in order, on the stream it is
        already attached to."""
        hub = leader.engine.replication_hub
        session = hub.stats()["replicas"][0]["session"]
        leader.create_index("customers", "age", kind="sorted")
        leader.partition_table("regions", 2)
        leader["scratch"] = {1: {"v": 1}}
        del leader["scratch"]
        _caught_up(leader, replica)
        assert replica.engine.table("customers").indexes.get("age").kind == "sorted"
        assert replica.partition_layout("regions") == (
            leader.partition_layout("regions")
        )
        assert "scratch" not in replica.keys()
        assert replica.applied_ts() == leader.manager.now()
        assert [r["session"] for r in hub.stats()["replicas"]] == [session]
        assert hub.snapshots_sent == 0
        with pytest.raises(ReadOnlyReplicaError):
            replica.create_index("customers", "state")  # DDL is a write

    def test_rollback_ships_nothing(self, leader, replica):
        before = len(replica.engine.wal)
        txn = leader.begin()
        leader.customers[1]["age"] = 1000
        leader.rollback()
        assert txn.state == "aborted"
        time.sleep(0.2)
        assert len(replica.engine.wal) == before
        assert replica.customers(1)("age") != 1000

    def test_maintained_view_and_subscription_live_on_replica(
        self, leader, replica
    ):
        """IVM on the follower: the apply loop feeds the changelog, so
        an eager maintained view syncs incrementally and a SUBSCRIBE
        against the replica's own server pushes per-commit deltas."""
        view = replica.create_maintained_view(
            "ny",
            fql.filter(replica.customers, state="NY"),
            eager=True,
        )
        baseline = view.maintenance_stats["fallback_recomputes"]
        with repro.server.serve(replica, port=0) as replica_srv:
            with repro.client.connect(port=replica_srv.port) as sub_client:
                sub = sub_client.subscribe(
                    "filter(db('customers'), 'age > 90')", name="old"
                )
                assert sub.snapshot == {}
                leader.customers[5]["age"] = 95
                leader.customers[5]["state"] = "NY"
                _caught_up(leader, replica)
                events = sub.wait(timeout=8)
                assert events, "no delta push reached the subscriber"
                assert 5 in sub.snapshot
        assert view.defined_at(5)
        assert view.maintenance_stats["fallback_recomputes"] == baseline

    def test_replica_rejects_local_writes(self, replica):
        with pytest.raises(ReadOnlyReplicaError):
            replica.customers[1]["age"] = 0
        # reads and read-only transactions stay fine
        with replica.transaction():
            assert replica.customers(1)("age") > 0

    def test_cascaded_replication(self, leader, server, replica):
        """A replica can itself be followed: batches it applies are
        re-shipped through its own hub to sub-replicas."""
        with repro.server.serve(replica, port=0) as mid_srv:
            tail = repl.start_replica(
                port=mid_srv.port, name="repl-tail", poll_interval=0.05
            )
            try:
                tail.ensure_read_at(
                    min_ts=leader.manager.now(), timeout=8
                )
                leader.customers[12]["age"] = 21  # leader → mid → tail
                tail.ensure_read_at(
                    min_ts=leader.manager.now(), timeout=8
                )
                assert tail.customers(12)("age") == 21
                assert _canon(leader.customers) == _canon(tail.customers)
            finally:
                tail.close()

    def test_disconnected_replica_refuses_bounded_staleness(
        self, leader, replica
    ):
        """A broken stream freezes the known leader clock exactly when
        staleness grows, so a disconnected replica bounces max_lag
        reads instead of vacuously satisfying the bound."""
        _caught_up(leader, replica)
        _wait(
            lambda: replica.replication.connected,
            message="pull loop to report connected",
        )
        assert replica.ensure_read_at(max_lag=1000, timeout=0.5) > 0
        replica.replication.stop()
        with pytest.raises(ReplicaLagError):
            replica.ensure_read_at(max_lag=1000, timeout=0.1)
        # read-your-writes against an already-applied stamp stays fine:
        # min_ts is absolute, not lag-relative
        assert replica.ensure_read_at(
            min_ts=replica.applied_ts(), timeout=0.1
        ) > 0

    def test_replica_stats_report_role_and_lag(self, leader, replica):
        _caught_up(leader, replica)
        stats = replica.stats()["replication"]
        assert stats["role"] == "replica"
        assert stats["applied_ts"] == leader.manager.now()
        assert stats["lag"] == 0
        assert stats["connected"]
        hub_stats = leader.stats()["replication"]
        assert hub_stats["role"] == "leader"
        assert hub_stats["replicas"][0]["acked_ts"] <= leader.manager.now()

    def test_snapshot_resync_rebuilds_maintained_views(self, leader, replica):
        """A snapshot bypasses the changelog, so views over the old
        state are force-rebuilt — they must not silently miss rows
        that only exist in the snapshot."""
        _caught_up(leader, replica)
        view = replica.create_maintained_view(
            "ny", fql.filter(replica.customers, state="NY"), eager=True
        )
        ny_before = set(view.keys())
        leader.customers[2]["state"] = "NY"  # lands only in the snapshot
        snapshot = repl.snapshot_payload(leader)
        replica.apply_snapshot(snapshot)
        assert set(view.keys()) == ny_before | {2}

    def test_snapshot_initial_sync_after_wal_truncation(self, leader, server):
        """A follower asking for history below the WAL floor gets the
        full engine image, then streams normally."""
        leader.engine.wal.truncate()
        follower = repl.start_replica(
            port=server.port, name="repl-snap", poll_interval=0.05
        )
        try:
            _caught_up(leader, follower)
            assert follower.snapshots_loaded == 1
            assert leader.engine.replication_hub.snapshots_sent == 1
            assert _canon(leader.customers) == _canon(follower.customers)
            leader.customers[1]["age"] = 77  # stream continues after
            _caught_up(leader, follower)
            assert follower.customers(1)("age") == 77
        finally:
            follower.close()


# ---------------------------------------------------------------------------
# kill / restart catch-up
# ---------------------------------------------------------------------------


class TestRestartCatchup:
    def test_restart_resumes_from_own_wal_without_resync(
        self, leader, server, tmp_path
    ):
        """A durable follower killed mid-stream replays its own WAL
        copy on restart and re-attaches for just the missing suffix —
        the leader ships no snapshot — then re-serves subscriptions."""
        wal_path = os.fspath(tmp_path / "replica.wal")
        first = repl.start_replica(
            port=server.port, name="repl-durable",
            wal_path=wal_path, poll_interval=0.05,
        )
        _caught_up(leader, first)
        mid_ts = first.applied_ts()
        first.close()  # kill mid-stream

        leader.customers[7]["age"] = 70  # progress while follower is down
        leader.customers[8]["age"] = 80

        second = repl.start_replica(
            port=server.port, name="repl-durable",
            wal_path=wal_path, poll_interval=0.05,
        )
        try:
            assert second.applied_ts() >= mid_ts  # recovered locally
            _caught_up(leader, second)
            assert leader.engine.replication_hub.snapshots_sent == 0
            assert second.customers(7)("age") == 70
            assert _canon(leader.customers) == _canon(second.customers)
            # DDL survives the restart: schema changes rode the
            # stream into the follower's own WAL copy
            assert second.engine.table("customers").key_name == "cid"
            assert second.partition_layout("customers") == (
                leader.partition_layout("customers")
            )
            # subscriptions come back live on the restarted follower
            with repro.server.serve(second, port=0) as replica_srv:
                with repro.client.connect(port=replica_srv.port) as c:
                    sub = c.subscribe(
                        "filter(db('customers'), 'age == $v', params)",
                        params={"v": 33},
                        name="after-restart",
                    )
                    leader.customers[9]["age"] = 33
                    _caught_up(leader, second)
                    assert sub.wait(timeout=8)
                    assert 9 in sub.snapshot
        finally:
            second.close()

    def test_snapshot_synced_replica_survives_restart(
        self, leader, server, tmp_path
    ):
        """Snapshot-era rows are seeded into the replica's own WAL, so
        a durable replica that initially synced via snapshot replays
        the *full* state on restart, not just the post-snapshot
        suffix."""
        leader.engine.wal.truncate()  # forces the snapshot path
        wal_path = os.fspath(tmp_path / "snap-replica.wal")
        first = repl.start_replica(
            port=server.port, name="repl-snapped",
            wal_path=wal_path, poll_interval=0.05,
        )
        _caught_up(leader, first)
        assert first.snapshots_loaded == 1
        first.close()

        leader.customers[11]["age"] = 41  # progress while it is down

        second = repl.start_replica(
            port=server.port, name="repl-snapped",
            wal_path=wal_path, poll_interval=0.05,
        )
        try:
            _caught_up(leader, second)
            # pre-snapshot rows survived the restart, and the second
            # attach streamed the suffix instead of re-snapshotting
            assert _canon(leader.customers) == _canon(second.customers)
            assert second.snapshots_loaded == 0
            assert leader.engine.replication_hub.snapshots_sent == 1
        finally:
            second.close()


# ---------------------------------------------------------------------------
# staleness barriers and client routing
# ---------------------------------------------------------------------------


class TestStalenessAndRouting:
    def test_read_your_writes_blocks_until_applied(self, leader, server, replica):
        with repro.server.serve(replica, port=0) as replica_srv:
            client = repro.client.connect(
                port=server.port, replicas=[replica_srv.port]
            )
            with client:
                for round_no in range(5):
                    client.set_attr("customers", 4, "age", 40 + round_no)
                    rows = client.fql("db('customers')(4)")
                    assert rows["age"] == 40 + round_no
                assert client.replica_reads + client.leader_reads == 5
                assert client.replica_reads > 0 or client.replica_bounces > 0

    def test_lagging_replica_bounces_to_leader(self, leader, server):
        """A follower that cannot catch up bounces the barriered read;
        the client transparently retries it on the leader."""
        stalled = repl.ReplicaDatabase(name="repl-stalled")  # never fed
        with repro.server.serve(stalled, port=0) as stalled_srv:
            client = repro.client.connect(
                port=server.port,
                replicas=[stalled_srv.port],
            )
            client.catchup_timeout = 0.1
            with client:
                client.set_attr("customers", 6, "age", 61)
                rows = client.fql("db('customers')(6)")
                assert rows["age"] == 61  # correct despite the stall
                assert client.replica_bounces == 1
                assert client.leader_reads == 1
        stalled.close()

    def test_bounded_staleness_barrier(self, leader, replica):
        """max_lag binds against the leader clock the stream reported:
        a too-stale replica raises, a caught-up one serves."""
        _caught_up(leader, replica)
        assert replica.ensure_read_at(max_lag=0, timeout=1) == (
            leader.manager.now()
        )
        replica.leader_ts = replica.applied_ts() + 5  # pretend it lags
        with pytest.raises(ReplicaLagError):
            replica.ensure_read_at(max_lag=2, timeout=0.1)
        assert replica.ensure_read_at(max_lag=5, timeout=0.1) > 0

    def test_transactions_pin_reads_to_leader(self, leader, server, replica):
        with repro.server.serve(replica, port=0) as replica_srv:
            client = repro.client.connect(
                port=server.port, replicas=[replica_srv.port]
            )
            with client:
                client.begin()
                client.set_attr("customers", 2, "age", 22)
                # inside the transaction the read must see the buffered
                # write, which only the leader holds
                assert client.fql("db('customers')(2)")["age"] == 22
                assert client.replica_reads == 0
                client.commit()
                assert client.last_commit_ts == leader.manager.now()

    def test_replica_read_pins_applied_snapshot(self, leader, replica):
        """A transaction begun on a replica pins the applied stamp —
        later applies stay invisible, exactly like a leader snapshot."""
        _caught_up(leader, replica)
        txn = replica.begin()
        try:
            age_before = replica.customers(10)("age")
            leader.customers[10]["age"] = age_before + 1
            _wait(
                lambda: replica.applied_ts() == leader.manager.now(),
                message="replica catch-up",
            )
            assert replica.customers(10)("age") == age_before
        finally:
            replica.rollback()
        assert replica.customers(10)("age") == age_before + 1


# ---------------------------------------------------------------------------
# failover: promote + fencing
# ---------------------------------------------------------------------------


class TestFailover:
    def test_fencing_after_promote(self, leader, replica):
        _caught_up(leader, replica)
        token = replica.promote()
        assert token == 2 and not replica.read_only
        leader.fence(token)
        with pytest.raises(FencedLeaderError):
            leader.customers[1]["age"] = 0
        assert leader.fenced
        # the promoted timeline continues the leader's exactly
        replica.customers[1]["age"] = 111
        assert replica.customers(1)("age") == 111
        # barriered reads are no-ops on the promoted leader: its own
        # commits must not stall behind the (frozen) stream watermark
        assert replica.ensure_read_at(
            min_ts=replica.applied_ts(), timeout=0.2
        ) == replica.applied_ts()
        # and a mis-aimed fence — bare or with its own token — is
        # refused rather than downing the only writable node
        with pytest.raises(ReplicationError):
            replica.fence()
        with pytest.raises(ReplicationError):
            replica.fence(token)
        # a stale-epoch batch (the demoted leader still talking) is out
        with pytest.raises(FencedLeaderError):
            replica.apply_wal_batch(
                [WALRecord(10**6, [("customers", 1, {"age": 0})])],
                leader_ts=10**6,
                epoch=1,
            )
        assert replica.customers(1)("age") == 111

    def test_reads_still_serve_on_fenced_leader(self, leader, replica):
        leader.fence(replica.promote())
        assert leader.customers(1)("age") > 0
        with leader.transaction():  # read-only txns stay legal
            assert len(leader.customers) > 0

    def test_stale_leader_refuses_newer_epoch_follower(self, leader, replica):
        """REPLICA_HELLO from a follower that witnessed a newer epoch
        is refused — a stale leader must not re-feed an old timeline."""
        hub = repl.hub_for(leader)
        with pytest.raises(FencedLeaderError):
            hub.hello(999, since=0, peer_epoch=hub.epoch + 1, send=lambda p: None)

    def test_diverged_follower_refused(self, leader):
        hub = repl.hub_for(leader)
        with pytest.raises(ReplicationError):
            hub.hello(
                999,
                since=leader.manager.now() + 50,
                peer_epoch=1,
                send=lambda p: None,
            )

    def test_client_promote_repoints_writes(self, leader, server, replica):
        with repro.server.serve(replica, port=0) as replica_srv:
            client = repro.client.connect(
                port=server.port, replicas=[replica_srv.port]
            )
            with client:
                token = client.promote(0)
                assert token == 2
                # writes now land on the promoted leader
                client.set_attr("customers", 1, "age", 123)
                assert replica.customers(1)("age") == 123
                assert leader.customers(1)("age") != 123


# ---------------------------------------------------------------------------
# one written form: four carriers, one history (DESIGN.md §4)
# ---------------------------------------------------------------------------


class _Feed:
    """Attach *replica* to *leader*'s hub with no socket in between:
    every frame is JSON round-tripped as the wire would, kept in
    ``frames`` for inspection, and applied by :meth:`pump`."""

    def __init__(self, leader, replica, session_id=1):
        self.replica, self.frames, self._pending = replica, [], []
        self.hub = repl.hub_for(leader)
        self.hello = self._wire(
            self.hub.hello(
                session_id, replica.applied_ts(), replica.epoch,
                lambda frame: self._pending.append(self._wire(frame)),
            )
        )
        if self.hello["mode"] == "snapshot":
            replica.apply_snapshot(self.hello["snapshot"])
        else:
            self._apply(self.hello)
        self.pump()

    def _wire(self, frame):
        frame = json.loads(json.dumps(frame, separators=(",", ":")))
        self.frames.append(frame)
        return frame

    def _apply(self, frame):
        self.replica.apply_wal_batch(
            repl.decode_records(frame["records"]),
            frame["leader_ts"], frame["epoch"],
        )

    def pump(self):
        while self._pending:
            self._apply(self._pending.pop(0))


def _history(db):
    """DDL and DML interleaved over the zoo's hostile rows (NaN, None,
    bools, > 2**53 ints, mixed columns) and tuple keys."""
    db.create_table(
        "customers", rows=hostile_rows(), key_name="cid",
        partition_by=hash_partition("state", 4),
    )
    db.create_index("customers", "age", kind="sorted")
    db.create_table(
        "pairs",
        rows={(i, f"k{i}"): {"n": i, "nested": {"a": [i, None]}}
              for i in range(6)},
        key_name=("i", "k"),
    )
    db["doomed"] = {1: {"v": 1}}
    with db.transaction():
        db.customers[3]["state"] = "WA"  # moves partitions
        del db.customers[5]
        db.pairs[(9, "k9")] = {"n": 9}
    db.partition_table("pairs", 2)
    db.create_index("customers", "state")
    db.drop_index("customers", "age")
    del db["doomed"]
    db.customers[200] = {"name": "late", "age": 1, "state": "NY"}


def _written_down(engine):
    """Tables, catalog entries and rows of one engine. Rows compare
    as JSON text: NaN equals itself there and 1 differs from 1.0."""
    return {
        name: (
            repl.table_schema(engine, name),
            {
                key: json.dumps(row, sort_keys=True)
                for key, row in engine.table(name).scan_at(2**62)
            },
        )
        for name in engine.table_names()
    }


def _via_wal_file(leader, tmp_path):
    return StorageEngine.recover(WriteAheadLog.load(leader.engine.wal.path))


def _via_wal_batch(leader, tmp_path):
    path = os.fspath(tmp_path / "replica.wal")
    replica = repl.ReplicaDatabase(wal_path=path)
    feed = _Feed(leader, replica)
    assert feed.hello["mode"] == "stream"
    replica.close()
    # the follower's log is the leader's, byte for byte
    with open(path, "rb") as mine, open(leader.engine.wal.path, "rb") as theirs:
        assert mine.read() == theirs.read()
    return replica.engine


def _via_checkpoint(leader, tmp_path):
    path = os.fspath(tmp_path / "ckpt.json")
    leader.checkpoint(path)
    return load_checkpoint(path)[0]


def _via_snapshot(leader, tmp_path):
    leader.engine.wal.truncate()  # history gone: HELLO must snapshot
    replica = repl.ReplicaDatabase()
    assert _Feed(leader, replica).hello["mode"] == "snapshot"
    # and the seed record it kept replays to the same engine
    assert _written_down(StorageEngine.recover(replica.engine.wal)) == (
        _written_down(replica.engine)
    )
    return replica.engine


class TestOneWrittenForm:
    @pytest.mark.parametrize(
        "carrier",
        [_via_wal_file, _via_wal_batch, _via_checkpoint, _via_snapshot],
    )
    def test_every_carrier_rebuilds_the_same_engine(self, carrier, tmp_path):
        leader = fql.connect(
            "form-leader", wal_path=os.fspath(tmp_path / "leader.wal"),
            default=False,
        )
        _history(leader)
        expected = _written_down(leader.engine)
        rebuilt = carrier(leader, tmp_path)
        assert _written_down(rebuilt) == expected
        for name in expected:
            original, copy = leader.engine.table(name), rebuilt.table(name)
            assert copy.is_partitioned == original.is_partitioned
            if original.is_partitioned:
                assert copy.partition_counts(2**62) == (
                    original.partition_counts(2**62)
                )
        leader.close()

    def test_frames_carry_records_and_nothing_else(self, tmp_path):
        """A durable follower stopped and restarted from its own WAL
        comes back with key names, layout and indexes — and no frame
        ever carried a schema outside a record."""
        leader = fql.connect("form-leader", default=False)
        _history(leader)
        path = os.fspath(tmp_path / "replica.wal")
        first = repl.ReplicaDatabase(wal_path=path)
        feed = _Feed(leader, first)
        first.close()
        leader.create_index("pairs", "n")  # while the follower is down
        leader.customers[201] = {"name": "later", "age": 2, "state": "CA"}
        second = repl.ReplicaDatabase(wal_path=path)
        restarted = _written_down(second.engine)  # from its own log alone
        assert restarted["customers"][0]["key_name"] == "cid"
        assert restarted["pairs"][0]["partition"]["n"] == 2
        feed2 = _Feed(leader, second, session_id=2)
        assert _written_down(second.engine) == _written_down(leader.engine)
        assert feed.hub.snapshots_sent == 0
        for frame in feed.frames + feed2.frames:
            assert "schemas" not in frame and "snapshot" not in frame
            stamps = {record["ts"] for record in frame["records"]}
            on_disk = ", ".join(
                r.to_json()
                for r in leader.engine.wal.records()
                if r.commit_ts in stamps
            )
            assert json.dumps(frame["records"]) == f"[{on_disk}]"
        second.close()

    def test_unshippable_record_detaches_the_peer(self):
        """A memory-only leader accepts a live value; it can never be
        shipped as a repr pretending to be the row."""
        leader = fql.connect("form-live", default=False)
        leader["t"] = {1: {"v": 1}}
        replica = repl.ReplicaDatabase()
        feed = _Feed(leader, replica)
        leader.t[2] = {"v": {1, 2}}  # commits: nothing encodes it here
        feed.pump()
        assert len(feed.hub) == 0  # detached
        (event,) = leader.lifecycle_events("replication_error")
        assert "ReplicationError" in event.data["error"]
        assert not replica.t.defined_at(2)
        with pytest.raises(ReplicationError):
            _Feed(leader, repl.ReplicaDatabase(), session_id=2)


# ---------------------------------------------------------------------------
# a snapshot install is one reference swap (DESIGN.md §12)
# ---------------------------------------------------------------------------


def _window_reads(db):
    """A zone-skipped filter, an index lookup and an offloaded filter,
    each as ``{key: v}``."""

    def entries(fn):
        return {key: row("v") for key, row in fn.items()}

    with using_exec_mode("batch"):
        zone = entries(fql.filter(db.t, "v >= 1000"))
        index = entries(fql.filter(db.t, "v == 1005"))
    with using_exec_mode("batch"), using_offload_mode("force"):
        offload = entries(fql.filter(db.t, "v >= 1000"))
    return {"zone": zone, "index": index, "offload": offload}


class TestSnapshotInstallWindow:
    """Reads that land at the instant a snapshot install assigns the
    replica engine's tables see the new state whole: statistics,
    indexes and the offload mirror's staleness all ride the table
    objects, so nothing is swapped after them."""

    @pytest.mark.parametrize(
        "before,after",
        [(None, None), (hash_partition("k", 2), hash_partition("k", 4))],
        ids=["flat", "partition_count_changes"],
    )
    def test_reads_at_the_table_swap(self, before, after, monkeypatch):
        leader = fql.connect("window-leader", default=False)
        replica = repl.ReplicaDatabase(name="window-replica")
        try:
            leader.create_table(
                "t", rows={i: {"k": i, "v": i} for i in range(40)},
                key_name="k", partition_by=before,
            )
            leader.create_index("t", "v")
            replica.apply_snapshot(repl.snapshot_payload(leader))
            _window_reads(replica)  # plans cached, mirror synced
            for i in range(40):
                leader.t[i]["v"] = 1000 + i
            if after is not None:
                leader.partition_table("t", after)
            with using_exec_mode("naive"):
                expected = _window_reads(leader)
            assert len(expected["zone"]) == 40
            assert expected["index"] == {5: 1005}

            engine, seen = replica.engine, {}

            def hook(obj, name, value):
                object.__setattr__(obj, name, value)
                if obj is engine and name == "tables" and not seen:
                    seen.update(_window_reads(replica))

            monkeypatch.setattr(StorageEngine, "__setattr__", hook)
            replica.apply_snapshot(repl.snapshot_payload(leader))
            monkeypatch.undo()
            assert seen == expected
            assert _window_reads(replica) == expected
        finally:
            replica.close()
            leader.close()
