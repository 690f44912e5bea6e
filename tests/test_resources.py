"""Per-query resource accounting and budget enforcement
(docs/observability.md#resource-accounting): meters threaded through
the executor (partitioned scans included), the three budget
knobs (env, session HELLO, per-request frame) killing over-budget
queries with a typed retryable error while the session stays usable,
the TOP verb / `client.top()`, and `db.stats()["resources"]`. Also
pins the executor-counter attribution semantics under partitioning
and the bounded-ring guarantees of the event and slow-query logs
under concurrent writers."""

from __future__ import annotations

import threading

import pytest

import repro
import repro.client
import repro.server
from repro import fql
from repro.errors import ResourceExhaustedError
from repro.exec.batch import (
    _unattributed,
    counters,
    counters_for,
    reset_counters,
)
from repro.obs.events import EventLog, events_for
from repro.obs.resources import (
    ResourceMeter,
    active_meter,
    reset_resources,
    resources_for,
    using_meter_mode,
)
from repro.obs.slowlog import SlowQueryEntry, SlowQueryLog


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _clean_rollups():
    reset_resources()
    reset_counters()
    yield
    reset_resources()
    reset_counters()


@pytest.fixture
def db():
    db = repro.connect(name="resDB", default=False)
    db["people"] = {
        i: {"age": i % 80, "name": f"p{i}", "grp": i % 5} for i in range(500)
    }
    yield db
    db.close()


@pytest.fixture
def part_db():
    db = repro.connect(name="resPartDB", default=False)
    db.create_table(
        "big", {i: {"v": i} for i in range(5000)}, partition_by=4
    )
    yield db
    db.close()


@pytest.fixture
def server(db):
    with repro.server.serve(db, port=0) as srv:
        yield srv


def client_for(srv, **kwargs):
    return repro.client.connect(port=srv.port, **kwargs)


# ---------------------------------------------------------------------------
# meter core (embedded)
# ---------------------------------------------------------------------------


class TestMeterCore:
    def test_stats_resources_rollup(self, db):
        result = dict(fql.filter("age > 40", input=db.people).items())
        snap = db.stats()["resources"]
        assert snap["queries"] == 1
        assert snap["killed"] == 0
        assert snap["totals"]["rows_scanned"] == 500
        assert snap["totals"]["result_rows"] == len(result)
        assert snap["totals"]["bytes_scanned"] > 0
        assert snap["totals"]["batches_scanned"] >= 1
        assert snap["totals"]["peak_batch_bytes"] > 0

    def test_kernel_dispatch_counts(self, db):
        dict(fql.filter("age > 40", input=db.people).items())
        totals = resources_for(db.engine).totals
        # whichever kernel path served it, the dispatch was recorded
        assert totals["kernel_batches"] + totals["python_batches"] >= 1

    def test_join_build_rows(self):
        from repro.obs.resources import _DEFAULT
        from repro.workloads import generate_retail

        data = generate_retail(30, 10, 50, seed=3)
        store = data.to_stored_database(name="resJoinDB")
        try:
            dict(fql.join(store).items())
            dict(fql.join(store).items())
            # a join reaches its engine through the database container:
            # its meter, and its plan, belong to that database
            accounting = resources_for(store.engine)
            assert accounting.totals["join_build_rows"] > 0
            assert store.stats()["resources"]["queries"] == 2
            assert _DEFAULT.queries == 0
            assert store.stats()["plan_cache"]["hits"] == 1
            # a two-atom join on the column images counts its build too
            before = accounting.totals["join_build_rows"]
            two = fql.join(
                repro.fdm.database(
                    {"products": store.products, "customers": store.customers}
                ),
                on=[["products.price", "customers.__key__"]],
            )
            assert "image, build customers on key" in repro.exec.explain(two)
            dict(two.items())
            assert (
                accounting.totals["join_build_rows"] - before
                == len(store.customers)
            )
        finally:
            store.close()

    def test_abandoned_stream_reports_once(self, db):
        stream = fql.filter("age > 40", input=db.people).items()
        next(stream)
        assert active_meter() is None  # nothing leaks to the consumer
        assert len(resources_for(db.engine)._active) == 1
        stream.close()
        stream.close()
        snap = db.stats()["resources"]
        assert snap["queries"] == 1 and snap["active"] == []
        assert snap["totals"]["result_rows"] == 1
        assert active_meter() is None

    def test_fingerprint_rollup_joins_workload(self, db):
        dict(fql.filter("age > 40", input=db.people).items())
        dict(fql.filter("age > 60", input=db.people).items())
        snap = resources_for(db.engine).snapshot()
        # both runs share one normalized fingerprint
        assert len(snap["fingerprints"]) == 1
        row = next(iter(snap["fingerprints"].values()))
        assert row["queries"] == 2
        assert row["rows_scanned"] == 1000

    def test_meter_mode_off_is_inert(self, db):
        with using_meter_mode("off"):
            dict(fql.filter("age > 40", input=db.people).items())
        snap = db.stats()["resources"]
        assert snap["queries"] == 0
        assert snap["totals"]["rows_scanned"] == 0

    def test_top_consumer(self, db):
        dict(fql.filter("age > 40", input=db.people).items())
        assert resources_for(db.engine).top_consumer() is not None


# ---------------------------------------------------------------------------
# budget kills (embedded)
# ---------------------------------------------------------------------------


class TestBudgetKillsEmbedded:
    def test_rows_scanned_budget(self, db, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_ROWS_SCANNED", "100")
        with pytest.raises(ResourceExhaustedError) as err:
            dict(fql.filter("age > 10", input=db.people).items())
        assert err.value.snapshot is not None
        assert err.value.snapshot["rows_scanned"] > 100
        snap = db.stats()["resources"]
        assert snap["killed"] == 1

    def test_result_rows_budget(self, db, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RESULT_ROWS", "10")
        with pytest.raises(ResourceExhaustedError):
            dict(fql.filter("age > 1", input=db.people).items())
        # killed mid-stream: one report, and the consumer's thread is clean
        snap = db.stats()["resources"]
        assert (snap["queries"], snap["killed"]) == (1, 1)
        assert snap["totals"]["result_rows"] == 11 and snap["active"] == []
        assert active_meter() is None

    def test_deadline_budget(self, db, monkeypatch):
        monkeypatch.setenv("REPRO_QUERY_DEADLINE_MS", "0.000001")
        with pytest.raises(ResourceExhaustedError):
            dict(fql.filter("age > 10", input=db.people).items())

    def test_kill_emits_event_with_meter_snapshot(self, db, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_ROWS_SCANNED", "100")
        with pytest.raises(ResourceExhaustedError):
            dict(fql.filter("age > 10", input=db.people).items())
        events = db.lifecycle_events(kind="query_killed")
        assert len(events) == 1
        data = events[0].data
        assert "exceeds budget" in data["reason"]
        assert data["meter"]["rows_scanned"] > 100

    def test_generous_budgets_never_fire(self, db, monkeypatch):
        # the armed-but-generous CI leg in miniature
        monkeypatch.setenv("REPRO_MAX_ROWS_SCANNED", "1000000000")
        monkeypatch.setenv("REPRO_MAX_RESULT_ROWS", "1000000000")
        monkeypatch.setenv("REPRO_QUERY_DEADLINE_MS", "600000")
        result = dict(fql.filter("age > 40", input=db.people).items())
        assert len(result) == 234
        assert db.stats()["resources"]["killed"] == 0


# ---------------------------------------------------------------------------
# budget kills (over the wire)
# ---------------------------------------------------------------------------


class TestBudgetKillsWire:
    def test_fql_kill_session_stays_usable(self, db, server):
        with client_for(server) as c:
            assert c.set_budgets(max_rows_scanned=100) == {
                "max_rows_scanned": 100
            }
            with pytest.raises(ResourceExhaustedError) as err:
                c.fql("filter('age > 10', input=db('people'))")
            assert "exceeds budget" in str(err.value)
            # the very next request on the same session succeeds
            assert c.fql("len(db('people'))") == 500
            events = db.lifecycle_events(kind="query_killed")
            assert events and events[-1].data["meter"]["rows_scanned"] > 100

    def test_sql_kill_and_recovery(self, db, server):
        # the verb counts its reply's rows against the result-rows
        # budget once the reply is built, as the FQL verb does
        with client_for(server) as c:
            c.set_budgets(max_result_rows=10)
            with pytest.raises(ResourceExhaustedError):
                c.sql("SELECT name FROM people WHERE age > 10")
            c.set_budgets()  # clear
            result = c.sql("SELECT name FROM people WHERE age > 78")
            assert len(result["rows"]) > 0

    def test_sql_scan_budget_kill_and_recovery(self, db, server):
        # a SELECT runs on the same scan as an FQL filter, so the scan
        # budget kills it mid-scan and the session stays usable
        with client_for(server) as c:
            c.set_budgets(max_rows_scanned=100)
            with pytest.raises(ResourceExhaustedError) as err:
                c.sql("SELECT name FROM people WHERE age > 10")
            assert "exceeds budget" in str(err.value)
            assert c.fql("len(db('people'))") == 500
            events = db.lifecycle_events(kind="query_killed")
            assert events and events[-1].data["meter"]["rows_scanned"] > 100
            c.set_budgets()
            result = c.sql("SELECT name FROM people WHERE age > 10")
            assert len(result["rows"]) == len(
                c.fql("filter('age > 10', input=db('people'))")
            )

    def test_dml_deadline_kill_and_recovery(self, db, server):
        with client_for(server) as c:
            c.set_budgets(deadline_ms=0.000001)
            with pytest.raises(ResourceExhaustedError):
                c.insert("people", 900, {"age": 1, "name": "x", "grp": 0})
            assert c.set_budgets() == {}
            c.insert("people", 901, {"age": 2, "name": "y", "grp": 0})
            assert c.fql("db('people')(901)")["name"] == "y"

    def test_killed_dml_left_no_partial_write(self, db, server):
        with client_for(server) as c:
            c.set_budgets(deadline_ms=0.000001)
            with pytest.raises(ResourceExhaustedError):
                c.insert("people", 902, {"age": 3, "name": "z", "grp": 0})
            c.set_budgets()
            assert c.fql("len(db('people'))") == 500

    def test_frame_deadline_on_fql(self, db, server):
        with client_for(server) as c:
            with pytest.raises(ResourceExhaustedError):
                c.fql(
                    "filter('age > 10', input=db('people'))",
                    deadline_ms=0.000001,
                )
            # per-request budget does not stick to the session
            assert c.fql("len(db('people'))") == 500

    def test_open_transaction_survives_kill(self, db, server):
        with client_for(server) as c:
            c.begin()
            c.insert("people", 950, {"age": 9, "name": "t", "grp": 0})
            c.set_budgets(max_rows_scanned=100)
            with pytest.raises(ResourceExhaustedError):
                c.fql("filter('age > 10', input=db('people'))")
            c.set_budgets()
            # the transaction opened before the kill still commits
            c.commit()
            assert c.fql("db('people')(950)")["name"] == "t"

    def test_hello_rejects_bad_budget(self, db, server):
        from repro.errors import ProtocolError

        with client_for(server) as c:
            with pytest.raises(ProtocolError):
                c.set_budgets(max_rows_scanned=-5)

    def test_wal_bytes_metered_on_dml(self, db, server):
        with client_for(server) as c:
            c.insert("people", 903, {"age": 4, "name": "w", "grp": 0})
        assert db.stats()["resources"]["totals"]["wal_bytes"] > 0


# ---------------------------------------------------------------------------
# budgets over partitioned scans
# ---------------------------------------------------------------------------


class TestPartitionedScans:
    def test_kill_over_partitioned_scan(self, part_db, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_ROWS_SCANNED", "1000")
        with pytest.raises(ResourceExhaustedError):
            dict(fql.filter("v > 1", input=part_db.big).items())
        monkeypatch.delenv("REPRO_MAX_ROWS_SCANNED")
        # the engine is immediately usable for the next query
        result = dict(fql.filter("v > 4000", input=part_db.big).items())
        assert len(result) == 999

    def test_wire_kill_over_partitioned_scan(self, part_db):
        with repro.server.serve(part_db, port=0) as srv:
            with client_for(srv) as c:
                c.set_budgets(max_rows_scanned=1000)
                with pytest.raises(ResourceExhaustedError):
                    c.fql("filter('v > 1', input=db('big'))")
                c.set_budgets()
                assert c.fql("len(db('big'))") == 5000


# ---------------------------------------------------------------------------
# TOP verb and dashboards
# ---------------------------------------------------------------------------


class TestTopVerb:
    def test_client_top_shape(self, db, server):
        with client_for(server) as c:
            c.fql("filter('age > 40', input=db('people'))")
            top = c.top()
            assert top["queries"] >= 1
            assert top["totals"]["rows_scanned"] >= 500
            assert top["top_consumer"] in top["fingerprints"]
            assert isinstance(top["active"], list)
            assert isinstance(top["sessions"], dict)

    def test_per_session_rollup(self, db, server):
        with client_for(server) as c:
            c.fql("filter('age > 40', input=db('people'))")
            top = c.top()
            # the serving session's row carries the scan
            assert any(
                row["rows_scanned"] >= 500
                for row in top["sessions"].values()
            )

    def test_repro_top_renders_resources(self, db, server):
        import pathlib
        import sys

        tools = pathlib.Path(__file__).resolve().parent.parent / "tools"
        sys.path.insert(0, str(tools))
        try:
            import repro_top
        finally:
            sys.path.pop(0)
        with client_for(server) as c:
            c.fql("filter('age > 40', input=db('people'))")
        row = repro_top.poll_member("127.0.0.1", server.port, top=5)
        assert "resources" in row
        frame = repro_top.render_frame([row], top=5, sort="bytes")
        assert "RESOURCES (by bytes)" in frame
        for sort in repro_top.RESOURCE_SORT_KEYS:
            lines = repro_top.render_resources([row], 5, sort)
            assert lines

    def test_shed_refusal_names_top_consumer(self, db):
        import socket
        import time

        from repro.errors import ServerBusyError

        with repro.server.serve(
            db, port=0, max_sessions=1, admission_queue=1
        ) as srv:
            c1 = client_for(srv)
            # populate the rollup so the shed message has a culprit
            c1.fql("filter('age > 40', input=db('people'))")
            fingerprint = resources_for(db.engine).top_consumer()
            assert fingerprint is not None
            # the session slot is held by c1; the next connection is
            # parked in the dispatcher awaiting a slot, the one after
            # that fills the admission queue
            parked = socket.create_connection(
                ("127.0.0.1", srv.port), timeout=10
            )
            deadline = time.monotonic() + 10
            while srv.stats()["accepted"] < 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            queued = socket.create_connection(
                ("127.0.0.1", srv.port), timeout=10
            )
            while srv.stats()["queued"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            # the next arrival is shed — and told who is expensive
            with pytest.raises(ServerBusyError) as err:
                client_for(srv, connect_timeout=10)
            assert f"top consumer: {fingerprint}" in str(err.value)
            events = db.lifecycle_events(kind="shed")
            assert events and events[-1].data["top_consumer"] == fingerprint
            parked.close()
            queued.close()
            c1.close()


# ---------------------------------------------------------------------------
# executor-counter semantics under partitioning (pinned)
# ---------------------------------------------------------------------------


class TestExecutorCounterSemantics:
    """Attribution semantics documented on ExecutorCounters: scans
    attribute to the engine their function graph resolves to,
    partitioned tables included, and meters agree. A change to either
    behaviour must update the docs and these pins together."""

    def test_unpartitioned_scans_attribute_to_engine(self, db):
        dict(fql.filter("age > 40", input=db.people).items())
        engine_counters = counters_for(db.engine).snapshot()
        scanned = (
            engine_counters["columnar_rows"] + engine_counters["row_rows"]
        )
        assert scanned == 500
        assert (
            _unattributed.columnar_rows + _unattributed.row_rows == 0
        )

    def test_partitioned_scans_attribute_to_engine(self, part_db):
        dict(fql.filter("v > 100", input=part_db.big).items())
        engine_counters = counters_for(part_db.engine).snapshot()
        global_counters = counters.snapshot()
        assert (
            engine_counters["columnar_rows"] + engine_counters["row_rows"]
            == global_counters["columnar_rows"] + global_counters["row_rows"]
            == 5000
        )
        assert (
            _unattributed.columnar_rows + _unattributed.row_rows == 0
        )

    def test_meters_attribute_partitioned_scans_to_engine(self, part_db):
        dict(fql.filter("v > 100", input=part_db.big).items())
        # the meter sees what the global counter sees — per engine
        assert (
            resources_for(part_db.engine).totals["rows_scanned"] == 5000
        )


# ---------------------------------------------------------------------------
# bounded rings under concurrent writers
# ---------------------------------------------------------------------------


class TestRingsConcurrent:
    WRITERS = 8
    PER_WRITER = 200

    def test_event_ring_bounded_and_untorn(self):
        log = EventLog(capacity=256)
        barrier = threading.Barrier(self.WRITERS)

        def pump(writer):
            barrier.wait()
            for i in range(self.PER_WRITER):
                log.emit("stress", writer=writer, seq=i)

        threads = [
            threading.Thread(target=pump, args=(w,))
            for w in range(self.WRITERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        entries = log.events()
        assert len(entries) == 256  # bounded, newest kept
        assert log.emitted == self.WRITERS * self.PER_WRITER
        for event in entries:
            # no torn entries: every event carries its full payload
            assert event.kind == "stress"
            assert set(event.data) == {"writer", "seq"}
            assert 0 <= event.data["writer"] < self.WRITERS
            assert 0 <= event.data["seq"] < self.PER_WRITER

    def test_engine_event_ring_concurrent_sessions(self, db, server):
        def hammer():
            with client_for(server) as c:
                for _ in range(5):
                    c.fql("filter('age > 40', input=db('people'))")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ring = events_for(db.engine)
        assert len(ring.events()) <= 256

    def test_slowlog_ring_bounded_and_untorn(self):
        log = SlowQueryLog(capacity=64)
        barrier = threading.Barrier(self.WRITERS)

        def pump(writer):
            barrier.wait()
            for i in range(self.PER_WRITER):
                log.record(
                    SlowQueryEntry(
                        query=f"{writer}:{i}",
                        wall_ms=float(i),
                        rows=i,
                        tree=[],
                        zone_skipped=0,
                        zone_scanned=0,
                        trace_id=None,
                    )
                )

        threads = [
            threading.Thread(target=pump, args=(w,))
            for w in range(self.WRITERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        entries = log.entries()
        assert len(entries) == 64
        for entry in entries:
            writer, seq = entry.query.split(":")
            assert entry.wall_ms == float(seq)
            assert entry.rows == int(seq)


# ---------------------------------------------------------------------------
# meter mechanics
# ---------------------------------------------------------------------------


class TestMeterMechanics:
    def test_snapshot_is_json_safe(self, db):
        dict(fql.filter("age > 40", input=db.people).items())
        import json

        json.dumps(db.stats()["resources"])

    def test_fingerprint_eviction_keeps_top_consumers(self):
        from repro.obs.resources import ResourceAccounting

        acct = ResourceAccounting()
        for i in range(ResourceAccounting.MAX_FINGERPRINTS + 10):
            meter = ResourceMeter(engine=None)
            meter.fingerprint = f"fp{i}"
            meter.rows_scanned = i
            acct.begin(meter)
            acct.finish(meter)
        snap = acct.snapshot()
        assert (
            len(snap["fingerprints"])
            == ResourceAccounting.MAX_FINGERPRINTS
        )
        # the cheapest fingerprints were evicted, not the hottest
        assert "fp0" not in snap["fingerprints"]
        top = max(
            snap["fingerprints"].items(),
            key=lambda kv: kv[1]["rows_scanned"],
        )
        assert top[0] == f"fp{ResourceAccounting.MAX_FINGERPRINTS + 9}"
