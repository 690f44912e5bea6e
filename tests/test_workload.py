"""The workload profiler, plan-regression detection, and cluster
health (docs/observability.md, docs/operations.md): stable query
fingerprints across literals and params, plan-change events firing
exactly once per re-lowering, the lifecycle event log's ring and file
sink, seconds-based replication lag, the HEALTH and WORKLOAD verbs,
Prometheus exposition escaping, and the ``repro_top`` dashboard."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time

import pytest

import repro as fql
import repro.client
import repro.replication as repl
import repro.server
from repro.obs.events import EventLog, events_for
from repro.obs.metrics import (
    MetricsRegistry,
    escape_help,
    escape_label_value,
    metrics_for,
)
from repro.obs.resources import ResourceAccounting, ResourceMeter
from repro.obs.workload import fingerprint_of, normalize_source, plan_hash_of

REPO = pathlib.Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def db():
    db = fql.connect(name="wlDB", default=False)
    db["item"] = {
        i: {"v": i * 3, "grp": i % 5, "name": f"i{i}"} for i in range(200)
    }
    yield db
    db.close()


def _run(expr):
    return dict(expr.items())


def _finish(accounting, fingerprint, wall_ns, rows):
    """Fold one finished query of *fingerprint* into *accounting*: it
    returned *rows* rows and its meter started *wall_ns* ago."""
    meter = ResourceMeter()
    meter.fingerprint = fingerprint
    meter.result_rows = rows
    meter.started_ns = time.perf_counter_ns() - wall_ns
    accounting.finish(meter)


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_literals_are_parameterized(self):
        assert normalize_source("v > 100") == "v > ?"
        assert normalize_source("name == 'bob'") == "name == ?"
        assert normalize_source("a > 1.5 and b < 2") == "a > ? and b < ?"
        # identifiers containing digits survive
        assert normalize_source("v2 > 10") == "v2 > ?"

    def test_same_shape_different_literals_same_fingerprint(self, db):
        a = fingerprint_of(fql.filter("v > 10", input=db.item))
        b = fingerprint_of(fql.filter("v > 500", input=db.item))
        assert a == b

    def test_same_shape_different_params_same_fingerprint(self, db):
        from repro.predicates import parse_predicate

        pred = parse_predicate("v > $min")
        a = fingerprint_of(
            fql.filter(pred, db.item, params={"min": 10})
        )
        b = fingerprint_of(
            fql.filter(pred, db.item, params={"min": 400})
        )
        assert a == b

    def test_string_literals_collapse(self, db):
        a = fingerprint_of(fql.filter("name == 'i1'", input=db.item))
        b = fingerprint_of(fql.filter("name == 'i199'", input=db.item))
        assert a == b

    def test_different_predicate_shape_differs(self, db):
        a = fingerprint_of(fql.filter("v > 10", input=db.item))
        b = fingerprint_of(fql.filter("grp == 1", input=db.item))
        assert a != b

    def test_different_graph_shape_differs(self, db):
        flt = fql.filter("v > 10", input=db.item)
        grouped = fql.group(by=["grp"], input=flt)
        assert fingerprint_of(flt) != fingerprint_of(grouped)

    def test_rebuilt_graph_same_fingerprint(self, db):
        """Fingerprints are structural, not identity-based: a freshly
        built graph of the same shape lands in the same class."""
        a = fingerprint_of(fql.filter("v > 10", input=db.item))
        b = fingerprint_of(fql.filter("v > 10", input=db.item))
        assert a == b


# ---------------------------------------------------------------------------
# profile aggregation
# ---------------------------------------------------------------------------


class TestProfileAggregation:
    def test_profiled_queries_aggregate_by_class(self, db):
        _run(fql.filter("v > 10", input=db.item))
        _run(fql.filter("v > 400", input=db.item))
        _run(fql.filter("grp == 1", input=db.item))
        profile = db.workload_profile()
        fp = fingerprint_of(fql.filter("v > 99", input=db.item))
        assert fp in profile
        row = profile[fp]
        assert row["calls"] == 2
        assert row["rows"] > 0
        assert row["p95_ms"] >= 0.0
        assert row["plan_hash"]
        assert len(profile) == 2

    def test_workload_and_top_count_every_query(self, db):
        """WORKLOAD and TOP render one record per class: every finished
        query folds in, embedded and served alike, so the class's calls
        and rows are TOP's queries and result rows."""
        from repro.server.session import Session

        flt = fql.filter("v > 10", input=db.item)
        session = Session(db, 1)
        request = {"verb": "fql", "expr": "filter(db('item'), 'v > 10')"}
        for _ in range(160):
            expected = _run(flt)
        for _ in range(160):
            assert session.handle(dict(request))["ok"]
        fp = fingerprint_of(flt)
        workload = session.handle({"verb": "workload"})["result"]
        top = session.handle({"verb": "top"})["result"]
        row, cost = workload["classes"][fp], top["fingerprints"][fp]
        assert (row["calls"], row["rows"]) == (320, 320 * len(expected))
        assert (cost["queries"], cost["result_rows"]) == (
            row["calls"],
            row["rows"],
        )

    def test_snapshot_rows_are_plain_data(self, db):
        _run(fql.filter("v > 10", input=db.item))
        json.dumps(db.workload_profile())  # must not raise

    def test_full_profile_admits_a_new_class(self):
        """A full profile evicts its coldest class *before* inserting,
        so a newcomer (0 calls) is not the one dropped."""
        profile = ResourceAccounting()
        profile.MAX_FINGERPRINTS = 3
        for fp in ("a", "b", "c"):
            for _ in range(5):
                _finish(profile, fp, 1000, 1)
        for _ in range(10):
            _finish(profile, "new", 1000, 1)
        snap = profile.classes()
        assert len(snap) == 3
        assert snap["new"]["calls"] == 10


# ---------------------------------------------------------------------------
# plan-change detection
# ---------------------------------------------------------------------------


class TestPlanChange:
    def test_partitioning_fires_exactly_one_change(self, db):
        flt = fql.filter("v > 10", input=db.item)
        fp = fingerprint_of(flt)
        before = _run(flt)
        old_hash = db.workload_profile()[fp]["plan_hash"]

        db.partition_table("item", 4)
        after = _run(flt)
        assert after == before

        row = db.workload_profile()[fp]
        assert row["plan_changes"] == 1
        assert row["plan_hash"] != old_hash
        assert row["last_good_hash"] == old_hash

        # re-running the changed plan must not re-fire
        _run(flt)
        _run(flt)
        assert db.workload_profile()[fp]["plan_changes"] == 1

        changes = db.lifecycle_events(kind="plan_change")
        assert len(changes) == 1
        event = changes[0].to_dict()
        assert event["fingerprint"] == fp
        assert event["last_good_hash"] == old_hash
        assert event["plan_hash"] == row["plan_hash"]

    def test_plan_diff_carries_both_plans(self, db):
        flt = fql.filter("v > 10", input=db.item)
        fp = fingerprint_of(flt)
        _run(flt)
        assert db.plan_diff(fp)["last_good"] is None
        db.partition_table("item", 4)
        _run(flt)
        diff = db.plan_diff(fp)
        assert diff["current"]["hash"] != diff["last_good"]["hash"]
        # the partition annotation rides the scan line
        scan = next(
            line for line in diff["current"]["plan"].splitlines()
            if line.lstrip().startswith("scan ")
        )
        assert "hash(__key__, 4): scan 4/4 partitions, 0 pruned" in scan
        assert "partitions" not in diff["last_good"]["plan"]

    def test_unknown_fingerprint_diff_is_none(self, db):
        assert db.plan_diff("ffffffffffff") is None

    def test_literal_change_is_not_a_plan_change(self, db):
        _run(fql.filter("v > 10", input=db.item))
        _run(fql.filter("v > 500", input=db.item))
        fp = fingerprint_of(fql.filter("v > 0", input=db.item))
        assert db.workload_profile()[fp]["plan_changes"] == 0

    def test_plan_hash_ignores_literals(self, db):
        from repro.exec.lower import lower

        a = plan_hash_of(lower(fql.filter("v > 10", input=db.item)))
        b = plan_hash_of(lower(fql.filter("v > 999", input=db.item)))
        assert a == b

    def test_repartition_fanout_is_a_plan_change(self, db):
        """4-way to 2-way: the scan line's partition annotation renders
        identically after literal normalization, but fan-out is
        structure, not a literal — it must fire."""
        flt = fql.filter("v > 10", input=db.item)
        fp = fingerprint_of(flt)
        db.partition_table("item", 4)
        _run(flt)
        four_way = db.workload_profile()[fp]["plan_hash"]
        db.partition_table("item", 2)
        _run(flt)
        row = db.workload_profile()[fp]
        assert row["plan_changes"] == 1
        assert row["plan_hash"] != four_way
        assert row["last_good_hash"] == four_way


class TestLatencyRegression:
    def test_p95_degradation_fires_once(self):
        profile = ResourceAccounting()
        fast, slow = int(1e6), int(100e6)  # 1ms baseline, 100ms after
        for _ in range(40):
            _finish(profile, "fp1", fast, 10)
        for _ in range(40):
            _finish(profile, "fp1", slow, 10)
        row = profile.classes()["fp1"]
        assert row["regressions"] == 1


# ---------------------------------------------------------------------------
# the event log
# ---------------------------------------------------------------------------


class TestEventLog:
    def test_ring_is_bounded(self):
        log = EventLog(capacity=8)
        for i in range(20):
            log.emit("tick", n=i)
        events = log.events()
        assert len(events) == 8
        assert events[0].data["n"] == 12  # oldest survivor
        assert log.emitted == 20

    def test_kind_filter_and_limit(self):
        log = EventLog(capacity=16)
        log.emit("a", n=1)
        log.emit("b", n=2)
        log.emit("a", n=3)
        assert [e.data["n"] for e in log.events(kind="a")] == [1, 3]
        assert [e.data["n"] for e in log.events(limit=1)] == [3]

    def test_file_sink_round_trips(self, db, tmp_path):
        path = tmp_path / "events.jsonl"
        db.set_event_sink(str(path))
        events_for(db.engine).emit("custom", detail="x")
        db.set_event_sink(None)
        events_for(db.engine).emit("unmirrored")
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert [row["event"] for row in lines] == ["custom"]
        assert lines[0]["detail"] == "x"
        assert lines[0]["wall_clock"] > 0

    def test_fence_emits_event(self, db):
        db.fence(2)
        kinds = [e.kind for e in db.lifecycle_events()]
        assert "fence" in kinds

    def test_emit_never_raises(self, db):
        from repro.obs import events

        events.emit(object(), "weird", payload=object())  # unserializable
        events.emit(None, "detached")


# ---------------------------------------------------------------------------
# prometheus exposition escaping
# ---------------------------------------------------------------------------


class TestPrometheusEscaping:
    def test_escape_help(self):
        assert escape_help("a\nb") == "a\\nb"
        assert escape_help("back\\slash") == "back\\\\slash"
        assert escape_help('say "hi"') == 'say "hi"'  # quotes stay

    def test_escape_label_value(self):
        assert escape_label_value('he said "hi"\n') == 'he said \\"hi\\"\\n'
        assert escape_label_value("a\\b") == "a\\\\b"

    def test_help_round_trips_through_exposition(self):
        registry = MetricsRegistry()
        registry.counter("odd", help='line one\nline "two" with \\ slash')
        text = registry.prometheus()
        help_lines = [l for l in text.splitlines() if l.startswith("# HELP")]
        assert len(help_lines) == 1  # the newline did not split the line
        encoded = help_lines[0].split(" ", 3)[3]
        decoded = (
            encoded.replace("\\n", "\n").replace("\\\\", "\\")
        )
        assert decoded == 'line one\nline "two" with \\ slash'

    def test_every_line_is_single_line(self):
        registry = MetricsRegistry()
        registry.gauge("g", help="multi\nline\nhelp").set(1.0)
        for line in registry.prometheus().splitlines():
            assert line.startswith("#") or " " in line


# ---------------------------------------------------------------------------
# cluster health and seconds-based lag
# ---------------------------------------------------------------------------


class TestHealth:
    def test_leader_health_shape(self, db):
        health = db.health()
        assert health["role"] == "leader"
        assert health["epoch"] == 1
        assert health["fenced"] is False
        assert set(health["wal"]) == {"records", "bytes", "floor"}
        assert health["transactions"]["commits"] >= 1
        assert isinstance(health["events"], list)

    def test_replica_lag_in_commits_and_seconds(self, db):
        with repro.server.serve(db, port=0) as srv:
            replica = repl.start_replica(
                port=srv.port, poll_interval=0.05
            )
            try:
                before = time.time()
                with db.transaction():
                    db.item.insert(900, {"v": 1, "grp": 0, "name": "x"})
                replica.ensure_read_at(db.manager.now(), timeout=5)
                health = replica.health()
                section = health["replication"]
                assert health["role"] == "replica"
                assert section["lag_commits"] == 0
                assert 0 <= section["lag_seconds"] < time.time() - before + 1

                # the follower self-reports seconds lag; after an ack
                # round-trip the leader re-exports it
                deadline = time.time() + 5
                while time.time() < deadline:
                    rows = db.health()["replication"]["followers"]
                    if rows and "lag_seconds" in rows[0]:
                        break
                    time.sleep(0.05)
                assert rows[0]["lag_seconds"] >= 0

                text = metrics_for(db.engine).prometheus()
                assert "repro_replication_lag_seconds" in text
            finally:
                replica.close()

    def test_health_verb_over_the_wire(self, db):
        with repro.server.serve(db, port=0) as srv:
            client = repro.client.RemoteDatabase("127.0.0.1", srv.port)
            try:
                health = client.health()
                assert health["role"] == "leader"
                server = health["server"]
                assert server["port"] == srv.port
                assert server["active_sessions"] >= 1
                assert server["admission_queue_depth"] >= 0
            finally:
                client.close()

    def test_workload_verb_over_the_wire(self, db):
        flt = fql.filter("v > 10", input=db.item)
        _run(flt)
        fp = fingerprint_of(flt)
        with repro.server.serve(db, port=0) as srv:
            client = repro.client.RemoteDatabase("127.0.0.1", srv.port)
            try:
                got = client.workload()
                assert fp in got["classes"]
                assert got["classes"][fp]["calls"] >= 1
                diff = client.workload(fingerprint=fp)["diff"]
                assert diff["current"]["hash"]
            finally:
                client.close()


# ---------------------------------------------------------------------------
# repro_top
# ---------------------------------------------------------------------------


class TestReproTop:
    def test_once_renders_against_live_cluster(self, db):
        _run(fql.filter("v > 10", input=db.item))
        with repro.server.serve(db, port=0) as srv:
            replica = repl.start_replica(port=srv.port, poll_interval=0.05)
            try:
                replica.ensure_read_at(db.manager.now(), timeout=5)
                with repro.server.serve(replica, port=0) as rsrv:
                    proc = subprocess.run(
                        [
                            sys.executable,
                            str(REPO / "tools" / "repro_top.py"),
                            "--leader", f"127.0.0.1:{srv.port}",
                            "--replica", f"127.0.0.1:{rsrv.port}",
                            "--once",
                        ],
                        capture_output=True,
                        text=True,
                        timeout=60,
                    )
                    assert proc.returncode == 0, proc.stderr
                    assert "MEMBERS" in proc.stdout
                    assert "leader" in proc.stdout
                    assert "replica" in proc.stdout
                    assert "WORKLOAD" in proc.stdout
            finally:
                replica.close()

    def test_once_reports_dead_member(self):
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO / "tools" / "repro_top.py"),
                "--leader", "127.0.0.1:1",  # nothing listens there
                "--once",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "DOWN" in proc.stdout


# ---------------------------------------------------------------------------
# inertness
# ---------------------------------------------------------------------------


class TestInertness:
    def test_armed_profiler_does_not_change_results(self, db):
        flt = fql.filter("v > 100", input=db.item)
        plain = _run(flt)
        assert _run(flt) == plain

    def test_profiler_composes_with_tracing(self, db):
        from repro.obs import trace as T

        flt = fql.filter("v > 100", input=db.item)
        with T.start_trace("q"):
            rows = _run(flt)
        assert len(rows) == 166
        fp = fingerprint_of(flt)
        assert db.workload_profile()[fp]["calls"] >= 1
        T.clear_traces()
