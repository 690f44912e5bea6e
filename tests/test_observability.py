"""End-to-end observability (docs/observability.md): structured
tracing across client, server, executor, and replicas; the unified
metrics registry with Prometheus text exposition (METRICS verb);
slow-query capture; and per-database executor counters. Also pins the
stats schemas the dashboards rely on, and that armed tracing stays
behavior-neutral for untraced in-process work."""

from __future__ import annotations

import json
import time

import pytest

import repro as fql
import repro.client
import repro.replication as repl
import repro.server
from repro.exec.batch import counters_for, reset_counters
from repro.obs import trace as T
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_for,
)
from repro.obs.slowlog import SlowQueryLog, any_active, slowlog_for


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _clean_traces():
    T.clear_traces()
    yield
    T.clear_traces()


@pytest.fixture
def db():
    db = fql.connect(name="obsDB", default=False)
    db["item"] = {
        i: {"v": i * 3, "grp": i % 5, "name": f"i{i}"} for i in range(200)
    }
    yield db
    db.set_slow_query_threshold(None)
    db.close()


@pytest.fixture
def server(db):
    with repro.server.serve(db, port=0) as srv:
        yield srv


@pytest.fixture
def replica(db, server):
    follower = repl.start_replica(
        port=server.port, name="obs-follower", poll_interval=0.05
    )
    follower.ensure_read_at(min_ts=db.manager.now(), timeout=8.0)
    yield follower
    follower.close()


def _events(trace_id=None):
    return T.export_chrome(trace_id)["traceEvents"]


def _names(events):
    return [e["name"] for e in events]


# ---------------------------------------------------------------------------
# trace core
# ---------------------------------------------------------------------------


class TestTraceCore:
    def test_span_tree_nesting_and_export(self):
        with T.start_trace("root", who="test") as root:
            with T.span("child") as child:
                with T.span("grandchild"):
                    pass
            assert child.trace_id == root.trace_id
        events = _events()
        assert _names(events) == ["grandchild", "child", "root"] or set(
            _names(events)
        ) == {"root", "child", "grandchild"}
        by_name = {e["name"]: e for e in events}
        assert by_name["child"]["args"]["parent_id"] == root.span_id
        assert (
            by_name["grandchild"]["args"]["parent_id"]
            == by_name["child"]["args"]["span_id"]
        )
        # one trace, valid JSON, relative microsecond timestamps
        assert {e["args"]["trace_id"] for e in events} == {root.trace_id}
        json.dumps(T.export_chrome())
        assert min(e["ts"] for e in events) == 0.0
        assert all(e["ph"] == "X" for e in events)

    def test_span_without_trace_is_noop(self):
        sp = T.span("orphan")
        assert sp is T.NOOP_SPAN
        sp.annotate(ignored=1)
        sp.finish()
        assert T.latest_trace_id() is None

    def test_mode_controls_maybe_trace(self):
        with T.using_trace_mode("off"):
            assert T.maybe_trace("q") is T.NOOP_SPAN
        with T.using_trace_mode("on"):
            sp = T.maybe_trace("q")
            assert sp is not T.NOOP_SPAN
            sp.finish()
        with T.using_trace_mode("0.0"):
            assert T.maybe_trace("q") is T.NOOP_SPAN
        with pytest.raises(ValueError):
            T.set_trace_mode("sometimes")

    def test_resume_round_trips_wire_context(self):
        with T.start_trace("origin") as root:
            ctx = T.current_context()
        assert ctx == {
            "id": root.trace_id,
            "parent": root.span_id,
            "sampled": True,
        }
        with T.resume(ctx, "remote") as sp:
            assert sp.trace_id == root.trace_id
            assert sp.parent_id == root.span_id
        # garbage contexts degrade to the no-op span, never raise
        assert T.resume(None, "x") is T.NOOP_SPAN
        assert T.resume({"sampled": False, "id": "t1"}, "x") is T.NOOP_SPAN
        assert T.resume({"sampled": True}, "x") is T.NOOP_SPAN

    def test_render_tree_shows_hierarchy(self):
        with T.start_trace("query"):
            with T.span("plan", plan_cache="hit"):
                pass
        text = T.render_tree()
        assert "query" in text and "plan" in text
        assert "plan_cache='hit'" in text
        assert text.index("query") < text.index("plan")


# ---------------------------------------------------------------------------
# traced execution (in-process)
# ---------------------------------------------------------------------------


class TestTracedExecution:
    def test_traced_query_records_plan_and_node_spans(self, db):
        flt = fql.filter("v > 100", input=db.item)
        with T.start_trace("q1"):
            rows = dict(flt.items())
        assert len(rows) == 166
        names = _names(_events())
        assert "plan" in names
        assert "execute" in names
        assert any("scan" in n for n in names)
        by_name = {e["name"]: e for e in _events()}
        assert by_name["execute"]["args"]["rows"] == 166

    def test_plan_cache_outcome_annotated(self, db):
        flt = fql.filter("grp == 1", input=db.item)
        with T.start_trace("cold"):
            dict(flt.items())
        cold = {e["name"]: e for e in _events()}["plan"]["args"]
        with T.start_trace("warm"):
            dict(flt.items())
        warm = {e["name"]: e for e in _events()}["plan"]["args"]
        assert cold["plan_cache"] == "miss"
        assert warm["plan_cache"] == "hit"

    def test_traced_results_match_untraced(self, db):
        flt = fql.filter("v > 250", input=db.item)
        plain = dict(flt.items())
        with T.start_trace("diff"):
            traced = dict(flt.items())
        assert traced == plain

    def test_armed_tracing_is_inert_without_a_root(self, db):
        """REPRO_TRACE=on must not change in-process behavior: only the
        client (or an explicit start_trace) begins a trace."""
        with T.using_trace_mode("on"):
            flt = fql.filter("v > 100", input=db.item)
            assert len(dict(flt.items())) == 166
        assert T.latest_trace_id() is None


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram_snapshots(self):
        reg = MetricsRegistry()
        c = reg.counter("reqs", "requests")
        c.inc()
        c.inc(4)
        g = reg.gauge("depth", "queue depth")
        g.set(7)
        fn_g = reg.gauge("computed", fn=lambda: 2.5)
        h = reg.histogram("lat", "latency")
        for ms in (1, 2, 3, 4, 100):
            h.observe(ms / 1000.0)
        snap = reg.snapshot()
        assert snap["reqs"] == 5
        assert snap["depth"] == 7.0
        assert snap["computed"] == 2.5
        assert snap["lat"]["count"] == 5
        assert snap["lat"]["sum"] == pytest.approx(0.110)
        assert 0.001 < snap["lat"]["p50"] <= 0.005
        assert snap["lat"]["p99"] > 0.05

    def test_gauge_callback_failure_reads_zero(self):
        reg = MetricsRegistry()
        reg.gauge("broken", fn=lambda: 1 / 0)
        assert reg.snapshot()["broken"] == 0.0

    def test_registration_idempotent_and_kind_checked(self):
        reg = MetricsRegistry()
        a = reg.counter("x")
        assert reg.counter("x") is a
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_prometheus_exposition_format(self):
        reg = MetricsRegistry(namespace="repro")
        reg.counter("ops_total", "operations").inc(3)
        reg.gauge("lag", "follower lag").set(1.5)
        h = reg.histogram("lat_seconds", "latency", buckets=(0.01, 0.1))
        h.observe(0.005)
        h.observe(0.05)
        h.observe(5.0)
        text = reg.prometheus()
        lines = text.splitlines()
        assert "# HELP repro_ops_total operations" in lines
        assert "# TYPE repro_ops_total counter" in lines
        assert "repro_ops_total 3" in lines
        assert "# TYPE repro_lag gauge" in lines
        assert "repro_lag 1.5" in lines
        assert "# TYPE repro_lat_seconds histogram" in lines
        # buckets are cumulative and end with +Inf == count
        assert 'repro_lat_seconds_bucket{le="0.01"} 1' in lines
        assert 'repro_lat_seconds_bucket{le="0.1"} 2' in lines
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in lines
        assert "repro_lat_seconds_count 3" in lines
        assert text.endswith("\n")

    def test_engine_registry_wires_standard_gauges(self, db):
        reg = metrics_for(db.engine)
        assert metrics_for(db.engine) is reg  # lazily attached once
        assert db.metrics() is reg
        snap = reg.snapshot()
        for name in (
            "plan_cache_hit_rate",
            "wal_bytes",
            "replication_lag_commits",
            "executor_columnar_rows",
            "executor_zone_segments_skipped",
        ):
            assert name in snap, name
        # the hit-rate gauge tracks the real plan cache
        flt = fql.filter("v > 10", input=db.item)
        dict(flt.items())
        dict(flt.items())
        assert reg.snapshot()["plan_cache_hit_rate"] > 0.0


# ---------------------------------------------------------------------------
# per-database executor counters
# ---------------------------------------------------------------------------


class TestPerDatabaseCounters:
    def test_two_databases_do_not_share_counters(self):
        reset_counters()
        a = fql.connect(name="obsA", default=False)
        b = fql.connect(name="obsB", default=False)
        a["t"] = {i: {"v": i} for i in range(300)}
        b["t"] = {i: {"v": i} for i in range(40)}
        dict(fql.filter("v >= 0", input=a.t).items())
        dict(fql.filter("v >= 0", input=b.t).items())
        ca = counters_for(a.engine).snapshot()
        cb = counters_for(b.engine).snapshot()
        rows_a = ca["columnar_rows"] + ca["row_rows"]
        rows_b = cb["columnar_rows"] + cb["row_rows"]
        assert rows_a == 300
        assert rows_b == 40
        a.close()
        b.close()

    def test_stats_executor_section_is_per_database(self):
        reset_counters()
        a = fql.connect(name="obsC", default=False)
        b = fql.connect(name="obsD", default=False)
        a["t"] = {i: {"v": i} for i in range(100)}
        b["t"] = {i: {"v": i} for i in range(100)}
        dict(fql.filter("v >= 0", input=a.t).items())
        ex_a = a.stats()["executor"]
        ex_b = b.stats()["executor"]
        assert set(ex_a) == {
            "kernel_backend",
            "columnar_batches",
            "columnar_rows",
            "row_batches",
            "row_rows",
            "zone_segments_skipped",
            "zone_segments_scanned",
        }
        assert ex_a["columnar_rows"] + ex_a["row_rows"] == 100
        assert ex_b["columnar_rows"] + ex_b["row_rows"] == 0
        a.close()
        b.close()


# ---------------------------------------------------------------------------
# slow-query capture
# ---------------------------------------------------------------------------


class TestSlowQueryCapture:
    def test_threshold_captures_analyze_style_entry(self, db):
        db.set_slow_query_threshold(0.0)  # capture everything
        assert any_active()
        flt = fql.filter("v > 100", input=db.item)
        dict(flt.items())
        entries = db.slow_queries()
        assert entries, "no slow query captured at threshold 0"
        entry = entries[-1]
        assert entry.rows == 166
        assert entry.wall_ms >= 0.0
        assert entry.tree, "per-node tree missing"
        assert any("filter" in row["node"] for row in entry.tree)
        text = entry.render()
        assert "slow query:" in text
        assert "batches=" in text and "wall=" in text
        d = entry.to_dict()
        assert d["rows"] == 166 and isinstance(d["tree"], list)
        json.dumps(d)

    def test_disabled_threshold_captures_nothing(self, db):
        db.set_slow_query_threshold(None)
        dict(fql.filter("v > 100", input=db.item).items())
        assert db.slow_queries() == []

    def test_high_threshold_filters_fast_queries(self, db):
        db.set_slow_query_threshold(60_000.0)
        dict(fql.filter("v > 100", input=db.item).items())
        assert db.slow_queries() == []

    def test_ring_is_bounded(self):
        log = SlowQueryLog(capacity=3)
        for i in range(5):
            log.record(
                # a minimal entry: only the ring semantics matter here
                type(
                    "E", (), {"query": str(i)}
                )()
            )
        assert len(log) == 3
        assert [e.query for e in log.entries()] == ["2", "3", "4"]

    def test_traced_slow_query_links_trace_id(self, db):
        db.set_slow_query_threshold(0.0)
        with T.start_trace("slow"):
            dict(fql.filter("v > 100", input=db.item).items())
        entry = db.slow_queries()[-1]
        assert entry.trace_id == T.latest_trace_id()

    def test_capture_keeps_an_offloaded_query_offloaded(
        self, db, monkeypatch
    ):
        """Observing a query must not change its physical mode: an
        offloaded plan still runs as SQL (the counter moves) and the
        entry names the plan that ran, not a batched re-plan of it."""
        from repro.compile import using_offload_mode

        for budget in ("MAX_ROWS_SCANNED", "MAX_RESULT_ROWS", "QUERY_DEADLINE_MS"):
            # a budget-armed query deliberately declines to offload
            monkeypatch.delenv(f"REPRO_{budget}", raising=False)

        def offloaded():
            return db.stats()["offload"]["queries_offloaded"]

        with using_offload_mode("force"):
            flt = fql.filter("v >= 300", input=db.item)
            expected = dict(flt.items())
            assert offloaded() == 1
            db.set_slow_query_threshold(0.0)
            assert dict(flt.items()) == expected
            assert offloaded() == 2
            with T.start_trace("offloaded"):
                assert dict(flt.items()) == expected
            assert offloaded() == 3
        entries = db.slow_queries()
        assert [e.query for e in entries] == ["offload[sqlite](item)"] * 2
        assert entries[-1].rows == len(expected) == 100
        assert entries[-1].trace_id == T.latest_trace_id()


    def test_a_join_is_one_query_not_its_atoms(self, db):
        """The build and probe sides of a join are inner work of the
        join: one entry, one workload class, both naming the join."""
        from repro.fdm.databases import database
        from repro.obs.workload import using_profile_mode

        db.create_table(
            "tag", {g: {"label": f"g{g}"} for g in range(5)}, key_name="gid"
        )
        joined = fql.join(
            database(
                {
                    "item": fql.filter("v > 100", input=db.item),
                    "tag": fql.filter("label != 'g0'", input=db.tag),
                }
            ),
            on=[["item.grp", "tag.gid"]],
        )
        with using_profile_mode("off"):
            expected = len(dict(joined.items()))  # plans all three
        assert expected > 0
        db.set_slow_query_threshold(0.0)
        with using_profile_mode("on"):
            assert len(dict(joined.items())) == expected
        (entry,) = db.slow_queries()
        assert "join" in entry.query and entry.rows == expected
        (cls,) = db.workload_profile().values()
        assert (cls["calls"], cls["rows"]) == (1, expected)


# ---------------------------------------------------------------------------
# one query, one context (DESIGN.md "One query, one context")
# ---------------------------------------------------------------------------


class TestOneQueryOneContext:
    @pytest.fixture
    def all_armed(self, db, monkeypatch):
        """Every observer watching every enumeration at once."""
        from repro.obs.resources import reset_resources
        from repro.obs.workload import using_profile_mode

        with using_profile_mode("off"):
            flt = fql.filter("v > 100", input=db.item)
            self.unobserved = dict(flt.items())
        monkeypatch.setenv("REPRO_MAX_ROWS_SCANNED", "1000000000")
        monkeypatch.setenv("REPRO_MAX_RESULT_ROWS", "1000000000")
        monkeypatch.setenv("REPRO_QUERY_DEADLINE_MS", "600000")
        reset_resources()
        db.set_slow_query_threshold(0.0)
        with using_profile_mode("on"), T.start_trace("armed"):
            yield db

    def test_all_observers_agree(self, all_armed):
        db = all_armed
        rows = dict(fql.filter("v > 100", input=db.item).items())
        assert rows == self.unobserved and len(rows) == 166
        snap = db.stats()["resources"]
        assert snap["queries"] == 1 and snap["killed"] == 0
        assert snap["totals"]["result_rows"] == 166
        (cls,) = db.workload_profile().values()
        assert (cls["calls"], cls["rows"]) == (1, 166)
        (entry,) = db.slow_queries()
        assert entry.rows == 166
        executes = [e for e in _events() if e["name"] == "execute"]
        assert [e["args"]["rows"] for e in executes] == [166]

    def test_interleaved_queries_report_independently(self, all_armed):
        """A second query started between two pulls of the first is its
        own query, not inner work of the first."""
        db = all_armed
        first = fql.filter("v > 100", input=db.item).items()
        next(first)
        second = dict(fql.filter("grp == 1", input=db.item).items())
        rest = sum(1 for _ in first)
        assert (1 + rest, len(second)) == (166, 40)
        assert db.stats()["resources"]["queries"] == 2
        assert sorted(e.rows for e in db.slow_queries()) == [40, 166]
        assert sorted(
            e["args"]["rows"] for e in _events() if e["name"] == "execute"
        ) == [40, 166]
        assert sorted(
            (c["calls"], c["rows"]) for c in db.workload_profile().values()
        ) == [(1, 40), (1, 166)]


# ---------------------------------------------------------------------------
# stats schemas (dashboard contract)
# ---------------------------------------------------------------------------


class TestStatsSchemas:
    def test_database_stats_schema(self, db):
        # plan the first pipeline so the plan-cache section materializes
        dict(fql.filter("v > 10", input=db.item).items())
        stats = db.stats()
        assert set(stats) == {
            "name",
            "closed",
            "plan_cache",
            "executor",
            "views",
            "tables",
            "wal",
            "changelog",
            "transactions",
            "versions",
            "replication",
            "resources",
            "offload",
        }
        assert set(stats["plan_cache"]) == {
            "size",
            "hits",
            "misses",
            "evictions",
        }
        assert set(stats["transactions"]) == {
            "commits",
            "aborts",
            "active",
            "clock",
        }

    def test_server_stats_schema(self, server):
        with repro.client.connect(port=server.port) as cli:
            stats = cli.stats()
        assert set(stats["server"]) == {
            "host",
            "port",
            "max_sessions",
            "active_sessions",
            "queued",
            "accepted",
            "rejected_busy",
            "requests",
            "replication",
        }
        assert "session" in stats and "executor" in stats

    def test_metrics_verb_serves_prometheus_page(self, server):
        with repro.client.connect(port=server.port) as cli:
            cli.fql("filter('v > 10', input=db.item)")
            text = cli.metrics()
        for series in (
            "repro_plan_cache_hit_rate",
            "repro_wal_bytes",
            "repro_replication_lag_commits",
            "repro_executor_columnar_rows",
            "repro_server_request_latency_seconds_bucket",
            "repro_server_active_sessions",
            "repro_server_requests_total",
        ):
            assert series in text, series
        # parseable: every non-comment line is "<series> <number>"
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            series, value = line.rsplit(" ", 1)
            float(value)


# ---------------------------------------------------------------------------
# end-to-end: one trace across client, server, executor, and replica
# ---------------------------------------------------------------------------


class TestEndToEndTrace:
    def test_remote_query_and_dml_form_one_connected_tree(
        self, db, server, replica
    ):
        with repro.client.connect(port=server.port) as cli:
            with T.start_trace("e2e") as root:
                result = cli.fql("filter('v > 100', input=db.item)")
                cli.insert("item", 999, {"v": 5, "grp": 0, "name": "x"})
            replica.ensure_read_at(min_ts=db.manager.now(), timeout=8.0)
        assert len(result) == 166
        time.sleep(0.2)  # spans recorded on server/replica threads settle

        events = _events(root.trace_id)
        names = _names(events)
        for required in (
            "client.fql",
            "session.fql",
            "plan",
            "execute",
            "client.dml",
            "session.dml",
            "commit.hooks",
            "replication.ship",
            "replica.apply",
        ):
            assert required in names, f"missing span {required}"
        assert any("scan" in n for n in names), "no per-node span"
        # single trace id throughout, and every non-root span's parent
        # exists in the same trace: one *connected* tree
        assert {e["args"]["trace_id"] for e in events} == {root.trace_id}
        ids = {e["args"]["span_id"] for e in events}
        orphans = [
            e["name"]
            for e in events
            if e["args"]["parent_id"] is not None
            and e["args"]["parent_id"] not in ids
        ]
        assert orphans == [], f"disconnected spans: {orphans}"
        json.dumps(T.export_chrome(root.trace_id))

    def test_untraced_requests_carry_no_trace_field(self, db, server):
        captured = []
        original = repro.client.protocol.send_frame

        def recording(sock, payload):
            captured.append(payload)
            return original(sock, payload)

        repro.client.protocol.send_frame = recording
        try:
            # pin sampling off: under REPRO_TRACE=on every client call
            # legitimately roots a trace, which is not what this test
            # is about — it asserts the *unsampled* wire shape
            with T.using_trace_mode("off"):
                with repro.client.connect(port=server.port) as cli:
                    cli.fql("filter('v > 100', input=db.item)")
        finally:
            repro.client.protocol.send_frame = original
        assert captured and all("trace" not in p for p in captured)

    def test_trace_export_api_on_database(self, db):
        with T.start_trace("api"):
            dict(fql.filter("v > 100", input=db.item).items())
        chrome = db.trace_export()
        assert chrome["traceEvents"]
        json.dumps(chrome)
