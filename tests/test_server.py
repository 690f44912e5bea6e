"""The client/server subsystem (DESIGN.md §11): wire protocol, session
transactions spanning round trips, concurrent multi-client snapshot
isolation (with a differential leg against in-process execution), live
view subscriptions fed by IVM deltas, and admission backpressure."""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest

import repro
import repro.client
import repro.server
from repro._util import MISSING
from repro.errors import (
    OperatorError,
    ProtocolError,
    ServerBusyError,
    SQLExecutionError,
    TransactionConflictError,
    TransactionStateError,
    UnknownRelationError,
)
from repro.server import protocol


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def db():
    db = repro.connect(name="serverDB", default=False)
    db["customers"] = {
        1: {"name": "Alice", "age": 47, "state": "NY"},
        2: {"name": "Bob", "age": 25, "state": "CA"},
        3: {"name": "Carol", "age": 62, "state": "NY"},
    }
    return db


@pytest.fixture
def server(db):
    with repro.server.serve(db, port=0) as srv:
        yield srv


def client_for(srv, **kwargs):
    return repro.client.connect(port=srv.port, **kwargs)


# ---------------------------------------------------------------------------
# protocol units (no server)
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            payload = {"verb": "fql", "expr": "db('x')", "id": 7}
            protocol.send_frame(a, payload)
            assert protocol.recv_frame(b) == payload
        finally:
            a.close()
            b.close()

    def test_eof_between_frames_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert protocol.recv_frame(b) is None
        finally:
            b.close()

    def test_oversized_length_prefix_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((protocol.MAX_FRAME + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_value_envelopes_roundtrip(self):
        row = {"name": "Alice", "tags": [1, 2], "ok": True, "score": 1.5}
        assert protocol.decode_value(protocol.encode_value(row)) == row
        assert protocol.decode_key(protocol.encode_key((1, "a"))) == (1, "a")
        assert (
            protocol.decode_value(protocol.encode_value(MISSING)) is MISSING
        )

    def test_relation_envelope_truncation(self, db):
        encoded = protocol.encode_value(db.customers, max_rows=2)
        assert encoded["truncated"] is True
        decoded = protocol.decode_value(encoded)
        assert len(decoded) == 2 and decoded.truncated

    def test_non_json_keys_decode_to_hashable_standins(self):
        import datetime

        key = (datetime.date(2026, 7, 29), 3)
        decoded = protocol.decode_key(protocol.encode_key(key))
        assert decoded == ("datetime.date(2026, 7, 29)", 3)
        hash(decoded)  # must be usable as a mapping key client-side

    def test_remote_error_maps_to_local_class(self):
        with pytest.raises(TransactionConflictError):
            protocol.raise_remote(
                {"type": "TransactionConflictError", "message": "boom"}
            )
        with pytest.raises(repro.errors.RemoteError):
            protocol.raise_remote({"type": "ValueError", "message": "nope"})


# ---------------------------------------------------------------------------
# basic verbs
# ---------------------------------------------------------------------------


class TestBasicVerbs:
    def test_hello_ping_and_relations(self, server):
        with client_for(server) as c:
            assert c.server_info["server"] == "serverDB"
            assert "customers" in c.server_info["relations"]
            assert c.ping()

    def test_fql_with_params_matches_in_process(self, db, server):
        with client_for(server) as c:
            remote = c.fql(
                "filter(db('customers'), 'age > $min', params)",
                params={"min": 40},
            )
        local = repro.fql.filter(db.customers, "age > $min", {"min": 40})
        assert remote == {
            key: dict(local(key).items()) for key in local.keys()
        }

    def test_fql_scalar_and_nested_results(self, server):
        with client_for(server) as c:
            assert c.fql("len(db('customers'))") == 3
            grouped = c.fql(
                "group_and_aggregate(by='state', n=Count(), "
                "input=db('customers'))"
            )
            assert grouped["NY"]["n"] == 2

    def test_sql_select_over_snapshot_mirror(self, server):
        with client_for(server) as c:
            result = c.sql(
                "SELECT name FROM customers WHERE age > 40 ORDER BY name"
            )
            assert result["columns"] == ["name"]
            assert result["rows"] == [["Alice"], ["Carol"]]

    def test_sql_writes_are_refused(self, server):
        with client_for(server) as c:
            with pytest.raises(SQLExecutionError):
                c.sql("DELETE FROM customers")

    def test_dml_autocommit_visible_across_clients(self, db, server):
        with client_for(server) as c1, client_for(server) as c2:
            c1.insert("customers", 4, {"name": "Dan", "age": 33})
            assert c2.fql("db('customers')")[4]["name"] == "Dan"
            c1.set_attr("customers", 4, "age", 34)
            assert db.customers(4)("age") == 34
            c1.delete("customers", 4)
            assert 4 not in c2.fql("db('customers')")
            key = c1.add("customers", {"name": "Eve", "age": 21})
            assert db.customers(key)("name") == "Eve"

    def test_unknown_verb_and_unknown_table_errors(self, server):
        with client_for(server) as c:
            with pytest.raises(ProtocolError):
                c._call({"verb": "frobnicate"})
            with pytest.raises(UnknownRelationError):
                c.insert("nope", 1, {"a": 1})

    def test_explain_reuses_last_statement(self, server):
        with client_for(server) as c:
            c.fql("filter(db('customers'), 'age > 30')")
            text = c.explain()  # no expr: the session's previous query
            assert "physical pipeline" in text
            with client_for(server) as fresh:
                with pytest.raises(OperatorError):
                    fresh.explain()

    def test_fql_hardening(self, server):
        with client_for(server) as c:
            with pytest.raises(OperatorError):
                c.fql("db.__class__")
            with pytest.raises(OperatorError):
                c.fql("__import__('os')")
            with pytest.raises(OperatorError):
                c.fql("x = 1")  # statements don't parse in eval mode
            with pytest.raises(repro.errors.RemoteError):
                c.fql("open('/etc/passwd')")  # not in the namespace

    @pytest.mark.parametrize("bad", ["5", -1, 2.5, True])
    def test_max_rows_must_be_a_non_negative_int(self, db, bad):
        """A bad page cap is refused before any work: no query runs and
        no subscription registers."""
        from repro.server.session import Session

        session = Session(db, 1)
        queries = db.stats()["resources"]["queries"]
        for verb in ("fql", "subscribe"):
            reply = session.handle(
                {"verb": verb, "expr": "db('customers')", "max_rows": bad}
            )
            assert reply["error"]["type"] == "ProtocolError", reply
        assert db.stats()["resources"]["queries"] == queries
        assert session.subscriptions == {}
        page = session.handle(
            {"verb": "fql", "expr": "db('customers')", "max_rows": 2}
        )["result"]
        assert len(page["rows"]) == 2 and page["truncated"]

    def test_fql_cannot_reach_lifecycle_surface(self, db, server):
        """Expressions see a read-only database view: the lifecycle /
        admin API of FunctionalDatabase must not be remotely callable."""
        with client_for(server) as c:
            for expr in (
                "db.close()",
                "db.checkpoint('/tmp/evil')",
                "db.engine",
                "db.manager",
                "db.vacuum()",
                "db.create_index('customers', 'age')",
            ):
                with pytest.raises(repro.errors.ReproError):
                    c.fql(expr)
            assert not db.closed
            assert not os.path.exists("/tmp/evil")
            # the query surface itself still works through the view
            assert c.fql("len(db.customers)") == 3

    def test_stats_verb(self, server):
        with client_for(server) as c:
            c.fql("filter(db('customers'), 'age > 30')")
            stats = c.stats()
            assert stats["tables"]["customers"]["rows"] == 3
            assert stats["server"]["active_sessions"] >= 1
            assert stats["session"]["requests"] >= 2


# ---------------------------------------------------------------------------
# transactions over the wire
# ---------------------------------------------------------------------------


class TestRemoteTransactions:
    def test_transaction_spans_round_trips(self, db, server):
        with client_for(server) as c:
            info = c.begin()
            assert info["txn"] > 0
            c.set_attr("customers", 1, "age", 48)
            # buffered: our snapshot sees it, the committed state not
            assert c.fql("db('customers')")[1]["age"] == 48
            assert db.customers(1)("age") == 47
            c.commit()
            assert db.customers(1)("age") == 48

    def test_sql_sees_overwritten_buffered_writes(self, server):
        """SQL reads through the session's transaction, so it sees the
        transaction overwrite an already-buffered key."""
        with client_for(server) as c:
            c.begin()
            c.set_attr("customers", 2, "age", 30)
            first = c.sql("SELECT age FROM customers WHERE name = 'Bob'")
            assert first["rows"] == [[30]]
            c.set_attr("customers", 2, "age", 40)  # same key again
            second = c.sql("SELECT age FROM customers WHERE name = 'Bob'")
            assert second["rows"] == [[40]]
            c.rollback()

    def test_snapshot_stability_across_round_trips(self, server):
        with client_for(server) as reader, client_for(server) as writer:
            reader.begin()
            before = reader.fql("db('customers')")[2]["age"]
            writer.set_attr("customers", 2, "age", 99)
            assert reader.fql("db('customers')")[2]["age"] == before
            reader.rollback()
            assert reader.fql("db('customers')")[2]["age"] == 99

    def test_rollback_discards_buffered_writes(self, db, server):
        with client_for(server) as c:
            c.begin()
            c.delete("customers", 1)
            c.rollback()
            assert db.customers.defined_at(1)

    def test_conflict_aborts_exactly_one_writer(self, db, server):
        with client_for(server) as a, client_for(server) as b:
            a.begin()
            b.begin()
            a.set_attr("customers", 1, "age", 50)
            b.set_attr("customers", 1, "age", 60)
            a.commit()
            with pytest.raises(TransactionConflictError):
                b.commit()
            assert db.customers(1)("age") == 50
            # the aborted session is clean: a fresh transaction works
            b.begin()
            b.set_attr("customers", 1, "age", 61)
            b.commit()
            assert db.customers(1)("age") == 61

    def test_transaction_state_errors(self, server):
        with client_for(server) as c:
            with pytest.raises(TransactionStateError):
                c.commit()
            c.begin()
            with pytest.raises(TransactionStateError):
                c.begin()
            c.rollback()

    def test_disconnect_rolls_back_open_transaction(self, db, server):
        c = client_for(server)
        c.begin()
        c.set_attr("customers", 1, "age", 99)
        c.close()  # no commit
        deadline = time.monotonic() + 5
        while db.manager._active and time.monotonic() < deadline:
            time.sleep(0.01)
        assert db.customers(1)("age") == 47
        assert not db.manager._active


# ---------------------------------------------------------------------------
# concurrent multi-client snapshot isolation
# ---------------------------------------------------------------------------

N_CLIENTS = 22
N_ACCOUNTS = 8
INITIAL_BALANCE = 1000


@pytest.fixture
def bank_server():
    db = repro.connect(name="bank", default=False)
    db["accounts"] = {
        k: {"balance": INITIAL_BALANCE} for k in range(1, N_ACCOUNTS + 1)
    }
    db["audit"] = {0: {"who": "seed", "n": 0}}
    with repro.server.serve(db, port=0, max_sessions=N_CLIENTS + 4) as srv:
        yield db, srv


def _total(rows):
    return sum(row["balance"] for row in rows.values())


class TestConcurrentIsolation:
    def test_n_clients_mixed_workload_preserves_si(self, bank_server):
        """≥20 concurrent clients interleaving FQL reads, SQL reads,
        DML transfers, and rollbacks: money is conserved, every
        transactional read sees one stable snapshot, and conflicts
        abort exactly one of the two racing writers (the retry
        succeeds against the fresh state)."""
        db, srv = bank_server
        errors: list[str] = []
        conflicts = threading.Event()
        barrier = threading.Barrier(N_CLIENTS)

        def worker(worker_id: int) -> None:
            try:
                with client_for(srv) as c:
                    barrier.wait(timeout=30)
                    for i in range(6):
                        role = (worker_id + i) % 3
                        if role == 0:
                            self._transfer(c, worker_id, i, conflicts)
                        elif role == 1:
                            self._stable_read(c, errors)
                        else:
                            self._audit_and_rollback(c, worker_id, i)
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(f"worker {worker_id}: {exc!r}")

        threads = [
            threading.Thread(target=worker, args=(n,), daemon=True)
            for n in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert not any(t.is_alive() for t in threads)
        # money is conserved end to end
        final = {
            key: dict(db.accounts(key).items()) for key in db.accounts.keys()
        }
        assert _total(final) == N_ACCOUNTS * INITIAL_BALANCE
        # the workload really did contend
        assert db.manager.commits > 0

    @staticmethod
    def _transfer(c, worker_id, i, conflicts):
        src = (worker_id + i) % N_ACCOUNTS + 1
        dst = (worker_id + i + 1) % N_ACCOUNTS + 1
        if src == dst:
            return
        for _attempt in range(8):
            c.begin()
            try:
                rows = c.fql("db('accounts')")
                c.set_attr("accounts", src, "balance",
                           rows[src]["balance"] - 7)
                c.set_attr("accounts", dst, "balance",
                           rows[dst]["balance"] + 7)
                c.commit()
                return
            except TransactionConflictError:
                conflicts.set()  # aborted exactly this writer; retry

    @staticmethod
    def _stable_read(c, errors):
        c.begin()
        rows_a = c.fql("db('accounts')")
        sql_total = sum(
            row[0] for row in c.sql("SELECT balance FROM accounts")["rows"]
        )
        rows_b = c.fql("db('accounts')")
        c.rollback()
        if rows_a != rows_b:
            errors.append("snapshot moved between round trips")
        if _total(rows_a) != N_ACCOUNTS * INITIAL_BALANCE:
            errors.append(f"torn FQL total {_total(rows_a)}")
        if sql_total != N_ACCOUNTS * INITIAL_BALANCE:
            errors.append(f"torn SQL total {sql_total}")

    @staticmethod
    def _audit_and_rollback(c, worker_id, i):
        c.add("audit", {"who": f"w{worker_id}", "n": i})
        c.begin()
        c.set_attr("accounts", worker_id % N_ACCOUNTS + 1, "balance", -1)
        c.rollback()  # must leave no trace

    def test_pairwise_conflict_rate(self, bank_server):
        """Many racing increment transactions on one key: every commit
        either succeeds or aborts with a conflict, and the final value
        counts exactly the successes."""
        db, srv = bank_server
        successes = []
        lock = threading.Lock()

        def bump(_n: int) -> None:
            with client_for(srv) as c:
                for _attempt in range(20):
                    c.begin()
                    value = c.fql("db('accounts')")[1]["balance"]
                    c.set_attr("accounts", 1, "balance", value + 1)
                    try:
                        c.commit()
                    except TransactionConflictError:
                        continue
                    with lock:
                        successes.append(1)
                    return

        threads = [
            threading.Thread(target=bump, args=(n,), daemon=True)
            for n in range(10)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert db.accounts(1)("balance") == INITIAL_BALANCE + len(successes)
        assert len(successes) == 10  # everyone eventually got through


# ---------------------------------------------------------------------------
# differential: the server must answer exactly like in-process execution
# ---------------------------------------------------------------------------

_SCRIPT = [
    ("insert", 10, {"name": "Jo", "age": 19, "state": "WA"}),
    ("set", 1, "age", 48),
    ("txn", [("set", 2, "age", 26), ("delete", 3)], "commit"),
    ("txn", [("set", 1, "age", 99), ("insert", 11, {"name": "X"})],
     "rollback"),
    ("update", 2, {"name": "Bob", "age": 27, "state": "CA"}),
    ("insert", 12, {"name": "Ann", "age": 55, "state": "NY"}),
    ("delete", 10),
]

_QUERIES = [
    ("filter(db('customers'), 'age > $min', params)", {"min": 30}),
    ("group_and_aggregate(by='state', n=Count(), input=db('customers'))",
     {}),
    ("order_by(db('customers'), 'age')", {}),
]


def _seed_rows():
    return {
        1: {"name": "Alice", "age": 47, "state": "NY"},
        2: {"name": "Bob", "age": 25, "state": "CA"},
        3: {"name": "Carol", "age": 62, "state": "NY"},
    }


def _drive_remote(c):
    for op in _SCRIPT:
        if op[0] == "insert":
            c.insert("customers", op[1], op[2])
        elif op[0] == "update":
            c.update("customers", op[1], op[2])
        elif op[0] == "set":
            c.set_attr("customers", op[1], op[2], op[3])
        elif op[0] == "delete":
            c.delete("customers", op[1])
        elif op[0] == "txn":
            c.begin()
            for sub in op[1]:
                if sub[0] == "set":
                    c.set_attr("customers", sub[1], sub[2], sub[3])
                elif sub[0] == "insert":
                    c.insert("customers", sub[1], sub[2])
                elif sub[0] == "delete":
                    c.delete("customers", sub[1])
            getattr(c, op[2])()


def _drive_local(db):
    customers = db.customers
    for op in _SCRIPT:
        if op[0] == "insert":
            customers.insert(op[1], op[2])
        elif op[0] == "update":
            customers[op[1]] = op[2]
        elif op[0] == "set":
            customers(op[1])[op[2]] = op[3]
        elif op[0] == "delete":
            del customers[op[1]]
        elif op[0] == "txn":
            db.begin()
            for sub in op[1]:
                if sub[0] == "set":
                    customers(sub[1])[sub[2]] = sub[3]
                elif sub[0] == "insert":
                    customers.insert(sub[1], sub[2])
                elif sub[0] == "delete":
                    del customers[sub[1]]
            getattr(db, op[2])()


class TestDifferential:
    def test_server_execution_matches_in_process(self):
        remote_db = repro.connect(name="diff-remote", default=False)
        remote_db["customers"] = _seed_rows()
        local_db = repro.connect(name="diff-local", default=False)
        local_db["customers"] = _seed_rows()

        with repro.server.serve(remote_db, port=0) as srv:
            with client_for(srv) as c:
                _drive_remote(c)
                _drive_local(local_db)
                # final states agree
                dump = c.fql("db('customers')")
                expected = {
                    key: dict(local_db.customers(key).items())
                    for key in local_db.customers.keys()
                }
                assert dump == expected
                # every query surface agrees with in-process evaluation
                namespace = repro.server.session.fql_namespace(local_db)
                for expr, params in _QUERIES:
                    remote = c.fql(expr, params=params)
                    scope = dict(namespace)
                    scope["params"] = params
                    local = eval(  # the same closed namespace, locally
                        repro.server.compile_fql(expr),
                        {"__builtins__": {}},
                        scope,
                    )
                    expected = {
                        key: protocol.decode_value(
                            protocol.encode_value(local(key))
                        )
                        for key in local.keys()
                    }
                    assert remote == expected, expr


# ---------------------------------------------------------------------------
# live subscriptions
# ---------------------------------------------------------------------------


class TestSubscribe:
    def test_deltas_are_pushed_incrementally(self, db, server):
        with client_for(server) as watcher, client_for(server) as writer:
            sub = watcher.subscribe(
                "group_and_aggregate(by='state', n=Count(), "
                "input=db('customers'))",
                name="by_state",
            )
            assert sub.incremental
            assert sub.snapshot["NY"]["n"] == 2
            incremental = repro.ivm.ivm_mode() == "on"
            writer.insert(
                "customers", 4, {"name": "Dan", "age": 33, "state": "NY"}
            )
            events = sub.wait(timeout=10)
            assert events
            if incremental:
                assert events[0]["event"] == "delta"
            assert sub.snapshot["NY"]["n"] == 3
            writer.delete("customers", 4)
            sub.wait(timeout=10)
            assert sub.snapshot["NY"]["n"] == 2
            if incremental:
                # the push path never recomputed: pure IVM maintenance
                maintenance = watcher.stats()["session"]["subscriptions"][
                    "by_state"
                ]
                assert maintenance["fallback_recomputes"] == 0
                assert maintenance["diff_refreshes"] == 0
                assert maintenance["deltas_applied"] >= 2

    def test_transactional_commit_pushes_once(self, db, server):
        with client_for(server) as watcher, client_for(server) as writer:
            sub = watcher.subscribe(
                "filter(db('customers'), 'age >= 60')", name="seniors"
            )
            writer.begin()
            writer.insert("customers", 5,
                          {"name": "Ede", "age": 71, "state": "OR"})
            writer.insert("customers", 6,
                          {"name": "Fay", "age": 20, "state": "OR"})
            # buffered writes push nothing
            assert sub.wait(timeout=0.3) == []
            writer.commit()
            events = sub.wait(timeout=10)
            if repro.ivm.ivm_mode() == "on":
                changes = [c for e in events for c in e["changes"]]
                assert {c["key"] for c in changes} == {5}
                assert changes[0]["inserted"]
            assert sub.snapshot[5]["name"] == "Ede"
            assert 6 not in sub.snapshot

    def test_rollback_pushes_nothing(self, server):
        with client_for(server) as watcher, client_for(server) as writer:
            sub = watcher.subscribe(
                "filter(db('customers'), 'age >= 60')", name="seniors"
            )
            writer.begin()
            writer.insert("customers", 7, {"name": "Gus", "age": 80})
            writer.rollback()
            assert sub.wait(timeout=0.3) == []

    def test_unsubscribe_stops_pushes(self, server):
        with client_for(server) as watcher, client_for(server) as writer:
            sub = watcher.subscribe(
                "filter(db('customers'), 'age >= 60')", name="seniors"
            )
            sub.unsubscribe()
            writer.insert("customers", 8, {"name": "Hal", "age": 90})
            assert sub.wait(timeout=0.3) == []

    def test_two_watchers_both_receive(self, server):
        with client_for(server) as w1, client_for(server) as w2, \
                client_for(server) as writer:
            s1 = w1.subscribe(
                "filter(db('customers'), 'age >= 60')", name="a")
            s2 = w2.subscribe(
                "group_and_aggregate(by='state', n=Count(), "
                "input=db('customers'))",
                name="b",
            )
            writer.insert(
                "customers", 9, {"name": "Ida", "age": 66, "state": "NY"}
            )
            assert s1.wait(timeout=10)
            assert s2.wait(timeout=10)
            assert s1.snapshot[9]["age"] == 66
            assert s2.snapshot["NY"]["n"] == 3

    def test_two_subscriptions_one_client_both_routed(self, server):
        """poll() must route every event to its own subscription —
        one subscription's wait() cannot swallow the other's deltas."""
        with client_for(server) as watcher, client_for(server) as writer:
            seniors = watcher.subscribe(
                "filter(db('customers'), 'age >= 60')", name="seniors"
            )
            by_state = watcher.subscribe(
                "group_and_aggregate(by='state', n=Count(), "
                "input=db('customers'))",
                name="by_state",
            )
            writer.insert(
                "customers", 30, {"name": "Oma", "age": 81, "state": "NY"}
            )
            # waiting on ONE subscription still applies the other's event
            assert seniors.wait(timeout=10)
            deadline = time.monotonic() + 10
            while (
                by_state.snapshot["NY"]["n"] != 3
                and time.monotonic() < deadline
            ):
                watcher.poll(timeout=0.2)
            assert seniors.snapshot[30]["age"] == 81
            assert by_state.snapshot["NY"]["n"] == 3

    def test_subscribe_inside_transaction_refused(self, server):
        with client_for(server) as c:
            c.begin()
            with pytest.raises(TransactionStateError):
                c.subscribe("db('customers')")
            c.rollback()


# ---------------------------------------------------------------------------
# admission control / backpressure
# ---------------------------------------------------------------------------


class TestBackpressure:
    @staticmethod
    def _wait_until(predicate, timeout=5.0):
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, "condition never held"
            time.sleep(0.01)

    def test_overload_queues_then_refuses_then_recovers(self, db):
        with repro.server.serve(
            db, port=0, max_sessions=2, admission_queue=1
        ) as srv:
            c1 = client_for(srv)
            c2 = client_for(srv)  # both session slots now busy
            self._wait_until(
                lambda: srv.stats()["active_sessions"] == 2
            )
            # third connection: popped by the dispatcher, parked
            # awaiting a free slot
            held = socket.create_connection(
                ("127.0.0.1", srv.port), timeout=10
            )
            self._wait_until(
                lambda: srv.stats()["accepted"] >= 3
                and srv.stats()["queued"] == 0
            )
            # fourth: fills the admission queue
            queued = socket.create_connection(
                ("127.0.0.1", srv.port), timeout=10
            )
            self._wait_until(lambda: srv.stats()["queued"] == 1)
            # fifth: overflows even the queue — typed, retryable refusal
            with pytest.raises(ServerBusyError):
                client_for(srv, connect_timeout=10)
            assert srv.stats()["rejected_busy"] >= 1
            # freeing a slot drains the pipeline: the parked connection
            # is served — overload degraded to queueing, not to failure
            c1.close()
            held.settimeout(10)
            protocol.send_frame(held, {"verb": "ping", "id": 1})
            response = protocol.recv_frame(held)
            assert response["ok"] and response["result"]["pong"]
            held.close()
            queued.close()
            c2.close()

    def test_server_stats_shape(self, server):
        with client_for(server) as c:
            stats = c.stats()["server"]
            assert stats["max_sessions"] >= 1
            assert stats["accepted"] >= 1
            assert stats["requests"] >= 1


# ---------------------------------------------------------------------------
# partitioned tables stay correct through concurrent server sessions
# ---------------------------------------------------------------------------


class TestPartitionedThroughServer:
    def test_partitioned_table_queries_and_subscriptions(self):
        db = repro.connect(name="part-server", default=False)
        db.create_table(
            "events",
            {
                k: {"kind": ("click", "view")[k % 2], "n": k}
                for k in range(1, 41)
            },
            key_name="eid",
            partition_by=repro.hash_partition("kind", n=4),
        )
        with repro.server.serve(db, port=0) as srv:
            with client_for(srv) as a, client_for(srv) as b:
                expected = {
                    key: dict(db.events(key).items())
                    for key in db.events.keys()
                    if key % 2 == 0
                }

                results: list = [None, None]

                def scan(idx, c):
                    results[idx] = c.fql(
                        "filter(db('events'), \"kind == 'click'\")"
                    )

                t1 = threading.Thread(target=scan, args=(0, a))
                t2 = threading.Thread(target=scan, args=(1, b))
                t1.start()
                t2.start()
                t1.join(timeout=60)
                t2.join(timeout=60)
                assert results[0] == expected
                assert results[1] == expected
                sub = a.subscribe(
                    "group_and_aggregate(by='kind', total=Sum('n'), "
                    "input=db('events'))",
                    name="by_kind",
                )
                before = sub.snapshot["click"]["total"]
                b.set_attr("events", 2, "n", 1002)
                sub.wait(timeout=10)
                assert sub.snapshot["click"]["total"] == before + 1000
