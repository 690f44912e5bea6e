"""Database lifecycle: close()/context-manager, WAL handle release,
reopen-after-close via WAL replay, and the db.stats() introspection
dict (DESIGN.md §11 satellites)."""

from __future__ import annotations

import os

import pytest

import repro
from repro.errors import PersistenceError, WALError
from repro.storage.image import table_schema


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "lifecycle.wal")


class TestCloseAndContextManager:
    def test_close_releases_the_wal_handle(self, wal_path):
        db = repro.connect(name="lc", wal_path=wal_path, default=False)
        db["t"] = {1: {"v": 10}}
        assert db._engine.wal._file is not None
        db.close()
        assert db.closed
        assert db._engine.wal._file is None
        assert db._engine.wal.closed
        db.close()  # idempotent

    def test_context_manager_closes(self, wal_path):
        with repro.connect(name="lc", wal_path=wal_path,
                           default=False) as db:
            db["t"] = {1: {"v": 10}}
            assert not db.closed
        assert db.closed

    def test_commit_after_close_is_refused(self, wal_path):
        db = repro.connect(name="lc", wal_path=wal_path, default=False)
        db["t"] = {1: {"v": 10}}
        db.close()
        with pytest.raises(WALError):
            db.t[1] = {"v": 11}  # the WAL would silently lose this

    def test_memory_only_close_is_harmless(self):
        db = repro.connect(name="mem", default=False)
        db["t"] = {1: {"v": 10}}
        db.close()
        assert db.closed
        # no durable log to protect: in-memory commits still work
        db.t[1] = {"v": 11}
        assert db.t(1)("v") == 11


class TestReopenAfterClose:
    def test_rows_survive_close_and_reopen(self, wal_path):
        with repro.connect(name="lc", wal_path=wal_path,
                           default=False) as db:
            db["t"] = {1: {"v": 10}, 2: {"v": 20}}
            db.t[1]["v"] = 11
            del db.t[2]
        db2 = repro.connect(name="lc", wal_path=wal_path, default=False)
        assert sorted(db2.t.keys()) == [1]
        assert db2.t(1)("v") == 11
        db2.close()

    def test_reopen_extends_not_truncates(self, wal_path):
        with repro.connect(name="lc", wal_path=wal_path,
                           default=False) as db:
            db["t"] = {1: {"v": 10}}
        size_after_first = os.path.getsize(wal_path)
        with repro.connect(name="lc", wal_path=wal_path,
                           default=False) as db2:
            db2.t[2] = {"v": 20}
        assert os.path.getsize(wal_path) > size_after_first
        with repro.connect(name="lc", wal_path=wal_path,
                           default=False) as db3:
            assert sorted(db3.t.keys()) == [1, 2]

    def test_clock_continues_across_reopen(self, wal_path):
        with repro.connect(name="lc", wal_path=wal_path,
                           default=False) as db:
            db["t"] = {1: {"v": 10}}
            clock_before = db.manager.now()
        db2 = repro.connect(name="lc", wal_path=wal_path, default=False)
        assert db2.manager.now() == clock_before
        db2.t[2] = {"v": 20}
        assert db2.manager.now() > clock_before
        db2.close()

    def test_transactions_and_conflicts_after_reopen(self, wal_path):
        with repro.connect(name="lc", wal_path=wal_path,
                           default=False) as db:
            db["t"] = {1: {"v": 10}}
        db2 = repro.connect(name="lc", wal_path=wal_path, default=False)
        txn_a = db2.manager.begin()
        txn_a.write("t", 1, {"v": 100})
        txn_a.pause()
        txn_b = db2.manager.begin()
        txn_b.write("t", 1, {"v": 200})
        db2.manager.commit(txn_b)
        txn_a.resume()
        with pytest.raises(repro.errors.TransactionConflictError):
            db2.manager.commit(txn_a)
        assert db2.t(1)("v") == 200
        db2.close()


class TestStats:
    def test_stats_shape_and_counters(self, wal_path):
        db = repro.connect(name="st", wal_path=wal_path, default=False)
        db["t"] = {k: {"v": k, "g": k % 2} for k in range(1, 11)}
        view = db.create_maintained_view(
            "evens", repro.fql.filter(db.t, "g == 0")
        )
        len(view)  # force a sync so maintenance stats exist
        expr = repro.fql.filter(db.t, "v > 3")
        list(expr.keys())
        list(expr.keys())  # second run hits the plan cache
        stats = db.stats()
        assert stats["name"] == "st"
        assert stats["tables"]["t"]["rows"] == 10
        assert stats["tables"]["t"]["partitioned"] is False
        assert stats["wal"]["records"] >= 1
        assert stats["wal"]["bytes"] > 0
        assert stats["transactions"]["commits"] >= 1
        assert stats["views"]["evens"]["syncs"] >= 0
        if repro.exec.exec_mode() == "batch":
            assert stats["plan_cache"]["hits"] >= 1
        assert stats["changelog"]["watermark"] >= 0
        db.close()
        assert db.stats()["closed"] is True

    def test_stats_reports_partition_layout(self):
        db = repro.connect(name="stp", default=False)
        db.create_table(
            "e",
            {k: {"g": k % 3} for k in range(12)},
            partition_by=repro.hash_partition("g", n=3),
        )
        layout = db.stats()["tables"]["e"]
        assert layout["partitioned"] is True
        rows = layout["rows"]
        counts = rows.values() if isinstance(rows, dict) else rows
        assert sum(counts) == 12


# ---------------------------------------------------------------------------
# the log is enough: schema changes ride it (DESIGN.md §4)
# ---------------------------------------------------------------------------


def _catalog(db):
    """Everything a reopen must reproduce: per table its catalog entry,
    partition layout and rows."""
    return {
        name: (
            table_schema(db.engine, name),
            db.partition_layout(name),
            dict(db.engine.table(name).scan_at(2**62)),
        )
        for name in db.engine.table_names()
    }


def _build_history(db):
    db.create_table(
        "t",
        {k: {"state": "NY" if k % 2 else "CA", "v": k} for k in range(1, 9)},
        key_name="id",
        partition_by=repro.hash_partition("state", n=4),
    )
    db.create_index("t", "state")
    db.create_index("t", "v", kind="sorted")
    db["gone"] = {1: {"a": 1}}
    db.t[9] = {"state": "TX", "v": 9}
    db["u"] = {(1, "x"): {"w": 1}, (2, "y"): {"w": 2}}
    db.partition_table("u", 2)
    del db["gone"]
    db.drop_index("t", "v")
    del db.t[2]
    db.t[1]["state"] = "WA"  # moves partitions


class TestSchemaRidesTheLog:
    def test_reopen_reproduces_catalog_and_rows(self, wal_path):
        db = repro.connect(name="lc", wal_path=wal_path, default=False)
        _build_history(db)
        before, clock = _catalog(db), db.manager.now()
        db.close()
        db2 = repro.connect(name="lc", wal_path=wal_path, default=False)
        assert _catalog(db2) == before
        assert sorted(db2.keys()) == ["t", "u"]  # the drop stayed dropped
        assert db2.engine.table("t").key_name == "id"
        assert db2.engine.table("t").indexes.attrs() == ["state"]
        assert db2.manager.now() == clock
        db2.t[10] = {"state": "NY", "v": 10}  # and it keeps working
        db2.close()

    def test_checkpoint_restore_reproduces_catalog_and_rows(self, tmp_path):
        db = repro.connect(name="ck", default=False)
        _build_history(db)
        path = str(tmp_path / "ck.json")
        db.checkpoint(path)
        restored = repro.FunctionalDatabase.restore(path, name="ck")
        assert _catalog(restored) == _catalog(db)
        assert restored.manager.now() == db.manager.now()
        assert restored.engine.wal.floor == db.manager.now()

    def test_a_schema_change_takes_a_stamp(self):
        db = repro.connect(name="stamp", default=False)
        db["t"] = {1: {"v": 1}}
        clock = db.manager.now()
        db.create_index("t", "v")
        assert db.manager.now() == clock + 1
        record = list(db.engine.wal.records())[-1]
        assert record.writes == {} and list(record.schemas) == ["t"]

    def test_fenced_database_refuses_ddl_before_changing_anything(self):
        db = repro.connect(name="fenced", default=False)
        db["t"] = {1: {"v": 1}}
        db.fence(2)
        with pytest.raises(repro.errors.FencedLeaderError):
            del db["t"]
        with pytest.raises(repro.errors.FencedLeaderError):
            db.create_index("t", "v")
        assert db.t(1)("v") == 1
        assert db.engine.table("t").indexes.attrs() == []


class TestUnencodableCommitIsRefused:
    """A row JSON cannot hold used to leave a phantom log record and a
    zombie transaction behind the TypeError."""

    def test_refused_before_log_file_or_chains_change(self, wal_path):
        db = repro.connect(name="bad", wal_path=wal_path, default=False)
        db["t"] = {1: {"v": 1}}
        records, size = len(db.engine.wal), os.path.getsize(wal_path)
        clock = db.manager.now()
        with pytest.raises(PersistenceError):
            db.t.insert(2, {"v": {(1, 2): "x"}})  # tuple dict key
        assert len(db.engine.wal) == records
        assert os.path.getsize(wal_path) == size
        assert db.manager.now() == clock
        assert not db.t.defined_at(2)
        assert db.manager.current() is None  # no zombie transaction
        db.t.insert(3, {"v": 3})  # the next statement commits normally
        assert db.manager.now() == clock + 1
        db.close()
        reopened = repro.connect(name="bad", wal_path=wal_path, default=False)
        assert sorted(reopened.t.keys()) == [1, 3]
        reopened.close()

    def test_explicit_transaction_ends_aborted(self, wal_path):
        db = repro.connect(name="bad", wal_path=wal_path, default=False)
        db["t"] = {1: {"v": 1}}
        txn = db.begin()
        db.t[2] = {"v": {1, 2}}  # a set
        with pytest.raises(PersistenceError):
            db.commit()
        assert txn.state == "aborted" and db.manager.current() is None
        db.close()

    def test_memory_only_database_still_takes_live_values(self):
        db = repro.connect(name="mem", default=False)
        db["t"] = {1: {"v": {1, 2}}}
        assert db.t(1)("v") == {1, 2}
        with pytest.raises(PersistenceError):
            db.checkpoint(os.devnull)  # but it cannot be written down


class TestTornTail:
    def test_torn_final_line_is_dropped_and_the_database_opens(self, wal_path):
        with repro.connect(name="torn", wal_path=wal_path,
                           default=False) as db:
            db["t"] = {1: {"v": 1}}
        good = os.path.getsize(wal_path)
        with open(wal_path, "ab") as f:
            f.write(b'{"ts": 3, "writes": [{"table": "t", "ke')
        db2 = repro.connect(name="torn", wal_path=wal_path, default=False)
        assert os.path.getsize(wal_path) == good
        (event,) = db2.lifecycle_events("wal_torn_tail")
        assert event.data["bytes"] == 39
        assert db2.t(1)("v") == 1
        db2.t[2] = {"v": 2}  # starts on a line boundary
        db2.close()
        db3 = repro.connect(name="torn", wal_path=wal_path, default=False)
        assert sorted(db3.t.keys()) == [1, 2]
        assert db3.lifecycle_events("wal_torn_tail") == []
        db3.close()

    def test_bad_line_followed_by_a_good_one_is_corruption(self, wal_path):
        with repro.connect(name="torn", wal_path=wal_path,
                           default=False) as db:
            db["t"] = {1: {"v": 1}}
        with open(wal_path, "rb") as f:
            lines = f.readlines()
        with open(wal_path, "wb") as f:
            f.writelines([lines[0], b'{"ts": 2, "wri\n', lines[1]])
        with pytest.raises(WALError):
            repro.connect(name="torn", wal_path=wal_path, default=False)
