"""Fig. 10 (DML costumes) and Fig. 11 (snapshot transactions) on the stored
database, plus snapshot-isolation semantics: read-your-writes, snapshot
stability, first-committer-wins, and the statement-mode footnote."""

import errno
import os
import sys
import threading

import pytest

import repro
from repro import fql
from repro.errors import (
    ConstraintViolationError,
    TransactionConflictError,
    TransactionStateError,
    UndefinedInputError,
    WALError,
)


@pytest.fixture
def db():
    db = repro.connect(name="testDB")
    db["customers"] = {
        1: {"name": "Alice", "age": 47},
        2: {"name": "Bob", "age": 25},
    }
    return db


@pytest.fixture
def bank():
    db = repro.connect(name="bank")
    db["accounts"] = {42: {"balance": 1000}, 84: {"balance": 500}}
    return db


class TestFig10DML:
    def test_all_five_costumes(self, db):
        customers = db.customers
        # adding a 'tuple', i.e. a tuple function:
        customers[3] = {"name": "Tom", "age": 42}
        assert customers(3)("age") == 42
        # alternatively, insert relying on an auto id:
        new_key = customers.add({"name": "Stephen", "age": 28})
        assert new_key == 4
        assert customers(4)("name") == "Stephen"
        # updating a 'tuple':
        customers[3] = {"name": "Tom", "age": 49}
        assert customers(3)("age") == 49
        # updating an attribute value of a tuple:
        customers[3]["age"] = 50
        assert customers(3)("age") == 50
        # delete a tuple function:
        del customers[3]
        assert not customers.defined_at(3)

    def test_no_explicit_save_needed(self, db):
        # "changes are applied immediately to the snapshot"
        db.customers[1]["age"] = 48
        fresh_view = db("customers")
        assert fresh_view(1)("age") == 48

    def test_statement_mode_is_a_tiny_transaction(self, db):
        before = db.manager.commits
        db.customers[1]["age"] = 48
        assert db.manager.commits == before + 1

    def test_write_through_a_filtered_view(self, db):
        # contribution 7: FQL is as powerful writing as reading — updates
        # flow through views to the base function
        older = fql.filter(db.customers, age__gt=42)
        older(1)["age"] = 99
        assert db.customers(1)("age") == 99

    def test_augmented_assignment(self, bank):
        bank.accounts[42]["balance"] -= 100
        assert bank.accounts(42)("balance") == 900

    def test_delete_undefined_raises(self, db):
        with pytest.raises(UndefinedInputError):
            del db.customers[999]


class TestFig11Transactions:
    def test_figure_11_verbatim(self, bank):
        repro.begin()
        accounts = bank.accounts
        accounts[42]["balance"] -= 100
        accounts[84]["balance"] += 100
        repro.commit()
        assert bank.accounts(42)("balance") == 900
        assert bank.accounts(84)("balance") == 600

    def test_money_is_conserved(self, bank):
        total_before = sum(t("balance") for t in bank.accounts.tuples())
        with bank.transaction():
            bank.accounts[42]["balance"] -= 250
            bank.accounts[84]["balance"] += 250
        total_after = sum(t("balance") for t in bank.accounts.tuples())
        assert total_before == total_after

    def test_rollback(self, bank):
        repro.begin()
        bank.accounts[42]["balance"] -= 100
        repro.rollback()
        assert bank.accounts(42)("balance") == 1000

    def test_context_manager_rolls_back_on_error(self, bank):
        with pytest.raises(RuntimeError):
            with bank.transaction():
                bank.accounts[42]["balance"] = 0
                raise RuntimeError("boom")
        assert bank.accounts(42)("balance") == 1000

    def test_read_your_own_writes(self, bank):
        with bank.transaction():
            bank.accounts[42]["balance"] = 123
            assert bank.accounts(42)("balance") == 123

    def test_commit_without_begin(self, bank):
        with pytest.raises(TransactionStateError):
            bank.commit()


class TestSnapshotIsolation:
    def test_snapshot_stability(self, bank):
        t1 = bank.begin()
        t1.pause()
        # another transaction commits a change
        with bank.transaction():
            bank.accounts[42]["balance"] = 0
        t1.resume()
        # t1 still sees its snapshot
        assert bank.accounts(42)("balance") == 1000
        t1.commit()
        # outside any transaction the new state is visible
        assert bank.accounts(42)("balance") == 0

    def test_uncommitted_writes_are_invisible(self, bank):
        t1 = bank.begin()
        bank.accounts[42]["balance"] = 0
        t1.pause()
        assert bank.accounts(42)("balance") == 1000  # dirty read impossible
        t1.resume()
        t1.commit()
        assert bank.accounts(42)("balance") == 0

    def test_first_committer_wins(self, bank):
        t1 = bank.begin()
        bank.accounts[42]["balance"] = 111
        t1.pause()
        t2 = bank.begin()
        bank.accounts[42]["balance"] = 222
        t2.pause()
        t1.resume()
        t1.commit()  # first commit succeeds
        t2.resume()
        with pytest.raises(TransactionConflictError):
            t2.commit()
        assert bank.accounts(42)("balance") == 111
        assert bank.manager.aborts >= 1

    def test_disjoint_writers_both_commit(self, bank):
        t1 = bank.begin()
        bank.accounts[42]["balance"] = 111
        t1.pause()
        t2 = bank.begin()
        bank.accounts[84]["balance"] = 222
        t2.pause()
        t1.resume()
        t1.commit()
        t2.resume()
        t2.commit()  # different keys: no conflict
        assert bank.accounts(42)("balance") == 111
        assert bank.accounts(84)("balance") == 222

    def test_aborted_txn_cannot_be_reused(self, bank):
        t1 = bank.begin()
        t1.rollback()
        with pytest.raises(TransactionStateError):
            t1.commit()
        with pytest.raises(TransactionStateError):
            t1.write("accounts", 42, {"balance": 1})
        # the *database* keeps working: writes fall back to statement mode
        bank.accounts[42]["balance"] = 1
        assert bank.accounts(42)("balance") == 1

    def test_new_keys_in_snapshot(self, bank):
        t1 = bank.begin()
        bank.accounts[99] = {"balance": 1}
        assert set(bank.accounts.keys()) == {42, 84, 99}
        t1.pause()
        assert set(bank.accounts.keys()) == {42, 84}
        t1.resume()
        t1.commit()
        assert set(bank.accounts.keys()) == {42, 84, 99}

    def test_deletes_in_snapshot(self, bank):
        t1 = bank.begin()
        del bank.accounts[42]
        assert set(bank.accounts.keys()) == {84}
        t1.rollback()
        assert set(bank.accounts.keys()) == {42, 84}

    def test_vacuum_respects_active_snapshots(self, bank):
        """An open snapshot keeps the one version it reads per key, not
        every replaced one, and its end drops it."""
        t1 = bank.begin()
        t1.pause()
        with bank.transaction():
            bank.accounts[42]["balance"] = 1
        with bank.transaction():
            bank.accounts[42]["balance"] = 2
        assert bank.engine.version_count() == 2 + 1  # @1000 for t1
        t1.resume()
        assert bank.accounts(42)("balance") == 1000
        t1.commit()
        assert bank.engine.version_count() == 2

    def test_transaction_free_scans_race_commits_consistently(self):
        """Readers registering their stamps without the commit lock race
        a committer that moves balance between keys: every scan (one
        held snapshot) sums to the total, and no read is refused."""
        db = repro.connect(name="race", default=False)
        db["a"] = {k: {"v": 100} for k in range(8)}
        failures, done = [], threading.Event()

        def write():
            for i in range(300):
                with db.transaction():
                    src, dst = i % 8, (i * 3 + 1) % 8
                    db.a[src] = {"v": db.a(src)("v") - 1}
                    db.a[dst] = {"v": db.a(dst)("v") + 1}
            done.set()

        def read():
            while not done.is_set():
                try:
                    total = sum(row["v"] for _k, row in db.a._entries())
                    db.a(3)("v")
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)
                    return
                if total != 800:
                    failures.append(total)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=f) for f in (write, read, read)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert db.engine.version_count() == 8  # nothing is held any more

    @pytest.mark.parametrize("stored", [True, False])
    def test_concurrent_adds_take_distinct_keys(self, monkeypatch, stored):
        """N threads add at once, each having read the next free key
        before any of them writes: N distinct keys come back and N rows
        are stored, with no conflict error and no overwritten row."""
        import threading

        from repro.fdm.relations import MaterialRelationFunction
        from repro.storage.relation import StoredRelationFunction

        n = 6
        cls = StoredRelationFunction if stored else MaterialRelationFunction
        original = cls.next_auto_key
        barrier = threading.Barrier(n)
        first = threading.local()

        def racing(self):
            key = original(self)
            if not getattr(first, "done", False):
                first.done = True
                try:  # hold each first read until every thread has one
                    barrier.wait(timeout=0.5)
                except threading.BrokenBarrierError:
                    pass  # reads and writes are serialized: nobody comes
            return key

        monkeypatch.setattr(cls, "next_auto_key", racing)
        if stored:
            db = repro.connect(name="adders", default=False)
            db["log"] = {1: {"n": 0}}
            table = db.log
        else:
            table = MaterialRelationFunction({1: {"n": 0}}, name="log")
        keys, errors = [], []

        def add(i):
            try:
                keys.append(table.add({"n": i}))
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [threading.Thread(target=add, args=(i,)) for i in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert sorted(keys) == list(range(2, n + 2))
        assert sorted(table(k)("n") for k in keys) == list(range(n))
        assert len(table) == n + 1


class TestStoredRelationships:
    def test_shared_domain_enforcement(self, db):
        order = db.add_relationship(
            "order",
            {"cid": "customers", "pid": {10, 11}},
            {(1, 10): {"date": "2026-01-01"}},
        )
        assert order.related(1, 10)
        assert not order.related(2, 10)
        with pytest.raises(ConstraintViolationError):
            order[(999, 10)] = {"date": "2026-01-02"}  # unknown customer
        with pytest.raises(ConstraintViolationError):
            order[(1, 999)] = {"date": "2026-01-02"}  # outside pid domain

    def test_relationship_is_transactional(self, db):
        order = db.add_relationship(
            "order", {"cid": "customers", "pid": {10, 11}}
        )
        with db.transaction():
            order[(1, 10)] = {"date": "2026-01-01"}
        assert order.defined_at((1, 10))
        t = db.begin()
        order[(2, 11)] = {"date": "2026-01-02"}
        t.rollback()
        assert not order.defined_at((2, 11))

    def test_fk_check_sees_transactional_state(self, db):
        order = db.add_relationship(
            "order", {"cid": "customers", "pid": {10, 11}}
        )
        with db.transaction():
            db.customers[7] = {"name": "Grace", "age": 30}
            order[(7, 10)] = {"date": "2026-01-03"}  # sees buffered insert
        assert order.related(7, 10)


class TestStoredDatabaseViews:
    def test_dynamic_view_stays_fresh(self, db):
        db["older"] = fql.filter(db.customers, age__gt=42)
        assert set(db.older.keys()) == {1}
        db.customers[3] = {"name": "Carol", "age": 70}
        assert set(db.older.keys()) == {1, 3}

    def test_materialized_view_is_frozen(self, db):
        db["older_mv"] = fql.copy(fql.filter(db.customers, age__gt=42))
        assert set(db.older_mv.keys()) == {1}
        db.customers[3] = {"name": "Carol", "age": 70}
        assert set(db.older_mv.keys()) == {1}  # frozen snapshot

    def test_checkpoint_restore(self, db, tmp_path):
        path = str(tmp_path / "db.json")
        db.checkpoint(path)
        restored = repro.FunctionalDatabase.restore(path)
        assert restored.customers(1)("name") == "Alice"
        restored.customers[1]["age"] = 99  # restored DB is fully writable
        assert restored.customers(1)("age") == 99

    def test_index_assisted_lookup(self, db):
        db.create_index("customers", "age", kind="sorted")
        stored = db("customers")
        assert set(stored.lookup_eq("age", 47)) == {1}
        assert set(stored.lookup_range("age", lo=30)) == {1}
        db.customers[3] = {"name": "Carol", "age": 62}
        assert set(stored.lookup_range("age", lo=30)) == {1, 3}


def test_a_failed_wal_write_aborts_its_statement_and_the_next_one_commits(
    tmp_path, monkeypatch
):
    """An ``fsync`` that fails once: the write raises a typed error and
    leaves no transaction current, the next write commits on its own,
    and a reopen shows the second and not the first."""
    path = str(tmp_path / "db.wal")
    db = repro.connect("wal-fail", wal_path=path, default=False)
    db.create_table("t", {1: {"v": 1}})
    fsync, failed = os.fsync, []

    def fsync_failing_once(fd):
        if not failed:
            failed.append(fd)
            raise OSError(errno.EIO, "injected I/O error")
        return fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync_failing_once)
    clock = db._manager.now()
    with pytest.raises(WALError):
        db("t")[2] = {"v": 2}
    assert db._manager.current() is None
    db("t")[3] = {"v": 3}
    assert db._manager.now() == clock + 1
    db.close()
    reopened = repro.connect("wal-fail", wal_path=path, default=False)
    assert sorted(reopened("t").keys()) == [1, 3]
    reopened.close()
