"""Integration tests: FQL against the SQL baseline as an oracle, stored
engine durability round-trips, and the full paper walkthrough on one
database."""

import pytest

import repro
from repro import fql
from repro.errors import TransactionConflictError
from repro.optimizer import optimize
from repro.relational.nulls import is_null
from repro.workloads import generate_retail


@pytest.fixture(scope="module")
def data():
    return generate_retail(
        n_customers=500, n_products=80, n_orders=1000, skew=0.4, seed=77,
        order_coverage=0.7,
    )


@pytest.fixture(scope="module")
def fdm(data):
    return data.to_fdm_database()


@pytest.fixture(scope="module")
def sql(data):
    return data.to_sql_database()


class TestSQLOracle:
    """The same question, asked in FQL and SQL, must agree."""

    def test_filter(self, fdm, sql):
        fql_keys = set(
            fql.filter(fdm.customers, age__gt=60, state="NY").keys()
        )
        sql_keys = {
            r[0]
            for r in sql.query(
                "SELECT cid FROM customers WHERE age > 60 AND state = 'NY'"
            )
        }
        assert fql_keys == sql_keys

    def test_membership_and_between(self, fdm, sql):
        fql_keys = set(
            fql.filter(
                fdm.customers,
                state__in=["NY", "CA"],
                age__between=(30, 40),
            ).keys()
        )
        sql_keys = {
            r[0]
            for r in sql.query(
                "SELECT cid FROM customers WHERE state IN ('NY', 'CA') "
                "AND age BETWEEN 30 AND 40"
            )
        }
        assert fql_keys == sql_keys

    def test_group_counts(self, fdm, sql):
        agg = fql.group_and_aggregate(
            by=["state"], n=fql.Count(), avg_age=fql.Avg("age"),
            input=fdm.customers,
        )
        for row in sql.query(
            "SELECT state, count(*) AS n, avg(age) AS a "
            "FROM customers GROUP BY state"
        ):
            state, n, avg_age = row
            assert agg(state)("n") == n
            assert agg(state)("avg_age") == pytest.approx(avg_age)

    def test_join_cardinality_and_content(self, fdm, sql, data):
        joined = fql.join(fdm)
        sql_joined = sql.query(
            "SELECT customers.cid, products.pid, date FROM customers "
            "JOIN orders ON customers.cid = orders.cid "
            "JOIN products ON orders.pid = products.pid"
        )
        assert len(joined) == len(sql_joined) == len(data.orders)
        fql_pairs = {(t("cid"), t("pid")) for t in joined.tuples()}
        sql_pairs = {(r[0], r[1]) for r in sql_joined}
        assert fql_pairs == sql_pairs

    def test_outer_partitions_match_left_join(self, fdm, sql):
        marked = fql.subdatabase(fdm, outer="products")
        unsold = set(marked.products.outer.keys())
        left = sql.query(
            "SELECT products.pid, orders.cid FROM products "
            "LEFT JOIN orders ON products.pid = orders.pid"
        )
        cid_i = left.column_index("cid")
        pid_i = left.column_index("pid")
        sql_unsold = {
            r[pid_i] for r in left.rows if is_null(r[cid_i])
        }
        assert unsold == sql_unsold

    def test_grouping_sets_totals(self, fdm, sql):
        gset = fql.group_and_aggregate(
            [dict(by=["state"], name="s"), dict(by=[], name="g")],
            n=fql.Count(),
            input=fdm.customers,
        )
        result = sql.query(
            "SELECT state, count(*) AS n FROM customers "
            "GROUP BY GROUPING SETS ((state), ())"
        )
        gid = result.column_index("grouping_id")
        n_i = result.column_index("n")
        state_i = result.column_index("state")
        for row in result.rows:
            if row[gid] == 0:
                assert gset("s")(row[state_i])("n") == row[n_i]
            else:
                assert gset("g")(())("n") == row[n_i]

    def test_order_and_limit(self, fdm, sql):
        top5 = fql.top(fdm.customers, 5, by="age")
        ages = [t("age") for t in top5.tuples()]
        sql_ages = [
            r[0]
            for r in sql.query(
                "SELECT age FROM customers ORDER BY age DESC LIMIT 5"
            )
        ]
        assert ages == sql_ages

    def test_optimized_equals_naive_equals_sql(self, data, sql):
        stored = data.to_stored_database(name="integ-stored")
        stored.create_index("customers", "age", kind="sorted")
        naive = fql.filter(stored.customers, age__between=(40, 50))
        optimized = optimize(naive)
        sql_keys = {
            r[0]
            for r in sql.query(
                "SELECT cid FROM customers WHERE age BETWEEN 40 AND 50"
            )
        }
        assert set(naive.keys()) == set(optimized.keys()) == sql_keys


class TestDurability:
    def test_wal_recovery_after_mixed_dml(self, tmp_path):
        from repro.storage import StorageEngine, WriteAheadLog

        wal_path = str(tmp_path / "mixed.wal")
        db = repro.FunctionalDatabase(name="dur", wal_path=wal_path)
        db["t"] = {i: {"v": i} for i in range(1, 21)}
        rel = db.t
        rel[21] = {"v": 21}
        rel[5]["v"] = 500
        del rel[7]
        with db.transaction():
            rel[22] = {"v": 22}
            rel[6]["v"] = 600
        aborted = db.begin()
        rel[23] = {"v": 9999}
        aborted.rollback()
        db.engine.wal.close()

        recovered = StorageEngine.recover(WriteAheadLog.load(wal_path))
        live = {k: rel(k)("v") for k in rel.keys()}
        replayed = {
            k: row["v"] for k, row in recovered.scan("t", 2**62)
        }
        assert replayed == live
        assert 23 not in replayed  # aborted work never hit the log

    def test_checkpoint_then_more_txns(self, tmp_path):
        path = str(tmp_path / "ck.json")
        db = repro.FunctionalDatabase(name="ck")
        db["t"] = {1: {"v": 1}, 2: {"v": 2}}
        db.checkpoint(path)
        restored = repro.FunctionalDatabase.restore(path)
        with restored.transaction():
            restored.t[3] = {"v": 3}
            restored.t[1]["v"] = 100
        assert set(restored.t.keys()) == {1, 2, 3}
        assert restored.t(1)("v") == 100
        # snapshots still work post-restore
        reader = restored.begin()
        before = restored.t(1)("v")
        reader.pause()
        with restored.transaction():
            restored.t[1]["v"] = 777
        reader.resume()
        assert restored.t(1)("v") == before
        reader.commit()

    def test_vacuum_after_heavy_update_churn(self):
        db = repro.FunctionalDatabase(name="gc")
        db["t"] = {1: {"v": 0}}
        for i in range(50):
            db.t[1]["v"] = i
        # no snapshot was held, so no replaced version was kept
        assert db.engine.version_count() == 1
        assert db.t(1)("v") == 49  # latest state intact


class TestPaperWalkthrough:
    """Every figure, in order, against one stored database."""

    def test_full_walkthrough(self):
        db = repro.connect(name="walkthrough")

        # §2.3-2.5: build the model
        db["customers"] = {
            1: {"name": "Alice", "age": 47},
            3: {"name": "Bob", "age": 25},
        }
        db["products"] = {
            10: {"name": "laptop", "category": "tech"},
            11: {"name": "lamp", "category": "home"},
        }
        order = db.add_relationship(
            "order", {"cid": "customers", "pid": "products"},
            {(1, 10): {"date": "2026-01-05"}},
        )

        # Fig. 4a
        older = fql.filter("age>$foo", {"foo": 42}, db.customers)
        assert set(older.keys()) == {1}

        # Fig. 4b/4c
        aggregated = fql.group_and_aggregate(
            by=["age"], count=fql.Count(), input=db.customers
        )
        assert aggregated(47)("count") == 1

        # Fig. 5
        sub = fql.filter(lambda kv: kv[0] in ["order", "products"], db)
        sub.customers = fql.filter(db.customers, age__gt=42)
        reduced = fql.reduce_DB(sub)
        assert set(reduced("products").keys()) == {10}

        # Fig. 6
        joined = fql.join(db)
        assert len(joined) == 1

        # Fig. 7
        marked = fql.subdatabase(db, outer="products")
        assert set(marked.products.outer.keys()) == {11}

        # Fig. 8
        gset = fql.group_and_aggregate(
            [dict(by=["age"], name="age_cc"),
             dict(by=[], name="global_min", min=fql.Min("age"))],
            count=fql.Count(),
            input=db.customers,
        )
        assert gset.global_min(())("min") == 25

        # Fig. 9
        db_copy = fql.deep_copy(db)
        db_copy("customers")[5] = {"name": "Eve", "age": 30}
        diff = fql.difference(db, db_copy)
        assert set(diff("changed")("customers")("added").keys()) == {5}

        # Fig. 10
        db.customers[3] = {"name": "Tom", "age": 49}
        db.customers[3]["age"] = 50
        assert db.customers(3)("age") == 50

        # Fig. 11
        db["accounts"] = {42: {"balance": 1000}, 84: {"balance": 500}}
        repro.begin()
        db.accounts[42]["balance"] -= 100
        db.accounts[84]["balance"] += 100
        repro.commit()
        assert db.accounts(42)("balance") == 900

        # and the relationship is still enforcing §3 domains
        with pytest.raises(Exception):
            order[(999, 10)] = {"date": "2026-06-06"}


class TestConcurrentThreads:
    """Real OS threads against one manager (the lock actually matters)."""

    def test_threaded_transfers_conserve_money(self):
        import threading

        db = repro.FunctionalDatabase(name="threads")
        n = 20
        db["accounts"] = {i: {"balance": 100} for i in range(1, n + 1)}
        accounts = db.accounts
        errors: list[Exception] = []

        def worker(worker_id: int) -> None:
            import random

            rng = random.Random(worker_id)
            for _ in range(30):
                src, dst = rng.sample(range(1, n + 1), 2)
                try:
                    with db.transaction():
                        accounts[src]["balance"] -= 5
                        accounts[dst]["balance"] += 5
                except TransactionConflictError:
                    pass
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        total = sum(t("balance") for t in accounts.tuples())
        assert total == n * 100
