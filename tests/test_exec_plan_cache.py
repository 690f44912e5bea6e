"""Plan cache behaviour: hits on repeats, invalidation on DML, LRU."""

import pytest

from repro import connect, fql
from repro.fdm import relation
from repro.exec import (
    PlanCache,
    cache_for,
    default_plan_cache,
    fingerprint,
    set_exec_mode,
    using_exec_mode,
)


@pytest.fixture(autouse=True)
def _fresh_state():
    default_plan_cache().clear()
    set_exec_mode(None)
    yield
    default_plan_cache().clear()
    set_exec_mode(None)


@pytest.fixture
def customers():
    return relation(
        {
            1: {"name": "Alice", "age": 47},
            2: {"name": "Bob", "age": 25},
            3: {"name": "Carol", "age": 62},
        },
        name="customers",
        key_name="cid",
    )


def test_repeat_query_hits_cache(customers):
    cache = default_plan_cache()
    with using_exec_mode("batch"):
        expr = fql.filter(customers, age__gt=30)
        list(expr.items())
        misses_after_first = cache.misses
        assert cache.hits == 0
        list(expr.items())
        assert cache.hits >= 1
        assert cache.misses == misses_after_first


def test_equal_query_rebuilt_still_hits(customers):
    """A structurally identical, freshly built graph reuses the plan."""
    cache = default_plan_cache()
    with using_exec_mode("batch"):
        list(fql.filter(customers, age__gt=30).items())
        misses = cache.misses
        list(fql.filter(customers, age__gt=30).items())
        assert cache.misses == misses
        assert cache.hits >= 1


def test_dml_invalidates_material_relation(customers):
    with using_exec_mode("batch"):
        expr = fql.filter(customers, age__gt=30)
        before = fingerprint(expr)
        assert set(expr.keys()) == {1, 3}
        customers[4] = {"name": "Dave", "age": 50}
        after_insert = fingerprint(expr)
        assert after_insert != before
        assert set(expr.keys()) == {1, 3, 4}
        customers[4]["age"] = 10  # attribute update through BoundTuple
        assert fingerprint(expr) != after_insert
        assert set(expr.keys()) == {1, 3}
        del customers[4]
        assert set(expr.keys()) == {1, 3}


def test_dml_invalidates_stored_relation():
    db = connect("cache-db")
    db["customers"] = {
        1: {"name": "Alice", "age": 47},
        2: {"name": "Bob", "age": 25},
    }
    with using_exec_mode("batch"):
        expr = fql.filter(db.customers, age__gt=30)
        before = fingerprint(expr)
        assert set(expr.keys()) == {1}
        db.customers[3] = {"name": "Carol", "age": 62}  # autocommit DML
        assert fingerprint(expr) != before
        assert set(expr.keys()) == {1, 3}


def test_transaction_buffer_changes_fingerprint():
    db = connect("cache-txn-db")
    db["customers"] = {1: {"name": "Alice", "age": 47}}
    with using_exec_mode("batch"):
        expr = fql.filter(db.customers, age__gt=30)
        outside = fingerprint(expr)
        with db.transaction():
            inside_clean = fingerprint(expr)
            db.customers[2] = {"name": "Bob", "age": 70}
            inside_dirty = fingerprint(expr)
            assert inside_dirty != inside_clean
            assert set(expr.keys()) == {1, 2}
        assert fingerprint(expr) != outside  # commit advanced the WAL
        assert set(expr.keys()) == {1, 2}


def test_stored_graphs_use_per_database_cache(customers):
    db = connect("cache-owner-db")
    db["customers"] = {1: {"name": "Alice", "age": 47}}
    stored_expr = fql.filter(db.customers, age__gt=30)
    material_expr = fql.filter(customers, age__gt=30)
    assert cache_for(stored_expr) is db.engine.plan_cache
    assert cache_for(stored_expr) is not default_plan_cache()
    assert cache_for(material_expr) is default_plan_cache()


def test_a_join_plan_lives_and_dies_with_its_database():
    """A join reaches its engine through the database container it
    joins, so its plan is cached on that database, not pinned (with
    the database's tables) by the process-wide default cache."""
    import gc
    import weakref

    db = connect("join-cache-owner-db", default=False)
    db["customers"] = {1: {"name": "Alice"}, 2: {"name": "Bob"}}
    db["orders"] = {10: {"customer": 1}, 11: {"customer": 2}}
    joined = fql.join(db, on=[["orders.customer", "customers.__key__"]])
    assert cache_for(joined) is db.engine.plan_cache
    list(joined.items())
    assert len(default_plan_cache()) == 0
    engine = weakref.ref(db.engine)
    db.close()
    del db, joined
    gc.collect()
    assert engine() is None


def test_lru_eviction():
    cache = PlanCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("c", 3)
    assert len(cache) == 2
    assert cache.evictions == 1
    assert cache.get("a") is None  # oldest evicted
    assert cache.get("b") == 2
    cache.put("d", 4)  # "c" is now LRU (b was refreshed)
    assert cache.get("c") is None
    assert cache.get("b") == 2


def test_naive_mode_bypasses_cache(customers):
    cache = default_plan_cache()
    with using_exec_mode("naive"):
        expr = fql.filter(customers, age__gt=30)
        list(expr.items())
        assert cache.hits == 0 and cache.misses == 0 and len(cache) == 0


def test_restrict_key_sets_do_not_collide_via_hash():
    """hash(frozenset([-1])) == hash(frozenset([-2])): the fingerprint
    must carry the key set itself, not its hash."""
    base = relation(
        {-1: {"v": "minus-one"}, -2: {"v": "minus-two"}}, name="base"
    )
    with using_exec_mode("batch"):
        first = fql.restrict_to_keys(base, [-1])
        second = fql.restrict_to_keys(base, [-2])
        assert list(first.keys()) == [-1]
        assert list(second.keys()) == [-2]
        assert fingerprint(first) != fingerprint(second)


def test_key_lookup_values_do_not_collide_via_hash():
    base = relation(
        {-1: {"v": "minus-one"}, -2: {"v": "minus-two"}}, name="base"
    )
    with using_exec_mode("batch"):
        first = fql.filter(base, key__eq=-1)
        second = fql.filter(base, key__eq=-2)
        assert list(first.keys()) == [-1]
        assert list(second.keys()) == [-2]


def test_opaque_predicates_do_not_collide(customers):
    """Two different lambdas must not share one cached plan."""
    with using_exec_mode("batch"):
        old = fql.filter(lambda kv: kv[1].get("age", 0) > 30, customers)
        young = fql.filter(lambda kv: kv[1].get("age", 0) <= 30, customers)
        assert set(old.keys()) == {1, 3}
        assert set(young.keys()) == {2}
        assert fingerprint(old) != fingerprint(young)


class TestViewSnapshotFingerprints:
    """Plans reading *through* a view depend on its snapshot, not on the
    live expression underneath: the fingerprint must track the snapshot
    version (bumped by refresh/sync), not the base-leaf versions.
    """

    def test_refresh_invalidates_plans_through_view(self, customers):
        """The regression the pre-IVM fingerprint shape missed: a
        refresh changes what a plan over the view reads, yet left the
        fingerprint unchanged (it only hashed the live leaves)."""
        with using_exec_mode("batch"):
            mv = fql.materialized_view(fql.filter(customers, age__gt=30))
            through = fql.filter(mv, age__lt=100)
            fp_initial = fingerprint(through)
            customers[4] = {"name": "Dan", "age": 70}
            # DML alone: the snapshot (what the plan reads) is unchanged
            assert fingerprint(through) == fp_initial
            mv.refresh()
            assert fingerprint(through) != fp_initial

    def test_full_refresh_also_invalidates(self, customers):
        with using_exec_mode("batch"):
            mv = fql.materialized_view(fql.filter(customers, age__gt=30))
            through = fql.project(mv, ["name"])
            fp_initial = fingerprint(through)
            mv.refresh(incremental=False)
            assert fingerprint(through) != fp_initial

    def test_maintained_view_fingerprint_settles_pending_deltas(
        self, customers
    ):
        """Fingerprinting a maintained view syncs it first, so a cached
        plan is keyed on the snapshot state it will actually read."""
        from repro.ivm import maintained_view, using_ivm_mode

        with using_exec_mode("batch"), using_ivm_mode("on"):
            view = maintained_view(fql.filter(customers, age__gt=30))
            through = fql.filter(view, age__gt=0)
            fp_initial = fingerprint(through)
            customers[1]["age"] = 31  # pending delta
            assert fingerprint(through) != fp_initial
            assert set(through.keys()) == {1, 3}
