"""Differential suite: batched executor ≡ naive per-key interpretation.

Every FQL operator pipeline is evaluated twice — once under
``REPRO_EXEC=naive`` (the pre-executor per-key path) and once through the
batched physical executor — and the two enumerations must be *identical*:
same keys, same order, extensionally equal values. This is the contract
that lets `DerivedFunction.items()/keys()` route transparently.
"""

from contextlib import nullcontext

import pytest

from repro import connect, fql
from repro.fdm import (
    database,
    relation,
    relationship,
    values_equal,
)
from repro.exec import (
    default_plan_cache,
    exec_mode,
    pipeline_for,
    set_exec_mode,
    using_exec_mode,
)
from repro.fql import Avg, Count, Max, Min, Sum
from repro.optimizer import optimize
from repro.predicates.operators import gt


@pytest.fixture(autouse=True)
def _reset_mode():
    set_exec_mode(None)
    yield
    set_exec_mode(None)


@pytest.fixture
def customers():
    return relation(
        {
            1: {"name": "Alice", "age": 47, "state": "NY"},
            2: {"name": "Bob", "age": 25, "state": "CA"},
            3: {"name": "Carol", "age": 62, "state": "NY"},
            4: {"name": "Dave", "age": 47, "state": "TX"},
            5: {"name": "Eve", "age": 25, "state": "NY"},
            6: {"name": "Frank", "state": "NV"},  # no age: undefined attr
        },
        name="customers",
        key_name="cid",
    )


@pytest.fixture
def products():
    return relation(
        {
            10: {"name": "laptop", "category": "tech", "price": 1200},
            11: {"name": "phone", "category": "tech", "price": 800},
            12: {"name": "desk", "category": "furniture", "price": 300},
            13: {"name": "lamp", "category": "furniture", "price": 40},
        },
        name="products",
        key_name="pid",
    )


@pytest.fixture
def order(customers, products):
    return relationship(
        "order",
        {"cid": customers, "pid": products},
        {
            (1, 10): {"date": "2026-01-05"},
            (1, 11): {"date": "2026-01-07"},
            (2, 11): {"date": "2026-02-01"},
            (3, 12): {"date": "2026-02-14"},
            (5, 10): {"date": "2026-03-01"},
        },
    )


@pytest.fixture
def db(customers, products, order):
    return database(
        {"customers": customers, "products": products, "order": order},
        name="DB",
    )


@pytest.fixture
def stored_db(customers, products):
    db = connect("diff-db")
    db["customers"] = {k: dict(t.items()) for k, t in customers.items()}
    db["products"] = {k: dict(t.items()) for k, t in products.items()}
    db.create_index("customers", "age", kind="sorted")
    return db


def _snapshot(fn):
    """Ordered (key, value) snapshot; nested functions frozen to dicts."""
    out = []
    for key, value in fn.items():
        out.append((key, value))
    return out


def assert_equivalent(build):
    """Build the pipeline fresh under each mode and compare streams."""
    with using_exec_mode("naive"):
        fn = build()
        naive_keys = list(fn.keys())
        naive_items = _snapshot(fn)
        naive_len = len(fn)
    with using_exec_mode("batch"):
        fn = build()
        batch_keys = list(fn.keys())
        batch_items = _snapshot(fn)
        batch_len = len(fn)
    assert batch_keys == naive_keys
    assert batch_len == naive_len
    assert len(batch_items) == len(naive_items)
    for (nk, nv), (bk, bv) in zip(naive_items, batch_items):
        assert nk == bk
        assert values_equal(nv, bv), (nk, nv, bv)


# -- filter (all costumes, nesting, undefined attributes) --------------------


def test_filter_django(customers):
    assert_equivalent(lambda: fql.filter(customers, age__gt=40))


def test_filter_lambda_opaque(customers):
    # .get keeps the lambda total: customer 6 has no age in either mode
    assert_equivalent(
        lambda: fql.filter(lambda prof: prof.get("age", 0) > 40, customers)
    )


def test_filter_dot_syntax(customers):
    assert_equivalent(
        lambda: fql.filter(
            lambda prof: prof.get("age", 0) > 40, customers
        )
    )


def test_filter_textual_params(customers):
    assert_equivalent(
        lambda: fql.filter("age > $min", {"min": 40}, customers)
    )


def test_filter_broken_up(customers):
    assert_equivalent(
        lambda: fql.filter(customers, att="age", op=gt, c=40)
    )


def test_filter_nested(customers):
    assert_equivalent(
        lambda: fql.filter(fql.filter(customers, age__gt=30), state="NY")
    )


def test_filter_membership_and_between(customers):
    assert_equivalent(
        lambda: fql.filter("state in ['NY', 'TX']", customers)
    )
    assert_equivalent(
        lambda: fql.filter("age between 25 and 47", customers)
    )


def test_filter_disjunction_and_not(customers):
    assert_equivalent(
        lambda: fql.filter("age > 60 or state = 'CA'", customers)
    )
    assert_equivalent(
        lambda: fql.filter("not (age > 30)", customers)
    )


def test_exclude(customers):
    assert_equivalent(lambda: fql.exclude(customers, state="NY"))


def test_filter_key_lookup(customers):
    assert_equivalent(lambda: fql.filter(customers, key__eq=3))


@pytest.mark.parametrize("probe", [True, 1.0])
def test_a_key_probe_of_another_type_answers_with_the_stored_key(
        customers, probe):
    """``True`` and ``1.0`` select key 1: the answer is the key 1 as
    stored, in both modes, never the probe."""
    for mode in ("naive", "batch"):
        with using_exec_mode(mode):
            keys = list(fql.filter(customers, key__eq=probe).keys())
        assert keys == [1] and type(keys[0]) is int, mode


def test_filter_database_level(db):
    assert_equivalent(
        lambda: fql.filter(lambda kv: kv[0] in ("order", "products"), db)
    )


def test_restrict(customers):
    assert_equivalent(
        lambda: fql.restrict_to_keys(customers, [1, 3, 5, 99])
    )


# -- projection / extension / rename / order / limit -------------------------


def test_project(customers):
    assert_equivalent(lambda: fql.project(customers, ["name", "state"]))


def test_project_keys_do_not_evaluate(customers):
    # 'age' is undefined for key 6: keys() must not raise in either mode
    # (the transform only runs for values), while items() raises in both
    from repro.errors import UndefinedInputError

    build = lambda: fql.project(customers, ["age"])  # noqa: E731
    with using_exec_mode("naive"):
        naive_keys = list(build().keys())
        with pytest.raises(UndefinedInputError):
            list(build().items())
    with using_exec_mode("batch"):
        batch_keys = list(build().keys())
        with pytest.raises(UndefinedInputError):
            list(build().items())
    assert batch_keys == naive_keys


def test_extend_textual(customers):
    assert_equivalent(
        lambda: fql.filter(
            fql.extend(customers, double_age="age * 2"), double_age__gt=90
        )
    )


def test_rename(customers):
    assert_equivalent(lambda: fql.rename(customers, age="years"))


def test_order_by(customers):
    assert_equivalent(lambda: fql.order_by(customers, "age"))
    assert_equivalent(
        lambda: fql.order_by(customers, ["state", "age"], reverse=True)
    )


def test_limit_and_top(customers):
    assert_equivalent(lambda: fql.limit(customers, 3))
    assert_equivalent(lambda: fql.top(customers, 2, by="age"))


def test_filter_over_order(customers):
    assert_equivalent(
        lambda: fql.filter(fql.order_by(customers, "age"), age__gt=30)
    )


# -- grouping and aggregation -------------------------------------------------


def test_group(customers):
    assert_equivalent(lambda: fql.group(by=["age"], input=customers))


def test_group_by_callable(customers):
    assert_equivalent(
        lambda: fql.group(lambda prof: prof("state"), customers)
    )


def test_aggregate_unrolled(customers):
    assert_equivalent(
        lambda: fql.aggregate(
            fql.group(by=["state"], input=customers),
            n=Count(),
            oldest=Max("age"),
            youngest=Min("age"),
            avg_age=Avg("age"),
            total=Sum("age"),
        )
    )


def test_group_and_aggregate_fused(customers):
    assert_equivalent(
        lambda: fql.group_and_aggregate(
            by=["age"], count=Count(), input=customers
        )
    )


def test_having_filter_over_aggregate(customers):
    assert_equivalent(
        lambda: fql.filter(
            fql.aggregate(
                fql.group(by=["age"], input=customers), count=Count()
            ),
            count__gt=1,
        )
    )


def test_multi_attr_grouping(customers):
    assert_equivalent(
        lambda: fql.group_and_aggregate(
            by=["state", "age"], count=Count(), input=customers
        )
    )


# -- joins ---------------------------------------------------------------------


def test_join_implicit(db):
    assert_equivalent(lambda: fql.join(db))


def test_join_explicit_on(db):
    assert_equivalent(
        lambda: fql.join(
            db,
            on=[
                ["customers.cid", "order.cid"],
                ["order.pid", "products.pid"],
            ],
        )
    )


def test_join_then_filter(db):
    assert_equivalent(
        lambda: fql.filter(fql.join(db), category="tech")
    )


def test_cross_product(customers, products):
    db2 = database({"customers": customers, "products": products})
    assert_equivalent(lambda: fql.join(db2))


def test_join_then_group_aggregate(db):
    assert_equivalent(
        lambda: fql.group_and_aggregate(
            by=["category"], n=Count(), input=fql.join(db)
        )
    )


# -- set operations ------------------------------------------------------------


def test_union(customers):
    ny = fql.filter(customers, state="NY")
    tx = fql.filter(customers, state="TX")
    assert_equivalent(lambda: fql.union(ny, tx))


def test_union_keys_never_evaluate_conflicts():
    """Naive union keys() compares no values, so conflicting mappings
    must not raise during key enumeration in batch mode either."""
    r1 = relation({1: {"x": 1}}, name="r1")
    r2 = relation({1: {"x": 2}}, name="r2")
    u = fql.union(r1, r2)  # default on_conflict='error'
    with using_exec_mode("naive"):
        naive_keys = list(u.keys())
        naive_len = len(u)
    with using_exec_mode("batch"):
        assert list(u.keys()) == naive_keys
        assert len(u) == naive_len


def test_union_conflict_policies(customers):
    r1 = relation({1: {"x": 1}, 2: {"x": 2}}, name="r1")
    r2 = relation({1: {"x": 9}, 3: {"x": 3}}, name="r2")
    assert_equivalent(lambda: fql.union(r1, r2, on_conflict="left"))
    assert_equivalent(lambda: fql.union(r1, r2, on_conflict="right"))


def test_intersect(customers):
    ny = fql.filter(customers, state="NY")
    adults = fql.filter(customers, age__gt=30)
    assert_equivalent(lambda: fql.intersect(ny, adults))


def test_minus(customers):
    ny = fql.filter(customers, state="NY")
    adults = fql.filter(customers, age__gt=30)
    assert_equivalent(lambda: fql.minus(ny, adults))


def test_setops_with_non_enumerable_right_operand(customers):
    """intersect/minus never enumerate the right side in naive mode —
    the batch path must fall back rather than scan it."""
    from repro.fdm.relations import ComputedRelationFunction

    computed = ComputedRelationFunction(
        lambda k: {"name": "?"}, name="λR"
    )
    assert not computed.is_enumerable
    assert_equivalent(lambda: fql.minus(customers, computed))
    assert_equivalent(lambda: fql.intersect(customers, computed))


def test_limit_over_map_transforms_only_surviving_rows(customers):
    """Naive limit∘map evaluates n transforms; batch must not evaluate
    a transform that raises beyond the limit."""
    calls = []

    def transform(t):
        calls.append(1)
        if len(calls) > 3:
            raise RuntimeError("transform ran past the limit")
        return {"n": t.get("name")}

    with using_exec_mode("batch"):
        limited = fql.limit(fql.map_tuples(customers, transform), 3)
        assert len(list(limited.items())) == 3


def test_database_level_setops(db):
    db_copy = fql.deep_copy(db)
    db_copy.customers[7] = {"name": "Grace", "age": 30}
    assert_equivalent(lambda: fql.minus(db_copy, db))
    assert_equivalent(lambda: fql.intersect(db, db_copy))
    assert_equivalent(lambda: fql.union(db, db_copy, on_conflict="left"))


# -- stored relations ----------------------------------------------------------


def test_stored_filter(stored_db):
    assert_equivalent(
        lambda: fql.filter(stored_db.customers, age__gt=40)
    )


def test_stored_filter_in_transaction(stored_db):
    with stored_db.transaction():
        stored_db.customers[7] = {"name": "Grace", "age": 99, "state": "WA"}
        assert_equivalent(
            lambda: fql.filter(stored_db.customers, age__gt=40)
        )


def test_stored_optimized_index_lookup(stored_db):
    # explicit optimize() may use the index path; compare as sets since
    # index enumeration order is not source order
    expr = optimize(fql.filter(stored_db.customers, age__gt=40))
    with using_exec_mode("naive"):
        naive = {k: dict(t.items()) for k, t in expr.items()}
    with using_exec_mode("batch"):
        batch = {k: dict(t.items()) for k, t in expr.items()}
    assert naive == batch


# -- fused physical operator ---------------------------------------------------


def test_fused_group_aggregate_physical(customers):
    expr = optimize(
        fql.aggregate(
            fql.group(by=["age"], input=customers), count=Count()
        )
    )
    assert_equivalent(lambda: expr)


# -- subdatabase / outer paths (ride the batched join bindings) ---------------


def test_reduce_db(db):
    def build():
        sub = fql.subdatabase(
            db, relations=["customers", "order", "products"]
        )
        sub["customers"] = fql.filter(db.customers, state="NY")
        return fql.reduce_DB(sub)("order")

    assert_equivalent(build)


def test_outer_partitions(db):
    def build_inner():
        return fql.subdatabase(db, outer="products").products.inner

    def build_outer():
        return fql.subdatabase(db, outer="products").products.outer

    assert_equivalent(build_inner)
    assert_equivalent(build_outer)


def test_explain_names_the_join_path(db, customers, stored_db):
    """A two-atom equi-join runs on column images, and explain says which
    atom builds on what; a three-way join, or a join inside any open
    transaction (even one that only reads), keeps the bindings path."""
    from repro.exec import explain

    orders = relation(
        {100: {"cid": 1, "qty": 2}, 101: {"cid": 3, "qty": 1}},
        name="orders", key_name="oid",
    )
    two = fql.join(
        database({"orders": orders, "customers": customers}),
        on=[["orders.cid", "customers.cid"]],
    )
    on_attr = fql.join(
        database({"customers": customers, "orders": orders}),
        on=[["orders.qty", "customers.age"]],
    )
    expected = [
        (two, "hash_join [orders ⋈ customers; image, build customers on key]"),
        (on_attr, "hash_join [customers ⋈ orders; image, build orders on qty]"),
        (
            fql.join(db),
            "hash_join [order ⋈ customers ⋈ products; bindings: 3 atoms]",
        ),
    ]
    for expr, line in expected:
        physical = explain(expr).split("== physical pipeline ==")[1]
        assert line in physical.splitlines(), physical
        assert_equivalent(lambda: expr)

    stored = fql.join(
        database({"orders": orders, "customers": stored_db.customers}),
        on=[["orders.cid", "customers.__key__"]],
    )
    assert len(stored) == 2
    for in_txn, line in (
        (False, "hash_join [orders ⋈ customers; image, build customers on key]"),
        (True, "hash_join [orders ⋈ customers; bindings: open transaction]"),
    ):
        with stored_db.transaction() if in_txn else nullcontext():
            physical = explain(stored).split("== physical pipeline ==")[1]
            assert line in physical.splitlines(), physical
            assert_equivalent(lambda: stored)


def test_join_with_non_enumerable_key_atom(customers):
    """A hand-built plan may key-join a computed (non-enumerable) atom:
    the batched path must fall back to point probes, like naive."""
    from repro.fdm.relations import ComputedRelationFunction
    from repro.fql.join import JoinedRelationFunction, JoinPlan, JoinSide

    squares = ComputedRelationFunction(
        # total over ANY: the attribute-fallback protocol may probe with
        # strings like 'key_name'
        lambda k: {"square": k * k if isinstance(k, int) else None},
        name="squares",
    )
    assert not squares.is_enumerable
    plan = JoinPlan(
        {"customers": customers, "squares": squares},
        [(JoinSide("customers", "key"), JoinSide("squares", "key"))],
        order_hint=["customers", "squares"],
    )
    db2 = database({"customers": customers})
    expr = JoinedRelationFunction(db2, plan)
    assert_equivalent(lambda: expr)


# -- SQL executor parity -------------------------------------------------------


def test_sql_where_parity_on_empty_tables():
    """Compiled WHERE must not surface errors the interpreting path
    defers: unknown columns and missing params on empty row sets."""
    from repro.relational import SQLDatabase

    results = {}
    for mode in ("naive", "batch"):
        db = SQLDatabase()
        db.execute("CREATE TABLE t (x INT)")
        with using_exec_mode(mode):
            results[mode] = (
                db.query("SELECT * FROM t WHERE x = ?").rows,
                db.query("SELECT * FROM t WHERE x = 1 AND x = 2").rows,
            )
    assert results["naive"] == results["batch"] == ([], [])


def test_sql_where_parity_with_rows():
    from repro.relational import SQLDatabase

    results = {}
    for mode in ("naive", "batch"):
        db = SQLDatabase()
        db.execute("CREATE TABLE t (x INT, y INT)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, NULL)")
        with using_exec_mode(mode):
            results[mode] = (
                db.query("SELECT x FROM t WHERE y > 10").rows,
                db.query("SELECT x FROM t WHERE y > ? OR x = ?", (10, 1)).rows,
                db.query("SELECT x FROM t WHERE y > 5 AND x < 3").rows,
            )
    assert results["naive"] == results["batch"]


# -- routing sanity ------------------------------------------------------------


def test_env_escape_hatch(monkeypatch, customers):
    monkeypatch.setenv("REPRO_EXEC", "naive")
    assert exec_mode() == "naive"
    expr = fql.filter(customers, age__gt=40)
    assert set(expr.keys()) == {1, 3, 4}
    monkeypatch.setenv("REPRO_EXEC", "batch")
    assert exec_mode() == "batch"
    assert set(expr.keys()) == {1, 3, 4}


def test_pipeline_is_actually_used(customers):
    default_plan_cache().clear()
    expr = fql.filter(customers, age__gt=40)
    with using_exec_mode("batch"):
        pipeline = pipeline_for(expr)
    assert pipeline is not None
    assert "filter" in pipeline.explain()
    assert "scan" in pipeline.explain()


def test_dynamic_view_sees_dml(customers):
    expr = fql.filter(customers, age__gt=40)
    with using_exec_mode("batch"):
        assert expr.count() == 3
        customers[7] = {"name": "Hana", "age": 80}
        assert expr.count() == 4
        del customers[7]
        assert expr.count() == 3


# -- the shared operator zoo (tests/zoo.py) -----------------------------------
#
# The corpus every physical-mode differential in this repo pins. Here it
# runs over hostile stored data under batch vs naive; the columnar,
# partition, and offload suites run the same builders under their own
# mode matrices.


@pytest.fixture(scope="module")
def zoo_db():
    import zoo

    db = connect("exec-zoo", default=False)
    db["customers"] = zoo.hostile_rows()
    db["regions"] = zoo.region_rows()
    yield db
    db.close()


def _zoo_names():
    import zoo

    return sorted(zoo.ZOO)


@pytest.mark.parametrize("name", _zoo_names())
def test_shared_zoo_batch_matches_naive(name, zoo_db):
    import zoo

    build = zoo.ZOO[name]
    with using_exec_mode("naive"):
        expected = zoo.ordered(build(zoo_db))
    with using_exec_mode("batch"):
        got = zoo.ordered(build(zoo_db))
    assert got == expected, f"{name}: batch diverged from naive"
