"""Column images (DESIGN.md §13): one immutable image per storage
segment, served to the batched executor as column batches.

The contract has three parts, each pinned here:

* **Exact or decline.** Filter, group-aggregate and order-by read the
  image's typed columns, and where a vectorized fold or sort could
  differ from the naive interpretation in value, type or order it
  declines — the operator keeps its Python loop. Batched ≡ naive,
  order-exactly, on every shape and every hostile value.
* **Validity by stamp.** An image serves a snapshot at or past the
  segment's newest write and nothing else; a write makes the next
  scan rebuild it, once. ``db.stats()["resources"]["totals"]``
  counts the rebuilds as ``images_built``.
* **Same fallbacks as before.** Open transactions, rows holding nested
  functions and older snapshots walk the version chains, uncached.
"""

import math
from functools import reduce

import pytest

from zoo import BIG, hostile_rows, ordered, region_rows

import repro as fql
from repro._util import MISSING
from repro.exec import route_batches, using_exec_mode, using_kernel_backend
from repro.exec.kernels import HAVE_NUMPY, _runs, fold_groups, sort_runs
from repro.exec.nodes import _column_fold_specs
from repro.fdm.databases import database
from repro.fql.group import GroupBy
from repro.obs.resources import metered
from repro.partition import hash_partition, range_partition
from repro.storage.versioned import VersionedTable, fold_batch

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy kernels")


def _built(db):
    return db.stats()["resources"]["totals"]["images_built"]


def _naive(expr_of, db):
    with using_exec_mode("naive"):
        return ordered(expr_of(db))


def _same_as_naive(expr_of, db):
    got = ordered(expr_of(db))
    assert got == _naive(expr_of, db)
    return got


def _batches(relation):
    with metered(relation._engine):
        return list(relation.iter_columnar_batches())


def _specs(by, aggs):
    return _column_fold_specs(GroupBy(by), aggs)


# -- batched on the image ≡ naive ------------------------------------------------


SHAPES = {
    "filter": lambda db: fql.filter(db.customers, "age > 40"),
    "filter_filter": lambda db: fql.filter(
        fql.filter(db.customers, "age > 25"), "score > 10"
    ),
    "filter_hostile": lambda db: fql.filter(db.customers, f"serial > {BIG}"),
    "group_every_aggregate": lambda db: fql.group_and_aggregate(
        by=["state"],
        n=fql.Count(),
        scored=fql.Count("score"),
        total=fql.Sum("age"),
        mean=fql.Avg("age"),
        lo=fql.Min("age"),
        hi=fql.Max("age"),
        score_total=fql.Sum("score"),
        score_mean=fql.Avg("score"),
        score_hi=fql.Max("score"),
        serial_total=fql.Sum("serial"),
        serial_lo=fql.Min("serial"),
        flags=fql.Sum("flag"),
        mixed_n=fql.Count("mixed"),
        input=db.customers,
    ),
    "group_int_key_over_filter": lambda db: fql.group_and_aggregate(
        by=["age"],
        n=fql.Count(),
        total=fql.Sum("age"),
        input=fql.filter(db.customers, "state != 'CA'"),
    ),
    "group_bool_key": lambda db: fql.group_and_aggregate(
        by=["flag"], n=fql.Count(), total=fql.Sum("age"), input=db.customers
    ),
    "order_limit": lambda db: fql.limit(
        fql.order_by(db.customers, "age", reverse=True), 9
    ),
    "order_limit_over_filter": lambda db: fql.limit(
        fql.order_by(fql.filter(db.customers, "age > 30"), "age"), 12
    ),
    "order_float_with_nan": lambda db: fql.order_by(db.customers, "score"),
    "order_undefined": lambda db: fql.order_by(db.customers, "serial"),
    "join": lambda db: fql.join(
        database(
            {
                "customers": fql.filter(db.customers, "age > 30"),
                "regions": db.regions,
            }
        ),
        on=[["customers.state", "regions.state"]],
    ),
    "project": lambda db: fql.project(
        fql.filter(db.customers, "age >= 40"), ["name", "age"]
    ),
}


@pytest.fixture(scope="module", params=["flat", "part"])
def hostile_db(request):
    db = fql.connect(f"image-{request.param}", default=False)
    partition_by = hash_partition("state", 4) if request.param == "part" else None
    # more rows than one column batch, so folds and sorts span batches
    db.create_table("customers", rows=hostile_rows(1200), partition_by=partition_by)
    db["regions"] = region_rows()
    yield db
    db.close()


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_shapes_match_naive(name, hostile_db):
    _same_as_naive(SHAPES[name], hostile_db)


def test_images_are_built_once_and_served_after(hostile_db):
    for expr_of in SHAPES.values():
        ordered(expr_of(hostile_db))
    before = _built(hostile_db)
    for expr_of in SHAPES.values():
        ordered(expr_of(hostile_db))
    assert _built(hostile_db) == before


# -- exactness: the vectorized paths run only where they are exact ------------------


def _fold(db, by, **aggs):
    """The vectorized fold of *db.t* (``None`` if it declined), after
    checking that the batched group-aggregate equals the naive one."""
    _same_as_naive(
        lambda d: fql.group_and_aggregate(by=[by], input=d.t, **aggs), db
    )
    with using_kernel_backend("numpy"):
        return fold_groups(_batches(db.t), by, _specs([by], aggs))


@needs_numpy
class TestExactness:
    def test_int_sum_near_the_int64_limit_declines(self):
        db = fql.connect("image-int64", default=False)
        db["t"] = {i: {"g": "a", "v": 2**62} for i in range(4)}
        assert _fold(db, "g", total=fql.Sum("v")) is None
        (_key, row), = ordered(fql.group_and_aggregate(
            by=["g"], total=fql.Sum("v"), input=db.t
        ))
        assert row["total"] == 2**64 and type(row["total"]) is int
        # Min/Max have no sum to overflow: they stay vectorized
        assert _fold(db, "g", hi=fql.Max("v")) == {"a": {"hi": 2**62}}
        db.close()

    def test_int_sum_within_bound_is_exact_and_int(self):
        db = fql.connect("image-int-sum", default=False)
        db["t"] = {i: {"g": i % 3, "v": 2**40 + i} for i in range(3000)}
        folded = _fold(db, "g", total=fql.Sum("v"), mean=fql.Avg("v"))
        assert folded is not None
        for g in range(3):
            values = [2**40 + i for i in range(g, 3000, 3)]
            assert folded[g]["total"] == sum(values)
            assert type(folded[g]["total"]) is int
        db.close()

    def test_float_sum_keeps_the_left_fold_order_across_batches(self):
        # 1e16 + 1.0 rounds away; the stream order decides the result
        values = [(1e16, 1.0, -1e16, 3.5)[i % 4] * (1 + i % 7) for i in range(3000)]
        db = fql.connect("image-float-sum", default=False)
        db["t"] = {i: {"g": "abc"[i % 3], "v": v} for i, v in enumerate(values)}
        folded = _fold(db, "g", total=fql.Sum("v"), mean=fql.Avg("v"))
        assert folded is not None
        for offset, g in enumerate("abc"):
            members = values[offset::3]
            left = reduce(lambda acc, v: acc + v, members, 0)
            assert left != math.fsum(members)  # the order does matter
            assert folded[g]["total"] == left
            assert folded[g]["mean"] == (left, len(members))
        db.close()

    def test_float_min_max_with_nan_or_negative_zero_declines(self):
        db = fql.connect("image-float-minmax", default=False)
        db["t"] = {1: {"g": "a", "v": 0.0}, 2: {"g": "a", "v": -0.0}}
        assert _fold(db, "g", lo=fql.Min("v")) is None
        db["t"] = {1: {"g": "a", "v": 1.0}, 2: {"g": "a", "v": math.nan}}
        assert _fold(db, "g", lo=fql.Min("v")) is None
        db["t"] = {1: {"g": "a", "v": 1.5}, 2: {"g": "a", "v": -2.5}}
        assert _fold(db, "g", lo=fql.Min("v"), hi=fql.Max("v")) == {
            "a": {"lo": -2.5, "hi": 1.5}
        }
        db.close()

    def test_a_group_with_nothing_to_sum_keeps_the_int_seed(self):
        db = fql.connect("image-empty-sum", default=False)
        db["t"] = {1: {"g": "a", "v": 1.5}, 2: {"g": "b"}}
        folded = _fold(db, "g", total=fql.Sum("v"), lo=fql.Min("v"))
        assert folded["b"]["total"] == 0 and type(folded["b"]["total"]) is int
        assert folded["b"]["lo"] is MISSING
        db.close()

    @pytest.mark.parametrize(
        "keys",
        [
            [True, 1, 1.0, 2, False, 0],  # True == 1 == 1.0 collapse
            [math.nan, math.nan, 1.0, 2.0],  # NaN groups by identity
            [1, "1", 2, "2"],  # mixed families
        ],
    )
    def test_hostile_group_keys_decline(self, keys):
        db = fql.connect("image-keys", default=False)
        db["t"] = {i: {"g": k, "v": i} for i, k in enumerate(keys * 3)}
        assert _fold(db, "g", n=fql.Count(), total=fql.Sum("v")) is None
        db.close()

    def test_int_and_str_keys_group_in_first_appearance_order(self):
        db = fql.connect("image-key-order", default=False)
        db["t"] = {i: {"g": (5, 3, 9, 3)[i % 4], "v": i} for i in range(2100)}
        folded = _fold(db, "g", n=fql.Count())
        assert list(folded) == [5, 3, 9]
        db["t"] = {i: {"g": "zyx"[i % 3], "v": i} for i in range(30)}
        assert list(_fold(db, "g", n=fql.Count())) == ["z", "y", "x"]
        db.close()

    @pytest.mark.parametrize("reverse", [False, True])
    def test_order_ties_keep_stream_order(self, reverse):
        db = fql.connect("image-ties", default=False)
        db["t"] = {i: {"v": (i * 7) % 5, "f": float(i % 3)} for i in range(2500)}
        for attr in ("v", "f"):
            expr_of = lambda d: fql.order_by(d.t, attr, reverse=reverse)  # noqa: E731
            _same_as_naive(expr_of, db)
            with using_kernel_backend("numpy"):
                assert sort_runs(_batches(db.t), attr, reverse) is not None
        db.close()

    def test_order_declines_on_undefined_nan_and_mixed_keys(self):
        db = fql.connect("image-order-decline", default=False)
        cases = {
            "undefined": {1: {"v": 3}, 2: {"w": 1}, 3: {"v": 1}},
            "nan": {1: {"v": 3.0}, 2: {"v": math.nan}, 3: {"v": 1.0}},
            "mixed": {1: {"v": 3}, 2: {"v": 1.5}, 3: {"v": True}},
        }
        for rows in cases.values():
            db["t"] = rows
            for reverse in (False, True):
                _same_as_naive(
                    lambda d: fql.order_by(d.t, "v", reverse=reverse), db
                )
                with using_kernel_backend("numpy"):
                    assert sort_runs(_batches(db.t), "v", reverse) is None
        db.close()


# -- hostile kernel cases: repr-equal to naive under both backends -------------------


def _repr_same_as_naive(expr_of, db):
    """The answer's ``repr`` under each kernel backend is naive's: ``==``
    cannot tell ``1`` from ``1.0`` or ``True``, nor ``0.0`` from ``-0.0``."""
    naive = repr(_naive(expr_of, db))
    for backend in ("numpy", "python"):
        with using_kernel_backend(backend):
            assert repr(ordered(expr_of(db))) == naive, backend


@pytest.fixture(params=["flat", "part"])
def layout(request):
    return request.param


def _hostile_table(rows, layout):
    """A database whose ``t`` holds *rows*, one segment or three hash
    partitions on ``p`` (so folds and sorts span images)."""
    db = fql.connect(f"image-hostile-{layout}", default=False)
    partition_by = hash_partition("p", 3) if layout == "part" else None
    db.create_table("t", rows=rows, partition_by=partition_by)
    return db


def _group_by_g(**aggs):
    return lambda d: fql.group_and_aggregate(by=["g"], input=d.t, **aggs)


class TestHostileKernelCases:
    def test_int_sum_past_2_53_stays_exact(self, layout):
        # float64 would add 2**53 - 1 + 1 + 1 to 2**53: ints sum in int64
        rows = {i: {"p": i, "g": "ab"[i % 2], "v": 1} for i in range(40)}
        rows[0]["v"] = rows[1]["v"] = 2**53 - 1
        db = _hostile_table(rows, layout)
        _repr_same_as_naive(_group_by_g(total=fql.Sum("v"), mean=fql.Avg("v")), db)
        if HAVE_NUMPY:
            folded = _fold(db, "g", total=fql.Sum("v"))
            assert folded == {"a": {"total": 2**53 + 18}, "b": {"total": 2**53 + 18}}
        db.close()

    def test_float_sums_keep_stream_order(self, layout):
        values = [(1e16, 1.0, -1e16, 0.5, -0.0)[i % 5] * (1 + i % 3) for i in range(600)]
        rows = {i: {"p": i % 7, "g": i % 4, "v": v} for i, v in enumerate(values)}
        db = _hostile_table(rows, layout)
        aggs = dict(total=fql.Sum("v"), mean=fql.Avg("v"), n=fql.Count("v"))
        _repr_same_as_naive(_group_by_g(**aggs), db)
        _repr_same_as_naive(lambda d: fql.group_and_aggregate(
            by=["g"], input=fql.filter(d.t, "p > 1"), **aggs), db)
        db.close()

    @pytest.mark.parametrize("keys", [
        [True, 1, 2, False, 0],  # bool and int keys: 1 == True
        ["x", MISSING, "y", "x", MISSING],  # undefined group keys
        [7, 3, MISSING, 3, 9],
    ])
    def test_group_keys_and_missing_values(self, keys, layout):
        rows = {}
        for i in range(300):
            row = {"p": i, "v": i % 11}
            if keys[i % len(keys)] is not MISSING:
                row["g"] = keys[i % len(keys)]
            if i % 7 == 3:
                del row["v"]  # undefined values fall out of the value folds
            rows[i] = row
        db = _hostile_table(rows, layout)
        _repr_same_as_naive(_group_by_g(
            n=fql.Count(), present=fql.Count("v"), total=fql.Sum("v"),
            lo=fql.Min("v"), hi=fql.Max("v"), mean=fql.Avg("v"),
        ), db)
        db.close()

    def test_a_filter_that_drops_a_groups_first_rows(self, layout):
        # "a" leads the image but, filtered, first shows up after "c"
        rows = {i: {"p": i % 5, "g": "abc"[i % 3], "v": i} for i in range(900)}
        db = _hostile_table(rows, layout)
        for where in ("v > 0", "v > 3", "v >= 450", "v < 2"):
            expr_of = lambda d: fql.group_and_aggregate(  # noqa: E731
                by=["g"], n=fql.Count(), hi=fql.Max("v"),
                input=fql.filter(d.t, where),
            )
            _repr_same_as_naive(expr_of, db)
        got = [k for k, _v in ordered(fql.group_and_aggregate(
            by=["g"], n=fql.Count(), input=fql.filter(db.t, "v > 0")))]
        if layout == "flat":  # partitions stream in their own order
            assert got == ["b", "c", "a"]
        db.close()

    def test_groups_seen_last_or_only_in_later_images(self, layout):
        # one key first shows up in the last row; partitioned, each
        # image holds keys no other image has
        rows = {i: {"p": i % 3, "g": f"k{i % 3}-{i % 4}", "v": i} for i in range(900)}
        rows[899]["g"] = "last"
        db = _hostile_table(rows, layout)
        for where in ("v >= 0", "v > 700", "p == 2", "v < 40"):
            _repr_same_as_naive(lambda d: fql.group_and_aggregate(  # noqa: B023
                by=["g"], n=fql.Count(), total=fql.Sum("v"), hi=fql.Max("v"),
                input=fql.filter(d.t, where),
            ), db)
        db.close()

    @pytest.mark.parametrize("reverse", [False, True])
    def test_limit_over_order_with_ties_straddling_n(self, reverse, layout):
        # four int keys ten rows each, and float keys where 0.0 and
        # -0.0 tie: a limit inside a run of ties keeps its earliest rows
        rows = {
            i: {"p": i % 4, "v": (i * 7) % 4, "f": (0.0, -0.0, 1.5)[i % 3]}
            for i in range(40)
        }
        db = _hostile_table(rows, layout)
        for attr in ("v", "f"):
            for n in (0, 1, 5, 10, 15, 39, 40, 41, 100):
                _repr_same_as_naive(lambda d: fql.limit(  # noqa: B023
                    fql.order_by(d.t, attr, reverse=reverse), n), db)
                _repr_same_as_naive(lambda d: fql.limit(  # noqa: B023
                    fql.order_by(fql.filter(d.t, "p != 2"), attr, reverse=reverse), n
                ), db)
        db.close()

    def test_a_filter_splitting_one_image_into_many_batches(self):
        # 17 000 rows scan as three batches of one image; filtered, each
        # selects by a position array, and the kernels join them once
        rows = {
            i: {"p": i % 5, "g": "abc"[i % 3] if i % 7 else "z",
                "v": (i * 37) % 1000, "f": (i % 13) * 0.25}
            for i in range(17_000)
        }
        db = _hostile_table(rows, "flat")
        kept = lambda d: fql.filter(d.t, "p == 1")  # noqa: E731
        if HAVE_NUMPY:
            with using_kernel_backend("numpy"):
                stream = route_batches(kept(db))
                batches = list(stream)
                stream.close()
            assert len(batches) >= 3
            assert all(type(b.sel) is not slice for b in batches)
            assert len(_runs(batches)) == 1
        _repr_same_as_naive(lambda d: fql.group_and_aggregate(
            by=["g"], total=fql.Sum("v"), mean=fql.Avg("f"), input=kept(d),
        ), db)
        for attr, reverse in (("v", False), ("f", True)):
            _repr_same_as_naive(lambda d: fql.order_by(  # noqa: B023
                kept(d), attr, reverse=reverse), db)
        db.close()


def test_python_kernel_backend_declines_every_vectorized_path():
    db = fql.connect("image-python-kernel", default=False)
    db["t"] = {i: {"g": i % 3, "v": i} for i in range(50)}
    with using_kernel_backend("python"):
        batches = _batches(db.t)
        assert fold_groups(batches, "g", _specs(["g"], {"n": fql.Count()})) is None
        assert sort_runs(batches, "v", False) is None
        _same_as_naive(
            lambda d: fql.group_and_aggregate(by=["g"], n=fql.Count(), input=d.t),
            db,
        )
    db.close()


# -- validity by stamp ----------------------------------------------------------------


def _table_db(name, n=3000):
    db = fql.connect(name, default=False)
    db["t"] = {i: {"v": i, "g": i % 4} for i in range(n)}
    db["u"] = {i: {"w": i} for i in range(10)}
    return db


class TestValidity:
    def test_enumeration_suspended_across_a_commit_returns_its_snapshot(self):
        db = _table_db("image-suspended")
        expected = _naive(lambda d: fql.filter(d.t, "v >= 0"), db)
        stream = iter(fql.filter(db.t, "v >= 0").items())
        first = [next(stream)]
        db.t[2999] = {"v": -1, "g": 0}  # a row in a later batch
        del db.t[2000]
        db.t[5000] = {"v": 5000, "g": 1}
        rest = list(stream)
        assert [(k, dict(v.items())) for k, v in first + rest] == expected
        assert 2000 not in dict(fql.filter(db.t, "v >= 0").items())
        db.close()

    def test_delete_and_reinsert_keeps_chain_order(self):
        db = _table_db("image-reinsert", n=6)
        ordered(db.t)
        del db.t[2]
        db.t[2] = {"v": 20, "g": 0}
        got = _same_as_naive(lambda d: fql.filter(d.t, "v >= 0"), db)
        assert [k for k, _v in got] == [0, 1, 2, 3, 4, 5]
        db.close()

    def test_a_commit_to_another_table_reuses_the_image(self):
        db = _table_db("image-other-table")
        expr = fql.filter(db.t, "v > 10")
        ordered(expr)
        built = _built(db)
        db.u[3] = {"w": 33}
        ordered(expr)
        assert _built(db) == built
        db.close()

    def test_a_write_rebuilds_the_image_exactly_once(self):
        db = _table_db("image-rebuild")
        expr = fql.group_and_aggregate(by=["g"], total=fql.Sum("v"), input=db.t)
        ordered(expr)
        built = _built(db)
        db.t[7] = {"v": 700, "g": 3}
        for _ in range(3):
            _same_as_naive(lambda d: fql.group_and_aggregate(
                by=["g"], total=fql.Sum("v"), input=d.t
            ), db)
        assert _built(db) == built + 1
        db.close()

    def test_image_serves_only_snapshots_at_or_past_the_newest_write(self):
        table, batch = VersionedTable("t"), {}
        table.apply(1, {"v": 1}, 1, batch)
        table.apply(2, {"v": 2}, 3, batch)
        fold_batch(batch)
        assert table.build_image(2) is None  # older than the newest write
        image = table.build_image(3)
        assert image.keys == [1, 2] and image.stamp == 3
        assert table.image_at(9) is image
        assert table.image_at(2) is None
        table.apply(1, {"v": 10}, 4, batch)
        assert table.image_at(9) is None
        assert image.rows == [{"v": 1}, {"v": 2}]  # immutable


# -- fallbacks ------------------------------------------------------------------------


class TestFallbacks:
    def test_open_transaction_reads_through_its_buffer(self):
        db = _table_db("image-txn")
        build = lambda d: fql.filter(d.t, "v >= 2990")  # noqa: E731
        with db.transaction():
            db.t[9000] = {"v": 9000, "g": 0}
            built = _built(db)
            got = ordered(build(db))
            assert _built(db) == built
            assert got[-1][0] == 9000
            assert got == _naive(build, db)
        db.close()

    def test_nested_function_row_walks_the_chains(self):
        db = _table_db("image-nested", n=20)
        db.t[99] = fql.relation({1: {"x": 1}}, name="inner")
        built = _built(db)
        expr_of = lambda d: fql.filter(d.t, "v > 15")  # noqa: E731
        assert [k for k, _v in _same_as_naive(expr_of, db)] == [16, 17, 18, 19]
        assert _built(db) == built
        db.close()

    def test_older_snapshot_walks_the_chains_uncached(self, monkeypatch):
        db = _table_db("image-older", n=10)
        old = db.manager.now()
        db.t[3] = {"v": 300, "g": 0}
        monkeypatch.setattr(db.manager, "now", lambda: old)
        built = _built(db)
        got = dict(ordered(fql.filter(db.t, "v >= 3")))
        assert got[3] == {"v": 3, "g": 3}
        assert _built(db) == built
        assert db.engine.tables["t"].segments[0].image_at(old) is None
        db.close()

    def test_partition_table_and_drop_recreate_get_new_images(self):
        db = _table_db("image-repartition", n=100)
        build = lambda d: fql.filter(d.t, "v >= 50")  # noqa: E731
        _same_as_naive(build, db)
        built = _built(db)
        db.partition_table("t", range_partition("v", [25, 75]))
        _same_as_naive(build, db)
        assert _built(db) == built + 2  # the pruned segment builds none
        db["t"] = {i: {"v": 100 + i} for i in range(5)}
        assert [k for k, _v in _same_as_naive(build, db)] == list(range(5))
        db.close()

    def test_vacuum_drops_the_image_and_the_next_scan_rebuilds(self):
        db = _table_db("image-vacuum", n=50)
        db.t[1] = {"v": 100, "g": 1}
        del db.t[2]
        build = lambda d: fql.filter(d.t, "v >= 0")  # noqa: E731
        _same_as_naive(build, db)
        built = _built(db)
        assert db.vacuum() > 0
        segment = db.engine.tables["t"].segments[0]
        assert segment.image_at(db.manager.now()) is None
        _same_as_naive(build, db)
        assert _built(db) == built + 1
        db.close()

    def test_replica_snapshot_install_serves_the_new_tables(self):
        import repro.replication as repl
        import repro.server

        leader = fql.connect("image-leader", default=False)
        leader["t"] = {i: {"v": i} for i in range(40)}
        build = lambda d: fql.filter(d.t, "v >= 30")  # noqa: E731
        with repro.server.serve(leader, port=0) as server:
            replica = repl.start_replica(
                port=server.port, name="image-follower", poll_interval=0.05
            )
            try:
                replica.ensure_read_at(min_ts=leader.manager.now(), timeout=8)
                assert ordered(build(replica)) == ordered(build(leader))
                leader.t[35] = {"v": -35}
                leader.t[41] = {"v": 41}
                replica.apply_snapshot(repl.snapshot_payload(leader))
                assert ordered(build(replica)) == ordered(build(leader))
            finally:
                replica.close()
        leader.close()


# -- partitioned scans ------------------------------------------------------------------


def test_pruned_and_zone_skipped_segments_build_no_image():
    db = fql.connect("image-zones", default=False)
    db.create_table(
        "events",
        rows={i: {"seq": i, "ts": 100 + i} for i in range(400)},
        partition_by=range_partition("seq", [100, 200, 300]),
    )
    got = _same_as_naive(lambda d: fql.filter(d.events, "ts >= 450"), db)
    assert [k for k, _v in got] == list(range(350, 400))
    totals = db.stats()["resources"]["totals"]
    assert totals["zone_segments_skipped"] == 3
    assert totals["zone_segments_scanned"] == 1
    assert _built(db) == 1
    pruned = lambda d: fql.filter(d.events, "seq < 50")  # noqa: E731
    assert len(_same_as_naive(pruned, db)) == 50
    assert _built(db) == 2
    db.close()
