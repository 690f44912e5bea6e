"""Mirror staleness: a stale offload snapshot is never read.

The offload mirror follows the commit log: a sync applies the WAL
records written since its stamp, row by row, and rebuilds the table
whole only when the log cannot say what changed — the table is not the
object the snapshot was built from (engine-level re-partition, drop and
re-create, a replica snapshot install), a vacuum dropped versions from
it, a record changed the table's schema, or the stamp fell below the
WAL floor.
These tests pin each write funnel: ``is_fresh`` drops, the next
offloaded query returns exactly the naive answer, and it did so by
writing one row per changed key or by one rebuild, as the funnel
demands. A seeded history checks the delta-maintained SQL table
against a fresh rebuild after every step.

The compiled SQL follows the profiles the sync accumulates: over a
clean table it carries no guard, and a write that widens a profile
(an absent attribute, None, NaN, another type family, a bool, an
int/float mix, an int past 2**53) brings the guard, or the decline,
back on the next read.

Two gates are pinned alongside: a query inside an open transaction
must take the batched path (its buffered writes are invisible to the
mirror), and a budget-armed query must take the batched path (the SQL
engine cannot run the per-batch meter checks that keep queries
killable).

A sync profiles each attribute a column at a time; property tests hold
those profiles, and the SQL cells written beside them, to a fold of
``ColumnProfile.observe`` over the same values one at a time.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

import zoo

import repro as fql
import repro.replication as repl
from repro.compile import offload_stats, set_offload_mode, using_offload_mode
from repro.compile.mirror import _ABSENT, ColumnProfile, EngineMirror, mirror_for
from repro.exec import explain, set_exec_mode, using_exec_mode
from repro.partition import hash_partition


@pytest.fixture(autouse=True)
def _reset_modes():
    set_exec_mode(None)
    set_offload_mode(None)
    yield
    set_exec_mode(None)
    set_offload_mode(None)


@pytest.fixture
def db():
    handle = fql.connect("offload-mirror", default=False)
    handle["t"] = {
        i: {
            "name": f"c{i}",
            "age": 20 + i,
            "state": "NY" if i % 2 else "CA",
        }
        for i in range(1, 21)
    }
    yield handle
    handle.close()


def _offloaded_keys(db, predicate="age >= 30"):
    with using_exec_mode("batch"), using_offload_mode("force"):
        return [k for k, _ in fql.filter(db.t, predicate).items()]


def _naive_entries(db, predicate="age >= 30"):
    with using_exec_mode("naive"):
        return [
            (k, dict(v.items()))
            for k, v in fql.filter(db.t, predicate).items()
        ]


def _offloaded_entries(db, predicate="age >= 30"):
    with using_exec_mode("batch"), using_offload_mode("force"):
        return [
            (k, dict(v.items()))
            for k, v in fql.filter(db.t, predicate).items()
        ]


class TestMirrorLifecycle:
    def test_sync_is_lazy_and_reused(self, db):
        before = offload_stats(db._engine)
        _offloaded_keys(db)
        mid = offload_stats(db._engine)
        assert mid["mirror_syncs"] == before["mirror_syncs"] + 1
        assert mid["queries_offloaded"] == before["queries_offloaded"] + 1
        # a second query over the unchanged table reuses the snapshot
        _offloaded_keys(db, "age < 25")
        after = offload_stats(db._engine)
        assert after["mirror_syncs"] == mid["mirror_syncs"]
        assert after["queries_offloaded"] == mid["queries_offloaded"] + 1

    def test_fresh_after_query_stale_after_write(self, db):
        _offloaded_keys(db)
        mirror = mirror_for(db._engine)
        assert mirror.is_fresh("t")
        db.t[99] = {"name": "new", "age": 80, "state": "NY"}
        assert not mirror.is_fresh("t")


class TestWriteFunnels:
    def test_insert_bumps_epoch_and_resyncs(self, db):
        _offloaded_keys(db)
        engine = db._engine
        before = offload_stats(engine)
        db.t[99] = {"name": "new", "age": 80, "state": "NY"}
        assert 99 in _offloaded_keys(db)
        assert _offloaded_entries(db) == _naive_entries(db)
        after = offload_stats(engine)
        # one logged row applied, no whole-table copy
        assert after["mirror_syncs"] == before["mirror_syncs"] + 1
        assert after["rows_mirrored"] == before["rows_mirrored"] + 1
        assert after["mirror_rebuilds"] == before["mirror_rebuilds"]

    def test_update_and_delete_resync(self, db):
        assert 1 not in _offloaded_keys(db)  # age 21
        db.t[1]["age"] = 95
        assert 1 in _offloaded_keys(db)
        del db.t[1]
        assert 1 not in _offloaded_keys(db)
        # every refresh decoded the post-write rows, never the snapshot
        assert _offloaded_entries(db) == _naive_entries(db)

    def test_rollback_bumps_without_moving_clock(self, db):
        """The mirror is built from committed rows only, and a rollback
        commits none: the snapshot stays fresh and nothing is copied."""
        _offloaded_keys(db)
        engine = db._engine
        clock = db._manager.now()
        before = offload_stats(engine)
        db.begin()
        db.t[50] = {"name": "ghost", "age": 99, "state": "NY"}
        db.rollback()
        assert db._manager.now() == clock
        assert mirror_for(engine).is_fresh("t")
        keys = _offloaded_keys(db)
        assert 50 not in keys
        assert keys == [k for k, _ in _naive_entries(db)]
        after = offload_stats(engine)
        assert after["rows_mirrored"] == before["rows_mirrored"]
        assert after["mirror_rebuilds"] == before["mirror_rebuilds"]

    def test_partition_table_bumps_epoch(self, db):
        _offloaded_keys(db)
        engine = db._engine
        before = offload_stats(engine)
        db.partition_table("t", hash_partition("state", 3))
        assert not mirror_for(engine).is_fresh("t")
        # the re-sharded table enumerates segment by segment; the
        # rebuilt mirror must bake in the *new* order
        assert _offloaded_entries(db) == _naive_entries(db)
        after = offload_stats(engine)
        assert after["mirror_rebuilds"] == before["mirror_rebuilds"] + 1

    def test_replica_apply_funnel_bumps_epoch(self, db):
        """Replica apply replays through ``engine.apply_commit`` (the
        recovery path); the same funnel must stale the mirror."""
        _offloaded_keys(db)
        engine = db._engine
        before = offload_stats(engine)
        ts = db._manager.now() + 1
        engine.apply_commit(
            ts, [("t", 123, {"name": "repl", "age": 90, "state": "NY"})]
        )
        with db._manager._lock:
            db._manager._clock = ts
        assert not mirror_for(engine).is_fresh("t")
        assert 123 in _offloaded_keys(db)
        assert _offloaded_entries(db) == _naive_entries(db)
        after = offload_stats(engine)
        assert after["rows_mirrored"] == before["rows_mirrored"] + 1
        assert after["mirror_rebuilds"] == before["mirror_rebuilds"]

    def test_replica_snapshot_install_stales_the_mirror(self):
        """A snapshot install swaps the replica's tables without going
        through the log the mirror follows; offloaded reads after it
        must see the new rows, not the old SQL table."""
        leader = fql.connect("offload-leader", default=False)
        replica = repl.ReplicaDatabase(name="offload-replica")
        try:
            leader["t"] = {
                i: {"name": f"c{i}", "age": 20 + i} for i in range(1, 21)
            }
            replica.apply_snapshot(repl.snapshot_payload(leader))
            _offloaded_keys(replica)
            leader.t[1]["age"] = 95
            leader.t[20]["age"] = 1
            del leader.t[15]
            replica.apply_snapshot(repl.snapshot_payload(leader))
            assert _offloaded_keys(replica) == [1, *range(10, 15), 16, 17, 18, 19]
            assert _offloaded_entries(replica) == _naive_entries(replica)
        finally:
            replica.close()
            leader.close()


class TestStalenessGranularity:
    def test_commit_to_other_table_reuses_snapshot(self, db):
        """The commit clock is global but staleness is per-table: a
        commit that never touches ``t`` moves the clock without
        touching ``t``, and must not force a whole-table re-copy."""
        db["u"] = {i: {"x": i} for i in range(3)}
        _offloaded_keys(db)
        engine = db._engine
        syncs = offload_stats(engine)["mirror_syncs"]
        db.u[99] = {"x": 99}  # clock moves; t untouched
        assert _offloaded_entries(db) == _naive_entries(db)
        assert offload_stats(engine)["mirror_syncs"] == syncs

    def test_failed_rebuild_is_never_marked_fresh(self, db):
        """A sync whose SQL writes raise — a delta or a rebuild — rolls
        back whole, leaves the mirror stale (its Python side may have
        moved past the SQL table), falls back for that query, and
        rebuilds successfully on the next one."""
        _offloaded_keys(db)
        engine = db._engine
        mirror = mirror_for(engine)
        db.t[99] = {"name": "new", "age": 80, "state": "NY", "tier": 1}

        class _BrokenConn:
            def __init__(self, real):
                self._real = real

            def execute(self, *args):
                return self._real.execute(*args)

            def executemany(self, *args):
                raise RuntimeError("injected sync failure")

        real = mirror.connection()
        before = offload_stats(engine)
        mirror._conn = _BrokenConn(real)
        try:
            # first the delta fails (after its ALTER TABLE ran) …
            entries = _offloaded_entries(db)
            assert not mirror.is_fresh("t")
            # … then the rebuild that replaces it fails too
            assert _offloaded_entries(db, "age < 25") == _naive_entries(
                db, "age < 25"
            )
        finally:
            mirror._conn = real
        after = offload_stats(engine)
        # the batched fallback still served the post-write truth …
        assert entries == _naive_entries(db)
        assert after["fallback_reasons"].get("sync_error", 0) == before[
            "fallback_reasons"
        ].get("sync_error", 0) + 2
        # … and neither failed sync was recorded as a fresh one
        assert not mirror.is_fresh("t")
        assert after["mirror_syncs"] == before["mirror_syncs"]
        assert after["rows_mirrored"] == before["rows_mirrored"]
        # the rolled-back ALTER left the SQL table as it was
        sql_name = mirror._tables["t"].sql_name
        columns = real.execute(f'PRAGMA table_info("{sql_name}")').fetchall()
        assert len(columns) == 1 + 2 * 3  # ord + name/age/state
        # the connection restored, the next *newly planned* query
        # rebuilds and offloads (the failed plans were cached as
        # batched, so identical queries keep serving the fallback)
        assert _offloaded_entries(db, "age < 26") == _naive_entries(
            db, "age < 26"
        )
        assert mirror.is_fresh("t")
        final = offload_stats(engine)
        assert final["mirror_syncs"] == before["mirror_syncs"] + 1
        assert final["mirror_rebuilds"] == before["mirror_rebuilds"] + 1


class TestExplainSideEffects:
    def test_explain_never_syncs_or_counts(self, db):
        """``explain()`` must not pay (or count) a whole-table copy:
        before any offloaded run it reports the mirror as unsynced,
        and after one it compiles against the existing snapshot."""
        engine = db._engine
        before = offload_stats(engine)
        with using_exec_mode("batch"), using_offload_mode("force"):
            text = explain(fql.filter(db.t, "age >= 30"))
        after = offload_stats(engine)
        assert "== offload ==" in text
        assert "mirror: not yet synced" in text
        assert after == before  # no syncs, no fallbacks, no offloads
        # after a real run, explain shows the SQL of the fresh snapshot
        _offloaded_keys(db)
        mid = offload_stats(engine)
        with using_exec_mode("batch"), using_offload_mode("force"):
            text = explain(fql.filter(db.t, "age >= 30"))
        assert "mirror: fresh" in text
        assert "sql:" in text
        assert offload_stats(engine) == mid
        # a write stales the snapshot; explain says so without resyncing
        db.t[99] = {"name": "new", "age": 80, "state": "NY"}
        db.t[98] = {"name": "new", "age": 81, "state": "NY"}
        with using_exec_mode("batch"), using_offload_mode("force"):
            text = explain(fql.filter(db.t, "age >= 30"))
        assert "mirror: stale (2 commits to apply)" in text
        # a vacuum that drops versions leaves nothing a delta can apply
        db.t[99]["age"] = 82
        db.vacuum()
        with using_exec_mode("batch"), using_offload_mode("force"):
            text = explain(fql.filter(db.t, "age >= 30"))
        assert "mirror: stale (rebuild pending)" in text
        assert offload_stats(engine)["mirror_syncs"] == mid["mirror_syncs"]


#: Shapes over the clean table's int column ``age``: every filter
#: operator, a group-aggregate counting ``age``, and an order_by.
LEAN_SHAPES = {
    "lt": lambda d: fql.filter(d.t, "age < 30"),
    "eq": lambda d: fql.filter(d.t, "age == 25"),
    "ne": lambda d: fql.filter(d.t, "age != 25"),
    "in": lambda d: fql.filter(d.t, "age in [21, 25, 33]"),
    "between": lambda d: fql.filter(d.t, "age between 24 and 31"),
    # an undefined operand makes the `or` false, so `not` keeps the row
    "not": lambda d: fql.filter(d.t, "not (age < 25 or age >= 35)"),
    "agg": lambda d: fql.group_and_aggregate(
        by=["state"],
        n=fql.Count("age"),
        total=fql.Sum("age"),
        hi=fql.Max("age"),
        input=d.t,
    ),
    "order": lambda d: fql.order_by(d.t, "age", reverse=True),
}

#: One committed row per profile facet, and what ``explain`` shows
#: once the next read has compiled against the widened profile.
WIDENINGS = {
    "absent": ({"name": "x", "state": "NY"}, r"\bp\d+\b"),
    "none": ({"name": "x", "age": None, "state": "NY"}, r"IS NULL"),
    "nan": ({"name": "x", "age": float("nan"), "state": "NY"}, r"IS NULL"),
    "str": ({"name": "x", "age": "old", "state": "NY"}, r"typeof"),
    # Max would return 1 where Python keeps True / mixes 30 and 30.0
    "bool": ({"name": "x", "age": True, "state": "NY"}, r"unorderable_column"),
    "float": ({"name": "x", "age": 30.0, "state": "NY"}, r"unorderable_column"),
    "big_int": (
        {"name": "x", "age": 2**53 + 1, "state": "NY"}, r"unsummable_column"
    ),
}

_GUARD = re.compile(r"CASE|typeof|COALESCE|\bp\d+\b")


def _lean_answers(db, exec_mode, offload):
    answers = {}
    with using_exec_mode(exec_mode), using_offload_mode(offload):
        for name, build in LEAN_SHAPES.items():
            try:
                answers[name] = zoo.ordered(build(db))
            except TypeError as exc:  # Sum over a str, in every mode
                answers[name] = type(exc).__name__
    return answers


def _explained(db):
    with using_exec_mode("batch"), using_offload_mode("force"):
        return "\n".join(explain(build(db)) for build in LEAN_SHAPES.values())


class TestLeanSql:
    @pytest.mark.parametrize("facet", sorted(WIDENINGS))
    def test_widening_write_brings_the_guard_back(self, db, facet):
        assert _lean_answers(db, "batch", "force") == _lean_answers(
            db, "naive", "off"
        )
        text = _explained(db)
        assert text.count("verdict: offload") == len(LEAN_SHAPES)
        sql = [line for line in text.splitlines() if "sql:" in line]
        assert len(sql) == len(LEAN_SHAPES)
        assert not [line for line in sql if _GUARD.search(line)]
        row, guard = WIDENINGS[facet]
        db.t[99] = row
        assert _lean_answers(db, "batch", "force") == _lean_answers(
            db, "naive", "off"
        ), facet
        text = _explained(db)
        assert "mirror: fresh" in text  # the read synced and recompiled
        assert re.search(guard, text), facet


class TestExecutionGates:
    def test_open_transaction_falls_back(self, db):
        before = offload_stats(db._engine)
        with db.transaction():
            db.t[77] = {"name": "buffered", "age": 99, "state": "NY"}
            keys = _offloaded_keys(db)
        after = offload_stats(db._engine)
        # the buffered write was visible (snapshot-isolated batched
        # read), which no mirror snapshot could have served
        assert 77 in keys
        assert after["queries_offloaded"] == before["queries_offloaded"]
        assert after["fallback_reasons"].get("txn", 0) > before[
            "fallback_reasons"
        ].get("txn", 0)

    def test_budget_armed_query_falls_back(self, db):
        from repro.obs.resources import ResourceMeter, set_active_meter

        before = offload_stats(db._engine)
        meter = ResourceMeter(db._engine, max_rows_scanned=10**9)
        previous = set_active_meter(meter)
        try:
            keys = _offloaded_keys(db)
        finally:
            set_active_meter(previous)
        after = offload_stats(db._engine)
        assert keys == [k for k, _ in _naive_entries(db)]
        assert after["queries_offloaded"] == before["queries_offloaded"]
        assert after["fallback_reasons"].get("metered", 0) > before[
            "fallback_reasons"
        ].get("metered", 0)


# -- a seeded history: every write funnel, checked after every step ----------

#: Forced offloaded zoo shapes: filters, order/limit, group-aggregates.
HISTORY_SHAPES = [
    "filter_lt",
    "filter_mixed",
    "filter_none_attr",
    "order_by_age",
    "order_limit",
    "agg",
    "agg_sparse",
    "agg_global",
]


def _zoo_answers(db, exec_mode, offload):
    """Each shape's ordered answer, or the error it raised (a str in a
    summed column raises in every mode alike)."""
    answers = {}
    with using_exec_mode(exec_mode), using_offload_mode(offload):
        for name in HISTORY_SHAPES:
            try:
                answers[name] = zoo.ordered(zoo.ZOO[name](db))
            except TypeError as exc:
                answers[name] = type(exc).__name__
    return answers


def _sql_rows(conn, table_mirror):
    """The mirror's SQL rows in ``ord`` order, as {attr: value} over
    the present attributes (column numbering may differ)."""
    rows = conn.execute(
        f'SELECT * FROM "{table_mirror.sql_name}" ORDER BY ord'
    ).fetchall()
    attrs = sorted(table_mirror.columns.items(), key=lambda kv: kv[1])
    return [
        (
            row[0],
            {
                attr: row[1 + 2 * idx]
                for attr, idx in attrs
                if row[2 + 2 * idx]
            },
        )
        for row in rows
    ]


def _assert_matches_rebuild(db, table_name="customers"):
    """Mirror-content oracle: the maintained SQL table equals a fresh
    rebuild's, ord for ord, and each profile covers the rebuild's."""
    engine = db._engine
    mirror = mirror_for(engine)
    fresh = EngineMirror(engine)
    try:
        ts = db._manager.now()
        with mirror.lock:
            kept = mirror.ensure_synced(table_name, ts)
            rebuilt = fresh.ensure_synced(table_name, ts)
            assert kept.mirrorable == rebuilt.mirrorable
            if not rebuilt.mirrorable:
                return
            assert kept.keys == rebuilt.keys
            assert _sql_rows(mirror.connection(), kept) == _sql_rows(
                fresh.connection(), rebuilt
            )
            for attr, profile in rebuilt.profiles.items():
                widened = kept.profiles[attr].signature()
                assert all(
                    mine or not theirs
                    for mine, theirs in zip(widened, profile.signature())
                ), attr
    finally:
        fresh.close()


def _history(db):
    """(label, step) pairs covering every write funnel the mirror sees."""
    engine = db._engine
    rows = db.customers

    def insert():
        rows[1000] = {"name": "n", "age": 33, "state": "NY"}

    def update():
        rows[5]["age"] = 77

    def delete():
        del rows[3]

    def reinsert():
        rows[3] = {"name": "back", "age": 25, "state": "CA"}

    def new_attribute():
        rows[7]["tier"] = "gold"

    def drop_attribute():
        rows[10] = {"name": "c10", "age": 30, "state": "WA"}

    def widen(value):
        def step():
            rows[12]["age"] = value

        return step

    def nested():
        rows[20] = fql.relation({1: {"x": 1}}, name="inner")

    def drop_nested():
        del rows[20]
        rows[12]["age"] = 50

    def vacuum():
        assert db.vacuum() > 0  # drops key 20's chain among others

    def reinsert_vacuumed():
        rows[20] = {"name": "again", "age": 21, "state": "ZZ"}

    def partition():
        db.partition_table("customers", hash_partition("state", 3))

    def move_segment():
        rows[1]["state"] = "TX"  # moves the key to another segment

    def drop_and_recreate():
        db["customers"] = zoo.hostile_rows(40)

    def rollback():
        db.begin()
        db.customers[2]["age"] = 99
        db.rollback()

    def engine_apply():
        ts = db._manager.now() + 1
        engine.apply_commit(
            ts, [("customers", 500, {"name": "eng", "age": 33, "state": "NY"})]
        )
        with db._manager._lock:
            db._manager._clock = ts

    def wal_truncate():
        db.customers[4]["age"] = 19
        engine.wal.truncate()

    def after_truncate():
        db.customers[6]["score"] = 2.5

    return [
        ("insert", insert),
        ("update", update),
        ("delete", delete),
        ("reinsert", reinsert),
        ("new_attribute", new_attribute),
        ("drop_attribute", drop_attribute),
        ("widen_int_to_str", widen("old")),
        ("none", widen(None)),
        ("nan", widen(float("nan"))),
        ("bool", widen(True)),
        ("nested_function", nested),
        ("drop_nested", drop_nested),
        ("vacuum", vacuum),
        ("reinsert_vacuumed", reinsert_vacuumed),
        ("partition_table", partition),
        ("move_segment", move_segment),
        ("drop_and_recreate", drop_and_recreate),
        ("rollback", rollback),
        ("engine_apply_commit", engine_apply),
        ("wal_truncate", wal_truncate),
        ("after_truncate", after_truncate),
    ]


@pytest.fixture
def zoo_db():
    handle = fql.connect("offload-history", default=False)
    handle["customers"] = zoo.hostile_rows(40)
    yield handle
    handle.close()


class TestLoggedHistory:
    def test_history_matches_naive_and_rebuild(self, zoo_db):
        db = zoo_db
        engine = db._engine
        assert _zoo_answers(db, "batch", "force") == _zoo_answers(
            db, "naive", "off"
        )
        start = offload_stats(engine)
        for label, step in _history(db):
            step()
            offloaded = _zoo_answers(db, "batch", "force")
            assert offloaded == _zoo_answers(db, "naive", "off"), label
            _assert_matches_rebuild(db)
        end = offload_stats(engine)
        # the history exercised both paths, and SQL served answers
        assert end["queries_offloaded"] > start["queries_offloaded"]
        assert end["mirror_rebuilds"] > start["mirror_rebuilds"]
        assert (
            end["mirror_syncs"] - end["mirror_rebuilds"]
            > start["mirror_syncs"] - start["mirror_rebuilds"]
        )

    def test_one_row_commit_moves_one_row(self, zoo_db):
        db = zoo_db
        _zoo_answers(db, "batch", "force")
        before = offload_stats(db._engine)
        db.customers[8]["age"] = 71
        _zoo_answers(db, "batch", "force")
        after = offload_stats(db._engine)
        assert after["rows_mirrored"] == before["rows_mirrored"] + 1
        assert after["mirror_syncs"] == before["mirror_syncs"] + 1
        assert after["mirror_rebuilds"] == before["mirror_rebuilds"]

    def test_vacuum_that_drops_versions_rebuilds_once(self, zoo_db):
        db = zoo_db
        _zoo_answers(db, "batch", "force")
        db.customers[8]["age"] = 71
        assert db.vacuum() > 0
        before = offload_stats(db._engine)
        _zoo_answers(db, "batch", "force")
        _zoo_answers(db, "batch", "force")
        after = offload_stats(db._engine)
        assert after["mirror_rebuilds"] == before["mirror_rebuilds"] + 1
        assert after["mirror_syncs"] == before["mirror_syncs"] + 1
        # a vacuum with nothing to drop leaves the mirror alone
        assert db.vacuum() == 0
        assert mirror_for(db._engine).is_fresh("customers")


# -- column profiles ------------------------------------------------------------------

#: None, NaN, bools, ints past 2**53 and 2**63 (either sign), floats,
#: text and nested values: everything a profile flag is about.
hostile_values = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from(
        [2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, 2**63, -(2**63), -(2**63) + 1]
    ),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from("xy"), st.integers(0, 3), max_size=1),
)

hostile_rows = st.lists(
    st.dictionaries(st.sampled_from(["a", "b", "c"]), hostile_values, max_size=3),
    min_size=1,
    max_size=30,
)


def _sql_cell(value):
    """What SQLite hands back for a bound *value*."""
    return int(value) if isinstance(value, bool) else value


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(hostile_values, st.just(_ABSENT)), max_size=25))
def test_a_column_profile_is_the_fold_of_its_values(values):
    """Flags and SQL cells equal those of ``observe`` one value at a
    time: a column whose only ints are 2**63 or more sets ``has_other``
    and never ``has_int``."""
    column, by_value = ColumnProfile(), ColumnProfile()
    data, presence = column.observe_column(list(values))
    expected = [
        (None, 0) if v is _ABSENT else by_value.observe(v) for v in values
    ]
    by_value.has_missing = any(v is _ABSENT for v in values)
    assert column.signature() == by_value.signature()
    cells = list(zip(data, presence))
    assert [(type(d), p) for d, p in cells] == [
        (type(d), p) for d, p in expected
    ]
    assert all(d is e or d == e for (d, _), (e, _) in zip(cells, expected))


@settings(max_examples=40, deadline=None)
@given(rows=hostile_rows, later=hostile_rows)
def test_a_synced_mirror_holds_the_per_value_fold(rows, later):
    """A rebuild's profiles and SQL cells are the per-value fold over
    the rows in enumeration order; after a multi-row commit, the delta
    sync holds what a fresh rebuild does."""
    db = fql.connect("profiles", default=False)
    try:
        db.create_table("t", dict(enumerate(rows)))
        engine = db._engine
        mirror = mirror_for(engine)
        with mirror.lock:
            table = mirror.ensure_synced("t", db._manager.now())
            attrs = list(dict.fromkeys(a for row in rows for a in row))
            profiles = {attr: ColumnProfile() for attr in attrs}
            expected = []
            for key in table.keys:
                row = rows[key]
                cells = {}
                for attr in attrs:
                    if attr in row:
                        cells[attr] = profiles[attr].observe(row[attr])
                    else:
                        profiles[attr].has_missing = True
                        cells[attr] = (None, 0)
                expected.append(cells)
            assert {a: p.signature() for a, p in table.profiles.items()} == {
                a: p.signature() for a, p in profiles.items()
            }
            got = mirror.connection().execute(
                f'SELECT * FROM "{table.sql_name}" ORDER BY ord'
            ).fetchall()
            assert [row[0] for row in got] == list(range(len(rows)))
            for sql_row, cells in zip(got, expected):
                for attr, (value, present) in cells.items():
                    idx = table.columns[attr]
                    cell = sql_row[1 + 2 * idx]
                    assert sql_row[2 + 2 * idx] == present
                    assert type(cell) is type(_sql_cell(value))
                    assert cell == _sql_cell(value)
        with db.transaction():
            for i, row in enumerate(later):
                db.t[i * 2] = row
        _assert_matches_rebuild(db, "t")
    finally:
        db.close()
