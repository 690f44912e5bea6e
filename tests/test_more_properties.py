"""Second property-test suite: storage invariants under random DML, the
SQL engine against a Python oracle, and optimizer/index agreement."""

import random

from hypothesis import given, settings, strategies as st

import repro
from repro import fql
from repro._util import TOMBSTONE
from repro.fdm import extensionally_equal
from repro.optimizer import optimize
from repro.relational import NULL, SQLDatabase
from repro.storage import StorageEngine, VersionedTable, WriteAheadLog
from repro.storage.wal import WALRecord


# -- versioned table invariants ----------------------------------------------------


@given(st.lists(
    st.tuples(st.integers(0, 5), st.one_of(st.none(), st.integers(0, 99))),
    max_size=30,
))
def test_versioned_reads_see_latest_at_or_before(history):
    """Oracle: replay the history into a dict-per-timestamp model."""
    table = VersionedTable("t")
    oracle: dict[int, dict] = {}
    state: dict = {}
    for ts, (key, value) in enumerate(history, start=1):
        data = TOMBSTONE if value is None else {"v": value}
        table.apply(key, data, ts)
        if value is None:
            state.pop(key, None)
        else:
            state[key] = {"v": value}
        oracle[ts] = dict(state)
    for ts, snapshot in oracle.items():
        assert dict(table.scan_at(ts)) == snapshot
        assert set(table.keys_at(ts)) == set(snapshot)


@given(st.lists(
    st.tuples(st.integers(0, 5), st.one_of(st.none(), st.integers(0, 99))),
    max_size=25,
), st.integers(1, 25))
def test_vacuum_preserves_visible_state(history, watermark):
    table = VersionedTable("t")
    for ts, (key, value) in enumerate(history, start=1):
        table.apply(
            key, TOMBSTONE if value is None else {"v": value}, ts
        )
    top = len(history)
    visible_before = {
        ts: dict(table.scan_at(ts)) for ts in range(watermark, top + 1)
    }
    table.vacuum(watermark)
    for ts, snapshot in visible_before.items():
        assert dict(table.scan_at(ts)) == snapshot


# -- WAL round trips ------------------------------------------------------------------


@given(st.lists(
    st.tuples(
        st.sampled_from(["a", "b"]),
        st.one_of(st.integers(0, 9),
                  st.tuples(st.integers(0, 9), st.integers(0, 9))),
        st.one_of(st.none(), st.dictionaries(
            st.sampled_from(["x", "y"]), st.integers(-5, 5), max_size=2
        )),
    ),
    min_size=1, max_size=10,
))
def test_wal_record_json_roundtrip(writes):
    record = WALRecord(
        7,
        [(t, k, TOMBSTONE if d is None else d) for t, k, d in writes],
    )
    restored = WALRecord.from_json(record.to_json())
    assert restored.commit_ts == record.commit_ts
    assert restored.writes == record.writes


@settings(max_examples=20, deadline=None)
@given(st.lists(
    st.tuples(st.integers(1, 6),
              st.one_of(st.none(), st.integers(0, 99))),
    min_size=1, max_size=25,
))
def test_recovery_reproduces_committed_state(history):
    engine = StorageEngine()
    engine.create_table("t")
    for ts, (key, value) in enumerate(history, start=1):
        engine.apply_commit(
            ts, [("t", key, TOMBSTONE if value is None else {"v": value})]
        )
    recovered = StorageEngine.recover(engine.wal)
    top = len(history) + 1
    assert dict(recovered.scan("t", top)) == dict(engine.scan("t", top))
    assert (
        recovered.table("t").stats.row_count
        == engine.table("t").stats.row_count
    )


# -- index/base consistency under random DML --------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(5, 40))
def test_indexes_agree_with_scans_under_random_dml(seed, n_ops):
    rng = random.Random(seed)
    db = repro.FunctionalDatabase(name=f"idx-prop-{seed}")
    db["t"] = {i: {"v": rng.randint(0, 9), "w": rng.randint(0, 9)}
               for i in range(1, 6)}
    db.create_index("t", "v", kind="hash")
    db.create_index("t", "w", kind="sorted")
    rel = db.t
    for _ in range(n_ops):
        op = rng.random()
        keys = list(rel.keys())
        if op < 0.4 or not keys:
            rel[rng.randint(1, 50)] = {
                "v": rng.randint(0, 9), "w": rng.randint(0, 9)
            }
        elif op < 0.7:
            rel[rng.choice(keys)]["v"] = rng.randint(0, 9)
        elif op < 0.9:
            rel[rng.choice(keys)]["w"] = rng.randint(0, 9)
        else:
            del rel[rng.choice(keys)]
    # every indexed access must agree with a scan
    for value in range(0, 10):
        scan_eq = {
            k for k in rel.keys() if rel(k).get("v") == value
        }
        assert set(rel.lookup_eq("v", value)) == scan_eq
    scan_range = {
        k for k in rel.keys()
        if rel(k).defined_at("w") and 3 <= rel(k)("w") <= 7
    }
    assert set(rel.lookup_range("w", lo=3, hi=7)) == scan_range


# -- optimizer vs naive vs index paths ----------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 9), st.integers(0, 9))
def test_optimized_index_paths_match_naive(seed, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    rng = random.Random(seed)
    db = repro.FunctionalDatabase(name=f"opt-prop-{seed}")
    db["t"] = {i: {"v": rng.randint(0, 9), "g": rng.randint(0, 3)}
               for i in range(1, 40)}
    db.create_index("t", "v", kind="sorted")
    naive = fql.filter(db.t, v__between=(lo, hi))
    assert extensionally_equal(naive, optimize(naive))
    eq_naive = fql.filter(db.t, v__eq=lo)
    assert extensionally_equal(eq_naive, optimize(eq_naive))
    pipeline = fql.filter(
        fql.group_and_aggregate(by=["g"], n=fql.Count(), input=db.t),
        g__lt=3,
    )
    assert extensionally_equal(pipeline, optimize(pipeline))


# -- SQL engine vs a Python oracle ----------------------------------------------------------


_ROWS = st.lists(
    st.fixed_dictionaries({
        "a": st.one_of(st.none(), st.integers(-9, 9)),
        "b": st.integers(-9, 9),
    }),
    min_size=0, max_size=15,
)


@settings(max_examples=40)
@given(_ROWS, st.integers(-9, 9))
def test_sql_where_matches_python_oracle(rows, c):
    db = SQLDatabase()
    db.load_dicts("t", rows, columns=["a", "b"])
    result = db.query("SELECT b FROM t WHERE a > ?", (c,))
    # oracle: NULLs never satisfy the comparison (3VL)
    expected = [
        r["b"] for r in rows if r["a"] is not None and r["a"] > c
    ]
    assert sorted(x[0] for x in result.rows) == sorted(expected)


@settings(max_examples=40)
@given(_ROWS)
def test_sql_group_count_matches_python_oracle(rows):
    db = SQLDatabase()
    db.load_dicts("t", rows, columns=["a", "b"])
    result = db.query(
        "SELECT b, count(*) AS n, count(a) AS defined FROM t GROUP BY b"
    )
    from collections import Counter

    totals = Counter(r["b"] for r in rows)
    defined = Counter(r["b"] for r in rows if r["a"] is not None)
    for b_value, n, d in result.rows:
        assert totals[b_value] == n
        assert defined[b_value] == d
    assert len(result) == len(totals)


@settings(max_examples=30)
@given(_ROWS, _ROWS)
def test_sql_union_matches_python_oracle(rows1, rows2):
    db = SQLDatabase()
    db.load_dicts("t1", rows1, columns=["a", "b"])
    db.load_dicts("t2", rows2, columns=["a", "b"])
    result = db.query("SELECT a, b FROM t1 UNION SELECT a, b FROM t2")
    oracle = {
        (NULL if r["a"] is None else r["a"], r["b"])
        for r in rows1 + rows2
    }
    assert {tuple(row) for row in result.rows} == oracle
