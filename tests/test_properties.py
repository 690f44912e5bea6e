"""Property-based tests (hypothesis) on the core invariants.

Covered: domain algebra, tuple-function value semantics, filter laws,
set-operation algebra at database level, grouping partition laws,
predicate parser round-trips, optimizer semantics preservation, reduce_DB
agreement with join participation, MVCC money conservation under
random interleavings, and segment statistics under seeded storage
histories, and segment skipping (partition scheme and zone map) over
hostile values.
"""

import random
from unittest import mock

from hypothesis import example, given, settings, strategies as st

import repro
from repro import fql
from repro._util import TOMBSTONE
from repro.errors import TransactionConflictError
from repro.fdm import (
    DiscreteDomain,
    IntervalDomain,
    database,
    extensionally_equal,
    relation,
    relationship,
    tuple_function,
)
from repro.optimizer import optimize
from repro.partition import hash_partition, range_partition
from repro.predicates import (
    And,
    AttrRef,
    Between,
    Comparison,
    KeyRef,
    Literal,
    Membership,
    Not,
    Or,
    parse_predicate,
)
from repro.storage import StorageEngine, TableStatistics, VersionedTable
from repro.storage import stats as segment_stats
from repro.storage.image import engine_record, table_schema
from repro.storage.versioned import fold_batch

# -- strategies ---------------------------------------------------------------

attr_values = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.sampled_from(["x", "y", "z", "NY", "CA"]),
)

tuple_dicts = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]), attr_values, min_size=0,
    max_size=4,
)

relations_st = st.dictionaries(
    st.integers(min_value=0, max_value=20), tuple_dicts, max_size=12
)


def _rel(mapping, name="R"):
    return relation(dict(mapping), name=name)


# -- domains -------------------------------------------------------------------


@given(st.sets(st.integers(-30, 30)), st.sets(st.integers(-30, 30)),
       st.integers(-30, 30))
def test_domain_algebra_membership(xs, ys, probe):
    dx, dy = DiscreteDomain(xs), DiscreteDomain(ys)
    assert ((probe in dx) and (probe in dy)) == (probe in (dx & dy))
    assert ((probe in dx) or (probe in dy)) == (probe in (dx | dy))
    assert ((probe in dx) and (probe not in dy)) == (probe in (dx - dy))


@given(st.integers(-100, 100), st.integers(0, 50), st.integers(-150, 150))
def test_interval_domain_membership(lo, width, probe):
    dom = IntervalDomain(lo, lo + width, integral=True)
    assert (probe in dom) == (lo <= probe <= lo + width)
    assert sorted(dom.iter_values()) == list(range(lo, lo + width + 1))


# -- tuple functions --------------------------------------------------------------


@given(tuple_dicts)
def test_tuple_function_value_semantics(data):
    t1 = tuple_function(**data)
    t2 = tuple_function(**dict(reversed(list(data.items()))))
    assert t1 == t2
    assert hash(t1) == hash(t2)
    for attr, value in data.items():
        assert t1(attr) == value


@given(tuple_dicts, st.sampled_from(["a", "b", "c"]), attr_values)
def test_tuple_replace_is_functional(data, attr, value):
    t = tuple_function(**data)
    replaced = t.replace(**{attr: value})
    assert replaced(attr) == value
    for other in data:
        if other != attr:
            assert replaced(other) == t(other)
    if attr in data:
        assert t(attr) == data[attr]  # original untouched


# -- filter laws --------------------------------------------------------------------


@given(relations_st, st.integers(-20, 20), st.integers(-20, 20))
def test_filter_conjunction_equals_composition(mapping, c1, c2):
    rel = _rel(mapping)
    p = parse_predicate(f"a > {c1} and b < {c2}")
    both = fql.filter(p, rel)
    composed = fql.filter(
        parse_predicate(f"b < {c2}"),
        fql.filter(parse_predicate(f"a > {c1}"), rel),
    )
    assert extensionally_equal(both, composed)


@given(relations_st, st.integers(-20, 20))
def test_filter_exclude_partition(mapping, c):
    # FDM semantics: a predicate over an *undefined* attribute selects
    # nothing — and so does its negation (asserting ¬(a>c) still requires
    # knowing a). filter/exclude therefore partition the tuples that
    # DEFINE the attribute comparably; the rest fall outside both.
    # (A type-mismatched comparison does not hold, so its negation does:
    # string-valued 'a' lands in `dropped`.)
    rel = _rel(mapping)
    kept = set(fql.filter(rel, a__gt=c).keys())
    dropped = set(fql.exclude(rel, a__gt=c).keys())
    defined = {k for k in rel.keys() if rel(k).defined_at("a")}
    assert kept | dropped == defined
    assert kept & dropped == set()


@given(relations_st, st.integers(-20, 20))
def test_filter_is_a_subfunction(mapping, c):
    rel = _rel(mapping)
    filtered = fql.filter(rel, a__lt=c)
    for key in filtered.keys():
        assert extensionally_equal(filtered(key).snapshot()
                                   if hasattr(filtered(key), "snapshot")
                                   else filtered(key), rel(key))


# -- set operations --------------------------------------------------------------------


@given(relations_st, relations_st)
def test_setop_key_algebra(m1, m2):
    # avoid merge conflicts: values are a function of the key
    a = _rel({k: {"v": k * 2} for k in m1}, name="A")
    b = _rel({k: {"v": k * 2} for k in m2}, name="B")
    ka, kb = set(a.keys()), set(b.keys())
    assert set(fql.union(a, b).keys()) == ka | kb
    assert set(fql.intersect(a, b).keys()) == ka & kb
    assert set(fql.minus(a, b).keys()) == ka - kb
    # A = (A ∩ B) ∪ (A ∖ B)
    recomposed = fql.union(fql.intersect(a, b), fql.minus(a, b))
    assert extensionally_equal(recomposed, a)


@given(relations_st, relations_st)
def test_difference_classifies_every_key(m1, m2):
    old = _rel(m1, name="old")
    new = _rel(m2, name="new")
    diff = fql.difference(old, new)
    added = set(diff("added").keys())
    removed = set(diff("removed").keys())
    changed = set(diff("changed").keys())
    ko, kn = set(old.keys()), set(new.keys())
    assert added == kn - ko
    assert removed == ko - kn
    assert changed <= (ko & kn)
    untouched = (ko & kn) - changed
    for key in untouched:
        assert extensionally_equal(
            old(key).snapshot() if hasattr(old(key), "snapshot")
            else old(key),
            new(key).snapshot() if hasattr(new(key), "snapshot")
            else new(key),
        )


@given(relations_st)
def test_self_minus_is_empty_and_self_union_is_identity(mapping):
    rel = _rel(mapping)
    assert len(fql.minus(rel, rel)) == 0
    assert extensionally_equal(fql.union(rel, rel), rel)
    assert extensionally_equal(fql.intersect(rel, rel), rel)


# -- grouping -----------------------------------------------------------------------------


@given(st.dictionaries(
    st.integers(0, 30),
    st.fixed_dictionaries({"g": st.integers(0, 4),
                           "v": st.integers(0, 100)}),
    min_size=1, max_size=20,
))
def test_groups_partition_the_relation(mapping):
    rel = _rel(mapping)
    groups = fql.group(by=["g"], input=rel)
    seen: set = set()
    for group_key in groups.keys():
        member_keys = set(groups(group_key).keys())
        assert not (member_keys & seen)
        seen |= member_keys
        for key in member_keys:
            assert rel(key)("g") == group_key
    assert seen == set(rel.keys())


@given(st.dictionaries(
    st.integers(0, 30),
    st.fixed_dictionaries({"g": st.integers(0, 4),
                           "v": st.integers(0, 100)}),
    min_size=1, max_size=20,
))
def test_aggregate_counts_sum_to_total(mapping):
    rel = _rel(mapping)
    agg = fql.group_and_aggregate(
        by=["g"], n=fql.Count(), total=fql.Sum("v"), input=rel
    )
    assert sum(t("n") for t in agg.tuples()) == len(rel)
    assert sum(t("total") for t in agg.tuples()) == sum(
        t("v") for t in rel.tuples()
    )


# -- predicate parser ---------------------------------------------------------------------


comparison_sources = st.builds(
    lambda attr, op, lit: f"{attr} {op} {lit}",
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
    st.integers(-30, 30),
)
predicate_sources = st.recursive(
    comparison_sources,
    lambda children: st.one_of(
        st.builds(lambda p, q: f"({p}) and ({q})", children, children),
        st.builds(lambda p, q: f"({p}) or ({q})", children, children),
        st.builds(lambda p: f"not ({p})", children),
    ),
    max_leaves=6,
)


@given(predicate_sources, st.dictionaries(
    st.sampled_from(["a", "b", "c"]), st.integers(-30, 30),
    min_size=3, max_size=3,
))
def test_parser_roundtrip_preserves_semantics(source, data):
    t = tuple_function(**data)
    p1 = parse_predicate(source)
    p2 = parse_predicate(p1.to_source())
    assert p1(t) == p2(t)


@given(st.text(min_size=0, max_size=40))
def test_payloads_bind_as_values_never_structure(payload):
    from repro.predicates import Comparison, Literal

    p = parse_predicate("a == $x").bind({"x": payload})
    assert isinstance(p, Comparison)
    assert isinstance(p.right, Literal)
    assert p.right.value == payload
    assert p(tuple_function(a=payload))
    if payload != "decoy":
        assert not p(tuple_function(a="decoy"))


# -- optimizer ------------------------------------------------------------------------------


@settings(max_examples=30)
@given(relations_st, st.integers(-20, 20), st.integers(-20, 20))
def test_optimize_preserves_extension_filters(mapping, c1, c2):
    rel = _rel(mapping)
    expr = fql.filter(fql.filter(rel, a__gt=c1), b__lt=c2)
    assert extensionally_equal(expr, optimize(expr))


@settings(max_examples=20)
@given(st.dictionaries(
    st.integers(0, 30),
    st.fixed_dictionaries({"g": st.integers(0, 3),
                           "v": st.integers(0, 50)}),
    min_size=1, max_size=15,
), st.integers(0, 3))
def test_optimize_preserves_extension_grouping(mapping, cutoff):
    rel = _rel(mapping)
    expr = fql.filter(
        fql.aggregate(fql.group(by=["g"], input=rel), n=fql.Count()),
        g__gt=cutoff,
    )
    assert extensionally_equal(expr, optimize(expr))


# -- reduce_DB vs join participation ----------------------------------------------------------


@settings(max_examples=25)
@given(
    st.sets(st.integers(1, 12), min_size=1, max_size=8),
    st.sets(st.integers(1, 8), min_size=1, max_size=6),
    st.sets(st.tuples(st.integers(1, 12), st.integers(1, 8)), max_size=15),
)
def test_reduce_equals_participation(cids, pids, pairs):
    customers = relation(
        {c: {"n": c} for c in cids}, name="customers", key_name="cid"
    )
    products = relation(
        {p: {"m": p} for p in pids}, name="products", key_name="pid"
    )
    valid_pairs = {
        (c, p): {"q": 1} for c, p in pairs if c in cids and p in pids
    }
    order = relationship(
        "order", {"cid": customers, "pid": products}, valid_pairs
    )
    db = database(
        {"customers": customers, "products": products, "order": order}
    )
    from repro.fql.join import JoinPlan

    reduced = fql.reduce_DB(db)
    reference = JoinPlan.from_database(db).participating_keys()
    for name, expected in reference.items():
        assert set(reduced(name).keys()) == expected


# -- MVCC ----------------------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_money_conservation_under_random_interleavings(seed):
    rng = random.Random(seed)
    db = repro.FunctionalDatabase(name=f"prop-bank-{seed}")
    n = 8
    db["accounts"] = {i: {"balance": 100} for i in range(1, n + 1)}
    accounts = db.accounts
    open_txns = []
    for _step in range(30):
        action = rng.random()
        if action < 0.5 or not open_txns:
            txn = db.begin()
            src, dst = rng.sample(range(1, n + 1), 2)
            amount = rng.randint(1, 20)
            accounts[src]["balance"] -= amount
            accounts[dst]["balance"] += amount
            txn.pause()
            open_txns.append(txn)
        else:
            txn = open_txns.pop(rng.randrange(len(open_txns)))
            txn.resume()
            try:
                if rng.random() < 0.8:
                    txn.commit()
                else:
                    txn.rollback()
            except TransactionConflictError:
                pass
    for txn in open_txns:
        txn.resume()
        try:
            txn.commit()
        except TransactionConflictError:
            pass
    assert sum(t("balance") for t in accounts.tuples()) == n * 100


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_snapshot_reads_are_stable(seed):
    rng = random.Random(seed)
    db = repro.FunctionalDatabase(name=f"prop-snap-{seed}")
    db["t"] = {i: {"v": i} for i in range(1, 6)}
    rel = db.t
    reader = db.begin()
    before = {k: rel(k)("v") for k in rel.keys()}
    reader.pause()
    for _ in range(10):
        with db.transaction():
            rel[rng.randint(1, 5)]["v"] = rng.randint(0, 999)
    reader.resume()
    after = {k: rel(k)("v") for k in rel.keys()}
    assert before == after
    reader.commit()


# -- segment statistics ------------------------------------------------------------------


def _facts(stats):
    """Everything a segment's statistics know, as one comparable value."""
    return (
        stats.row_count,
        stats.opaque,
        {
            name: (a.defined, a.values, a.num_min, a.num_max, a.str_min,
                   a.str_max, a.other)
            for name, a in stats.attrs.items()
        },
    )


def _replayed(segment):
    """The statistics of a fresh segment fed the versions *segment*
    holds."""
    fresh, batch = VersionedTable("replay"), {}
    for key, versions in segment.history():
        for ts, data in versions:
            fresh.apply([key], [data], ts, batch)
    fold_batch(batch)
    return fresh.stats


def _counts(stats):
    """A segment's latest-state facts."""
    return stats.row_count, {
        name: (a.defined, a.values) for name, a in stats.attrs.items() if a.defined
    }


def _covers(stats, inner):
    """Whether *stats*' accumulate-only facts cover *inner*'s."""
    if inner.opaque and not stats.opaque:
        return False
    for name, a in inner.attrs.items():
        b = stats.attrs.get(name)
        if b is None or (a.other and not b.other):
            return False
        for low, high in ((a.num_min, a.num_max), (a.str_min, a.str_max)):
            if low is not None:
                b_low, b_high = (
                    (b.num_min, b.num_max) if low is a.num_min else (b.str_min, b.str_max)
                )
                if b_low is None or b_low > low or b_high < high:
                    return False
    return True


def _hold_or_release(engine, held, rng, ts):
    """A reader registers at the clock, or the oldest one ends."""
    if held and rng.random() < 0.5:
        engine.snapshots.release(held.pop(0))
    else:
        engine.snapshots.hold(ts)
        held.append(ts)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_segment_statistics_equal_a_replay_of_their_chains(seed):
    """Through inserts, updates, deletes, partition moves, re-shards,
    held snapshots and their ends, WAL recovery and checkpoint installs,
    every segment's latest-state counts equal those of a fresh segment
    replaying the versions it holds, its bounds cover that replay's,
    and the segments' row counts sum to the live key count."""
    rng = random.Random(seed)
    latest = 2**62
    engine = StorageEngine()
    engine.create_table("t")
    ts = 1
    engine.apply_commit(ts, [], schemas={"t": table_schema(engine, "t")})
    model: dict = {}
    held: list = []

    def value():
        return rng.choice([
            rng.randint(-5, 5), rng.random() * 10, float("nan"), None,
            rng.choice(["NY", "CA", "TX"]), rng.random() < 0.5, [1, 2],
        ])

    for _step in range(40):
        ts += 1
        action = rng.random()
        if action < 0.55:
            key = rng.randrange(12)
            row = {"p": rng.randrange(4)}
            for attr in ("v", "w"):
                if rng.random() < 0.7:
                    row[attr] = value()
            engine.apply_commit(ts, [("t", key, row)])
            model[key] = row
        elif action < 0.7 and model:
            key = rng.choice(sorted(model))
            engine.apply_commit(ts, [("t", key, TOMBSTONE)])
            del model[key]
        elif action < 0.8:
            scheme = rng.choice([
                hash_partition("p", rng.randint(1, 4)),
                range_partition("p", [1]),
                range_partition("p", [1, 3]),
            ])
            schema = table_schema(engine, "t")
            schema["partition"] = scheme.spec()
            engine.apply_commit(ts, [], schemas={"t": schema})
        elif action < 0.9:
            ts -= 1  # no commit: the clock stays
            _hold_or_release(engine, held, rng, ts)
        elif action < 0.95:  # a reopen: replay the log, keep appending
            wal = engine.wal
            engine = StorageEngine.recover(wal)
            engine.wal = wal
            held.clear()
        else:
            record = engine_record(engine, ts - 1)  # a checkpoint's install
            engine = StorageEngine()
            engine.apply_commit(record.commit_ts, record.writes, record.schemas)
            held.clear()
        table = engine.table("t")
        segments = table.segments
        for segment in segments:
            replay = _replayed(segment)
            assert _counts(segment.stats) == _counts(replay)
            assert _covers(segment.stats, replay)
        live = sum(1 for _ in table.keys_at(latest))
        assert sum(s.stats.row_count for s in segments) == live
        assert table.stats.row_count == live
        # repr: a recovered NaN is another object, and NaN != NaN
        assert repr(dict(table.scan_at(latest))) == repr(
            {key: model[key] for key in table.keys_at(latest)}
        )
        assert sorted(table.keys_at(latest)) == sorted(model)


# -- the column fold ----------------------------------------------------------------


def _strict(stats):
    """:func:`_facts` with each kept object told apart by type and repr:
    a count kept under ``True`` is not one kept under ``1`` or ``1.0``,
    nor a bound of ``-0.0`` one of ``0.0``."""

    def obj(value):
        return type(value).__name__, repr(value)

    return (
        stats.row_count,
        stats.opaque,
        {
            name: (
                a.defined,
                sorted((obj(token), n) for token, n in a.values.items()),
                [obj(b) for b in (a.num_min, a.num_max, a.str_min, a.str_max)],
                a.other,
            )
            for name, a in sorted(stats.attrs.items())
        },
    )


def _fold_value(rng):
    """A value whose count or bound a column fold could get wrong: ties
    between ``True``, ``1`` and ``1.0``, signed zeros, a fresh NaN, ints
    past 2**53 and 2**63, unhashables and a string equal to one's repr."""
    return rng.choice([
        0, 1, True, False, 1.0, 0.0, -0.0, None, "a", "b", "", "[1]", 2.5,
        2**53 + 1, 2**63, -(2**70), [1], (1, [2]), float("nan"),
    ])


def _fold_row(rng):
    pick = rng.random()
    if pick < 0.15:
        return TOMBSTONE
    if pick < 0.2:
        return ["a nested value"]  # not a dict: the segment turns opaque
    attrs = rng.sample(["p", "v", "w"], rng.randint(0, 3))
    return {attr: _fold_value(rng) for attr in attrs}


def _per_row(stats, olds, news):
    for old, new in zip(olds, news):
        stats.on_write(old, new)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_column_fold_equals_a_run_of_one_row_writes(seed):
    """``fold`` over a commit leaves exactly what ``on_write`` row by
    row leaves, a key written twice in one fold (a chain replay)
    included; every fold of two rows or more goes by column here."""
    rng = random.Random(seed)
    folded, by_row, current = TableStatistics(), TableStatistics(), {}
    for _commit in range(rng.randint(1, 6)):
        olds, news = [], []
        for _ in range(rng.randint(1, 10)):
            key, row = rng.randrange(6), _fold_row(rng)
            olds.append(current.get(key, TOMBSTONE))
            news.append(row)
            current[key] = row
        with mock.patch.object(segment_stats, "COLUMN_ROWS", 2):
            folded.fold(olds, news)
        _per_row(by_row, olds, news)
        assert _strict(folded) == _strict(by_row)


def test_a_bulk_insert_folds_by_column():
    rng = random.Random(5)
    rows = [{"v": _fold_value(rng), "w": rng.randrange(9)} for _ in range(500)]
    by_row = TableStatistics()
    _per_row(by_row, [TOMBSTONE] * len(rows), rows)
    folded = TableStatistics()
    with mock.patch.object(TableStatistics, "on_write", side_effect=AssertionError):
        folded.fold([TOMBSTONE] * len(rows), rows)
    assert _strict(folded) == _strict(by_row)


def test_a_replay_with_history_takes_the_row_path_before_any_column():
    """Re-partitioning replays chains with history into empty
    statistics, where counts cross zero: the fold goes row by row
    without first building the columns it would throw away."""
    olds, news = [], []
    for key in range(300):
        chain = [{"v": key % 7, "w": ts} for ts in (1, 2, 3)]
        olds += [TOMBSTONE, *chain[:-1]]
        news += chain
    folded, by_row = TableStatistics(), TableStatistics()
    with mock.patch.object(segment_stats, "_columns", side_effect=AssertionError):
        folded.fold(olds, news)
    _per_row(by_row, olds, news)
    assert _strict(folded) == _strict(by_row)


def _statistics_history(seed):
    """Each segment's strict facts after each step of a seeded history
    of multi-row commits, held snapshots, re-partitions and recoveries."""
    rng = random.Random(seed)
    engine = StorageEngine()
    engine.create_table("t")
    ts = 1
    engine.apply_commit(ts, [], schemas={"t": table_schema(engine, "t")})
    steps = []
    held: list = []
    for _step in range(30):
        ts += 1
        action = rng.random()
        if action < 0.6:
            writes = {rng.randrange(10): _fold_row(rng) for _ in range(rng.randint(1, 8))}
            for row in writes.values():
                if isinstance(row, dict):
                    row["p"] = rng.randrange(4)
            engine.apply_commit(ts, [("t", k, row) for k, row in writes.items()])
        elif action < 0.75:
            ts -= 1  # no commit: the clock stays
            _hold_or_release(engine, held, rng, ts)
        elif action < 0.9:
            scheme = rng.choice([hash_partition("p", 3), range_partition("p", [2]), None])
            schema = table_schema(engine, "t")
            schema["partition"] = None if scheme is None else scheme.spec()
            engine.apply_commit(ts, [], schemas={"t": schema})
        else:
            wal = engine.wal
            engine = StorageEngine.recover(wal)
            engine.wal = wal
            held.clear()
        steps.append([_strict(s.stats) for s in engine.table("t").segments])
    return steps


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_commit_vacuum_reshard_and_recovery_fold_as_row_by_row(seed):
    """The statistics every path leaves — commit under held snapshots,
    re-partition and WAL recovery — equal those of the same history
    folded one row at a time (every fold of two rows or more goes by
    column on the first run)."""
    with mock.patch.object(segment_stats, "COLUMN_ROWS", 2):
        by_column = _statistics_history(seed)
    with mock.patch.object(TableStatistics, "fold", _per_row):
        by_row = _statistics_history(seed)
    assert by_column == by_row


# -- segment skipping ------------------------------------------------------------------

_NAN = float("nan")

#: Values that make a may-analysis treacherous: NaN (one shared object,
#: so ``in`` can match it by identity), None, bools (``True == 1``),
#: integers beyond float64-exact, strings beside numbers.
hostile_values = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2**60, 2**60 + 1, -(2**60), 0.5, -1.5, _NAN]),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "a", "ab", "abc", "b", "NY"]),
)

hostile_rows = st.dictionaries(
    st.sampled_from(["a", "b"]), hostile_values, max_size=2
)

_COLUMNS = st.sampled_from([AttrRef("a"), AttrRef("b"), KeyRef()])


def _comparison(column, op, value, literal_first):
    if literal_first:
        return Comparison(op, Literal(value), column)
    return Comparison(op, column, Literal(value))


atom_predicates = st.one_of(
    st.builds(
        _comparison, _COLUMNS,
        st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
        hostile_values, st.booleans(),
    ),
    st.builds(
        lambda column, values, negated: Membership(
            column, Literal(values), negated=negated
        ),
        _COLUMNS,
        st.one_of(
            st.lists(hostile_values, max_size=3),
            st.lists(hostile_values, max_size=3).map(tuple),
        ),
        st.booleans(),
    ),
    # over a string, ``in`` is substring matching
    st.builds(
        lambda column, text: Membership(column, Literal(text)),
        _COLUMNS, st.sampled_from(["abc", "ab", "", "NY/CA"]),
    ),
    st.builds(
        lambda column, lo, hi: Between(column, Literal(lo), Literal(hi)),
        _COLUMNS, hostile_values, hostile_values,
    ),
)

skip_predicates = st.recursive(
    atom_predicates,
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
    ),
    max_leaves=4,
)

_LAYOUTS = [
    None,
    hash_partition("a", 3),
    range_partition("a", [0, 2]),
    range_partition("a", ["a", "b"]),
    hash_partition(None, 3),
    range_partition(None, [5, 15]),
]


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.integers(0, 24), hostile_rows, max_size=16),
    st.lists(
        st.tuples(st.integers(0, 24), st.one_of(st.none(), hostile_rows)),
        max_size=6,
    ),
    st.sampled_from(_LAYOUTS),
    skip_predicates,
)
@example(  # substring ``in`` read as element ``in``: a flat zone skip ...
    rows={1: {"a": "ab"}, 2: {"a": "ab"}}, writes=[], layout=None,
    pred=Membership(AttrRef("a"), Literal("abc")),
)
@example(  # ... and partitions pruned by the string's characters
    rows={i: {"a": v} for i, v in enumerate(["ab", "x", "bc", "abc", ""])},
    writes=[], layout=_LAYOUTS[1],
    pred=Membership(AttrRef("a"), Literal("abc")),
)
def test_a_skipped_segment_holds_no_match(rows, writes, layout, pred):
    """Every segment the columnar scan skips — by partition scheme or by
    zone map — holds no row the naive predicate accepts, and the batched
    filter equals the naive one, over hostile values in flat and
    hash/range/key partitioned tables whose bounds later writes widen."""
    from zoo import ordered

    from repro.exec import using_exec_mode

    db = repro.connect("prop-skip", default=False)
    db.create_table("t", rows=rows, partition_by=layout)
    for key, row in writes:  # widen (never narrow) the segments' bounds
        if row is not None:
            db.t[key] = row
        elif key in db.t:
            del db.t[key]
    scanned = {
        key
        for batch in db.t.iter_columnar_batches(zone_predicate=pred)
        for key in batch.keys
    }
    table = db.engine.table("t")
    for key, data in table.scan_at(db.manager.now()):
        if key not in scanned:
            assert not pred(data, key=key), (key, data, pred.to_source())
    expr = fql.filter(db.t, pred)
    with using_exec_mode("batch"):
        batched = ordered(expr)
    with using_exec_mode("naive"):
        assert batched == ordered(expr), pred.to_source()
    db.close()


# -- join ≡ naive over hostile join columns ------------------------------------

#: Join values that test the build dict's equality: NaN (one shared
#: object, and one of its own per draw), None, bools beside ints, 1.0
#: beside 1, 2⁶⁰, strings beside ints, and lists and 1-tuples, which a
#: key lookup spells the way ``normalize_key`` does. A missing ``j`` is
#: an undefined join value.
join_values = st.one_of(
    st.integers(0, 3),
    st.sampled_from([2**60, 1.0, 2.5, _NAN, "1", "a", None]),
    st.builds(float, st.just("nan")),
    st.booleans(),
    st.lists(st.integers(0, 3), max_size=2),
    st.tuples(st.integers(0, 3)),
)

join_tables = st.dictionaries(
    st.sampled_from([0, 1, 2, 3, 2**60]),
    st.dictionaries(st.sampled_from(["j", "x"]), join_values, max_size=2),
    max_size=6,
)


def _join_outcome(expr, mode):
    """Keys and rows, spelled with ``repr`` (types and NaN compare), or
    the error type the enumeration raised."""
    from repro.exec import using_exec_mode

    with using_exec_mode(mode):
        try:
            return (
                repr(list(expr.keys())),
                repr([(k, dict(v.items())) for k, v in expr.items()]),
            )
        except TypeError as exc:  # an unhashable join value
            return type(exc).__name__


@settings(max_examples=150, deadline=None)
@given(
    join_tables,
    join_tables,
    st.sampled_from(
        [("l.j", "r.j"), ("l.j", "r.__key__"), ("l.__key__", "r.j")]
    ),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, hash_partition(None, 2), hash_partition("j", 2)]),
    st.booleans(),
    st.booleans(),
)
@example(  # lists and 1-tuples probe a key as normalize_key spells them
    left={0: {"j": [1]}, 1: {"j": (2,)}, 2: {"j": True}, 3: {"j": 1.0}},
    right={1: {"j": 1}, 2: {"x": "b"}}, edge=("l.j", "r.__key__"),
    flip=False, swap=False, layout=None, open_txn=False, renamed=False,
)
def test_a_two_atom_join_equals_naive(
    left, right, edge, flip, swap, layout, open_txn, renamed
):
    """A two-atom equi-join enumerates exactly what the naive join does,
    in its order and with its key and value types, in either edge
    orientation, with either atom probing, over flat and partitioned
    tables, on committed data and inside an open transaction, and with
    an atom whose batches are entries (a rename) rather than rows."""
    db = repro.connect("prop-join", default=False)
    db.create_table("l", rows=left, partition_by=layout)
    db.create_table("r", rows=right, partition_by=layout)
    atoms = {"l": fql.rename(db.l, x="y") if renamed else db.l, "r": db.r}
    sub = database({name: atoms[name] for name in sorted(atoms, reverse=swap)})
    expr = fql.join(sub, on=[list(edge[::-1] if flip else edge)])
    txn = db.begin() if open_txn else None
    try:
        if txn is not None:
            db.r[1] = {"j": 1, "x": "buffered"}
        assert _join_outcome(expr, "batch") == _join_outcome(expr, "naive")
    finally:
        if txn is not None:
            txn.rollback()
        db.close()
