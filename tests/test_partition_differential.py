"""Differential suite: partitioned ≡ unpartitioned ≡ naive.

The operator zoo runs over the same data stored several ways — hash on
``state``, range on ``age``, hash and range on the *key* — and every
layout must (a) reproduce the naive per-key interpretation of the same
database exactly, enumeration order included, and (b) produce the
result set of the unpartitioned database. A ragged copy of the data
(rows missing the partitioning attribute, values that do not compare
against range boundaries — both live in partition 0) holds the pruned
scans to the same standard. Transactional DML — commits,
partition-moving updates, deletes, rollbacks, open-transaction reads —
and re-partitioning interleave with queries in the second half,
including a concurrent writer thread against partitioned scans.

Pruning is certified by counts, never by wall-clock: the resource
meter's ``rows_scanned`` must equal the row count of exactly the
segments :func:`~repro.partition.surviving_partitions` keeps.
"""

import threading

import pytest

import zoo
from zoo import STATES, hostile_rows, region_rows
from zoo import canonical as _canon
from zoo import ordered as _ordered

import repro as fql
from repro.exec import explain, pipeline_for, using_exec_mode
from repro.fdm import values_equal
from repro.obs.resources import metered
from repro.partition import (
    hash_partition,
    range_partition,
    surviving_partitions,
)
from repro.predicates import parse_predicate

SCHEMES = {
    "hash2": lambda: hash_partition("state", 2),
    "hash4": lambda: hash_partition("state", 4),
    "hash8": lambda: hash_partition("state", 8),
    "range_age": lambda: range_partition("age", [30, 50, 70]),
    "hash_key": lambda: hash_partition(None, 4),
    "range_key": lambda: range_partition(None, [25, 50, 75]),
}


def _build_db(name, scheme=None, rows=None):
    rows = hostile_rows() if rows is None else rows
    db = fql.connect(name, default=False)
    if scheme is None:
        db["customers"] = rows
        db.engine.table("customers").key_name = "cid"
        db["regions"] = region_rows()
        db.engine.table("regions").key_name = "rid"
    else:
        db.create_table(
            "customers", rows=rows, key_name="cid", partition_by=scheme
        )
        db.create_table(
            "regions", rows=region_rows(), key_name="rid",
            partition_by=scheme if scheme.attr == "state" else None,
        )
    return db


def _naive(fn):
    with using_exec_mode("naive"):
        return _ordered(fn)


#: Entries whose results depend on enumeration order: First picks the
#: first-enumerated member, a limit cuts ties in enumeration order, and
#: Min/Max over a NaN-bearing column keep whichever of {NaN, value} the
#: fold saw first (NaN compares False both ways). Equal to the naive run
#: of the same database, but legitimately different between physical
#: layouts — the cross-database tests skip them.
CROSS_DB_SKIP = {
    "agg_first", "top", "order_limit", "order_desc_limit", "agg_sparse",
}


#: The shared corpus plus the shapes only this suite exercises:
#: holistic/order-sensitive aggregates and a join over two partitioned
#: atoms.
ZOO = {
    **zoo.ZOO,
    "agg_holistic": lambda db: fql.group_and_aggregate(
        by=["state"],
        ages=fql.Collect("age"),
        med=fql.Median("age"),
        uniq=fql.CountDistinct("age"),
        input=db.customers,
    ),
    "agg_first": lambda db: fql.group_and_aggregate(
        by=["state"], first=fql.First("name"), input=db.customers
    ),
    "agg_stddev": lambda db: fql.group_and_aggregate(
        by=["state"], sd=fql.StdDev("age"), input=db.customers
    ),
    "join_explicit": lambda db: fql.join(
        fql.subdatabase(db, relations=["customers", "regions"]),
        on=[["customers.state", "regions.state"]],
    ),
}


@pytest.fixture(scope="module")
def baseline_results():
    db = _build_db("diff-baseline")
    return {name: _canon(build(db)) for name, build in ZOO.items()}


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_operator_zoo_matches_unpartitioned(scheme_name, baseline_results):
    db = _build_db(f"diff-{scheme_name}", SCHEMES[scheme_name]())
    for name, build in ZOO.items():
        if name in CROSS_DB_SKIP:
            continue
        assert _canon(build(db)) == baseline_results[name], (
            f"{name} under {scheme_name} diverged from the flat layout"
        )


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_operator_zoo_matches_naive_in_order(scheme_name):
    db = _build_db(f"order-{scheme_name}", SCHEMES[scheme_name]())
    for name, build in ZOO.items():
        assert _ordered(build(db)) == _naive(build(db)), (
            f"{name} under {scheme_name} diverged from the naive run"
        )


# ---------------------------------------------------------------------------
# Partition 0: rows the scheme cannot place by value
# ---------------------------------------------------------------------------


def ragged_rows():
    """``hostile_rows`` with the partitioning attributes themselves made
    hostile: some rows define no ``state``/``age`` at all, and some ages
    are strings that do not compare against integer range boundaries."""
    rows = hostile_rows()
    for i, row in rows.items():
        if i % 9 == 0:
            del row["state"]
        if i % 10 == 0:
            del row["age"]
        elif i % 8 == 0:
            row["age"] = "unknown"
    return rows


#: Queries whose naive run is defined over the ragged data (nothing
#: projects a missing attribute or does arithmetic on a string age).
RAGGED = [
    name for name in sorted(zoo.ZOO)
    if name.startswith("filter_") and name != "filter_opaque"
] + ["group", "agg_over_filter", "union", "intersect", "minus"]


@pytest.mark.parametrize(
    "scheme_name", ["hash8", "range_age", "hash_key", "range_key"]
)
def test_ragged_rows_in_partition_zero(scheme_name):
    scheme = SCHEMES[scheme_name]()
    plain = _build_db(f"ragged-plain-{scheme_name}", rows=ragged_rows())
    part = _build_db(
        f"ragged-part-{scheme_name}", scheme, rows=ragged_rows()
    )
    if scheme.attr is not None:
        # every row the scheme could not place by value sits in segment 0
        table = part.engine.table("customers")
        homeless = {
            key for key, row in ragged_rows().items()
            if scheme.attr not in row
            or (scheme.attr == "age" and isinstance(row["age"], str))
        }
        assert homeless
        assert homeless <= set(table.keys_partition(0, 2**62))
    for name in RAGGED:
        build = zoo.ZOO[name]
        assert _ordered(build(part)) == _naive(build(part)), (
            f"{name} under {scheme_name}: ragged rows diverged from naive"
        )
        assert _canon(build(part)) == _canon(build(plain)), (
            f"{name} under {scheme_name}: ragged rows diverged from flat"
        )


# ---------------------------------------------------------------------------
# Pruning, certified by counts
# ---------------------------------------------------------------------------

MANY_STATES = STATES + ["FL", "OH", "GA", "NC", "MI", "NJ"]


def _big_rows(n=10_000):
    return {
        i: {
            "name": f"c{i}",
            "age": 18 + (i * 17) % 70,
            "state": MANY_STATES[i % len(MANY_STATES)],
        }
        for i in range(1, n + 1)
    }


@pytest.fixture(scope="module")
def big():
    flat = fql.connect("prune-flat", default=False)
    flat["customers"] = _big_rows()
    by_state = fql.connect("prune-state", default=False)
    by_state.create_table(
        "customers", rows=_big_rows(),
        partition_by=hash_partition("state", 8),
    )
    by_age = fql.connect("prune-age", default=False)
    by_age.create_table(
        "customers", rows=_big_rows(),
        partition_by=range_partition("age", [30, 50, 70]),
    )
    yield flat, by_state, by_age
    for db in (flat, by_state, by_age):
        db.close()


def _rows_scanned(db, expr):
    # pinned to the batched executor: CI also runs this file under
    # REPRO_EXEC=naive, where no scan node exists to count
    with using_exec_mode("batch"), metered(db.engine) as meter:
        keys = list(expr.keys())
    return meter.rows_scanned, keys


def _segment_rows(db, pids):
    table = db.engine.table("customers")
    counts = table.partition_counts(db.manager.now())
    return sum(counts[pid] for pid in pids)


def test_equality_filter_scans_exactly_one_segment(big):
    flat, by_state, _by_age = big
    scheme = by_state.engine.table("customers").scheme
    (ny_pid,) = scheme.partitions_for_eq("NY")
    expr = fql.filter(by_state.customers, state="NY")
    scanned, keys = _rows_scanned(by_state, expr)
    assert scanned == _segment_rows(by_state, [ny_pid]) < 10_000
    # one segment survives, so even the order matches the flat layout
    assert keys == list(fql.filter(flat.customers, state="NY").keys())
    with using_exec_mode("naive"):
        assert keys == list(expr.keys())
    physical = explain(expr).split("== physical pipeline ==")[1]
    scan_line = next(
        line for line in physical.splitlines()
        if line.lstrip().startswith("scan ")
    )
    assert "hash(state, 8)" in scan_line
    assert "scan 1/8 partitions, 7 pruned" in scan_line


def test_open_transaction_scans_every_segment(big):
    _flat, by_state, _by_age = big
    expr = fql.filter(by_state.customers, state="NY")
    committed = list(expr.keys())
    with by_state.transaction() as txn:
        by_state.customers[20_001] = {"name": "n", "age": 40, "state": "NY"}
        scanned, keys = _rows_scanned(by_state, expr)
        assert keys == committed + [20_001]  # buffered write visible
        assert scanned == 10_001  # chain-direct pruning is off in a txn
        txn.rollback()
    assert list(expr.keys()) == committed


PRUNABLE = {
    "state": [
        "state in ['TX', 'WA']",
        "state == 'CA' or state == 'NY'",
        "age > 25 and state == 'NY'",
        "state == 'NY' and state == 'CA'",
    ],
    "age": [
        "age < 40",
        "age >= 70",
        "age between 30 and 55",
        "age > 30 and age <= 45",
        "age < 30 or age >= 70",
    ],
}


@pytest.mark.parametrize(
    "attr, source",
    [(attr, src) for attr, sources in PRUNABLE.items() for src in sources],
)
def test_predicates_scan_exactly_the_surviving_partitions(big, attr, source):
    flat, by_state, by_age = big
    db = by_state if attr == "state" else by_age
    scheme = db.engine.table("customers").scheme
    surviving = surviving_partitions(scheme, parse_predicate(source))
    assert len(surviving) < scheme.n_partitions  # something is pruned
    expr = fql.filter(db.customers, source)
    scanned, keys = _rows_scanned(db, expr)
    assert scanned == _segment_rows(db, surviving)
    assert sorted(keys) == sorted(fql.filter(flat.customers, source).keys())
    with using_exec_mode("naive"):
        assert keys == list(expr.keys())


def test_substring_in_prunes_no_partition():
    """``s in 'abc'`` is substring matching: hashing the string's
    characters as if they were the elements would prune partitions
    holding ``'ab'`` and ``'bc'``."""
    db = fql.connect("prune-substring", default=False)
    values = ["ab", "x", "b", "bc", "zz", "a", "c", "abc"]
    db.create_table(
        "t", rows={i: {"s": v} for i, v in enumerate(values)},
        partition_by=hash_partition("s", 4),
    )
    expr = fql.filter(db.t, "s in $c", {"c": "abc"})
    assert sorted(expr.keys()) == [0, 2, 3, 5, 6, 7]
    with using_exec_mode("naive"):
        assert sorted(expr.keys()) == [0, 2, 3, 5, 6, 7]
    pred = parse_predicate("s in $c").bind({"c": "abc"})
    assert surviving_partitions(db.engine.table("t").scheme, pred) == {
        0, 1, 2, 3
    }
    db.close()


def test_opaque_predicate_scans_every_segment(big):
    flat, by_state, _by_age = big
    expr = fql.filter(lambda c: c.state == "NY", by_state.customers)
    scanned, keys = _rows_scanned(by_state, expr)
    assert scanned == 10_000
    assert keys == list(fql.filter(flat.customers, state="NY").keys())


# ---------------------------------------------------------------------------
# DML, transactions, rollbacks
# ---------------------------------------------------------------------------


def _dml_script(db):
    """Committed inserts, a partition-moving update, and a delete."""
    db.customers[1000] = {"name": "new", "age": 33, "state": "NY"}
    db.customers[2]["state"] = "WA"  # moves between hash partitions
    db.customers[2]["age"] = 75  # moves between range partitions
    del db.customers[3]


def _assert_parity(part, plain, context):
    for name, build in ZOO.items():
        assert _ordered(build(part)) == _naive(build(part)), (
            f"{name} diverged from naive {context}"
        )
        if name not in CROSS_DB_SKIP:
            assert _canon(build(part)) == _canon(build(plain)), (
                f"{name} diverged from the flat layout {context}"
            )


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_dml_keeps_parity(scheme_name):
    plain = _build_db(f"dml-plain-{scheme_name}")
    part = _build_db(f"dml-part-{scheme_name}", SCHEMES[scheme_name]())
    _dml_script(plain)
    _dml_script(part)
    _assert_parity(part, plain, f"after DML under {scheme_name}")


@pytest.mark.parametrize("scheme_name", ["hash4", "range_age", "hash_key"])
def test_open_transaction_reads_see_the_buffer(scheme_name):
    """Inside a transaction the scan must route around pruning: the
    buffer holds an insert into a pruned partition, a row moving
    between partitions, and a delete."""
    plain = _build_db(f"txn-plain-{scheme_name}")
    part = _build_db(f"txn-part-{scheme_name}", SCHEMES[scheme_name]())
    before = {name: _ordered(build(part)) for name, build in ZOO.items()}
    txn_plain, txn_part = plain.begin(), part.begin()
    try:
        _dml_script(plain)
        _dml_script(part)
        inside = dict(_canon(fql.filter(part.customers, state="NY")))
        assert "1000" in inside and "3" not in inside
        _assert_parity(part, plain, "inside an open transaction")
    finally:
        txn_part.rollback()
        txn_plain.rollback()
    for name, build in ZOO.items():
        assert _ordered(build(part)) == before[name], (
            f"{name} did not revert after rollback"
        )


def test_repartition_mid_history_keeps_parity():
    plain = _build_db("repart-plain")
    part = _build_db("repart-part")  # starts unpartitioned
    expr = fql.filter(part.customers, state="NY")
    for step, scheme in enumerate(
        [
            hash_partition("state", 4),
            hash_partition("state", 2),
            range_partition("age", [30, 50, 70]),
        ]
    ):
        held = pipeline_for(expr)  # lowered against the old layout
        part.partition_table("customers", scheme)
        # a plan held across the re-shard must not apply the old
        # layout's pruning to the new segments
        assert sorted(k for k, _ in held.iter_entries()) == sorted(
            fql.filter(plain.customers, state="NY").keys()
        )
        for db in (plain, part):
            db.customers[2000 + step] = {
                "name": f"s{step}", "age": 20 + 25 * step, "state": "NY",
            }
            db.customers[10 + step]["state"] = "TX"
            del db.customers[40 + step]
        _assert_parity(part, plain, f"after re-partition to {scheme!r}")
    # history survived the re-shards: an old snapshot still reads whole
    assert len(part.customers) == len(plain.customers)


def test_conflicting_writers_and_aborts():
    db = _build_db("conflict", hash_partition("state", 4))
    t1 = db.begin()
    db.customers[5]["age"] = 21
    t1.pause()
    t2 = db.begin()
    db.customers[5]["age"] = 22
    t2.commit()
    t1.resume()
    with pytest.raises(fql.errors.TransactionConflictError):
        t1.commit()
    # the aborted write never surfaces anywhere
    assert db.customers(5)("age") == 22
    assert dict(_canon(db.customers))[repr(5)]["age"] == 22


def test_open_txn_on_another_engine_is_visible_in_a_join():
    """A join over a partitioned atom and an atom of a *different*
    engine reads that engine's open transaction buffer too."""
    part = fql.connect("xdb-part", default=False)
    part.create_table(
        "orders",
        rows={i: {"state": STATES[i % len(STATES)], "qty": i}
              for i in range(1, 25)},
        key_name="oid",
        partition_by=hash_partition("state", 4),
    )
    other = fql.connect("xdb-other", default=False)
    other["regions"] = region_rows()
    other.engine.table("regions").key_name = "rid"
    db = fql.fdm.database(
        {"orders": part.orders, "regions": other.regions}, name="xdb"
    )
    expr = fql.join(db, on=[["orders.state", "regions.state"]])
    baseline = _canon(expr)
    txn = other.begin()
    try:
        rid = next(
            k for k, t in other.regions.items() if t("state") == "NY"
        )
        del other.regions[rid]
        inside = _canon(expr)  # buffered delete must be visible
        assert len(inside) < len(baseline)
    finally:
        txn.rollback()
    assert _canon(expr) == baseline


def test_concurrent_writer_thread_against_partitioned_scans():
    """A committing writer races segment-by-segment readers.

    Snapshot isolation still holds per read: every scanned row is a
    committed version, and the final scan agrees with the naive path.
    """
    db = _build_db("race", hash_partition("state", 4))
    stop = threading.Event()
    errors = []

    def writer():
        i = 0
        while not stop.is_set() and i < 300:
            i += 1
            try:
                key = (i % 60) + 1
                if key in db.customers:
                    db.customers[key]["state"] = STATES[i % len(STATES)]
                else:
                    db.customers[key] = {
                        "name": f"w{i}", "age": 20, "state": "NY"
                    }
            except fql.errors.TransactionConflictError:
                pass
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)
                return

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        for _ in range(40):
            rows = dict(fql.filter(db.customers, "age >= 18").items())
            for key, value in rows.items():
                assert value("state") in STATES  # never a torn row
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert not errors
    assert _ordered(db.customers) == _naive(db.customers)


def test_values_stay_extensionally_equal_across_paths():
    """Columnar scans yield row snapshots, the naive path BoundTuples —
    extensional equality is the contract."""
    db = _build_db("ext", hash_partition("state", 4))
    # the flag slice is NaN-free: values_equal is faithful equality,
    # under which NaN is (correctly) unequal to itself
    expr = fql.filter(db.customers, "flag == True")
    batched = dict(expr.items())
    with using_exec_mode("naive"):
        naive = dict(expr.items())
    assert set(batched) == set(naive)
    for key in batched:
        assert values_equal(batched[key], naive[key])
