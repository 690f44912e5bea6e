"""The wire encoder against its definition.

``encode_value`` drains an enumerable result once through the executor
(:func:`repro.exec.route_batches`) and never re-applies the function per
key. Its definition is still the per-key reading — ``keys()``, then
``fn(key)`` for each key, recursively — so this suite builds that
envelope by hand (:func:`oracle`) and holds the encoder to it byte for
byte, as JSON: every graph of the operator zoo over its hostile rows
(plus nested functions), under the naive, batched and force-offloaded
modes, on flat and hash-partitioned tables, and inside an open
transaction whose buffered writes the dump must show. Then: a page
limit truncates and reports one query; decoding round-trips; and a
cached aggregate is never rescanned per group.
"""

import json
import math
from itertools import chain

import pytest

import zoo

import repro as fql
from repro._util import MISSING, TOMBSTONE
from repro.compile import set_offload_mode, using_offload_mode
from repro.errors import ProtocolError
from repro.exec import (
    ColumnBatch,
    route_batches,
    set_exec_mode,
    using_exec_mode,
)
from repro.fdm import FDMFunction
from repro.fdm.relations import MaterialRelationFunction
from repro.fdm.tuples import TupleFunction
from repro.fql.group import GroupedDatabaseFunction
from repro.obs.workload import using_profile_mode
from repro.partition import hash_partition
from repro.relational.nulls import is_null
from repro.server.protocol import decode_value, encode_key, encode_value
from repro.server.session import Session

#: (executor mode, offload mode) — every physical path a reply can take
MODES = [("naive", "off"), ("batch", "off"), ("batch", "force")]


def oracle(value, max_rows=None, depth=0):
    """The envelope by definition: per-key application, recursively."""
    if depth > 16:
        raise ProtocolError("result nesting exceeds the protocol depth cap")
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if value is MISSING or value is TOMBSTONE:
        return {"@": "missing"}
    if is_null(value):
        return None
    if isinstance(value, dict) or (
        isinstance(value, FDMFunction)
        and value.kind == "tuple"
        and value.is_enumerable
    ):
        attrs = {
            str(a): oracle(v, max_rows, depth + 1) for a, v in value.items()
        }
        return {"@": "tuple", "attrs": attrs}
    if isinstance(value, FDMFunction) and value.is_enumerable:
        envelope = {"@": "relation", "kind": value.kind, "name": value.name}
        rows = envelope["rows"] = []
        for key in value.keys():
            if max_rows is not None and len(rows) >= max_rows:
                envelope["truncated"] = True
                break
            value_at = oracle(value(key), max_rows, depth + 1)
            rows.append([encode_key(key), value_at])
        return envelope
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [oracle(v, max_rows, depth + 1) for v in value]
        return {"@": "list", "items": items}
    return {"@": "repr", "type": type(value).__name__, "repr": repr(value)}


def wire(envelope):
    """What crosses the wire: JSON text (NaN included), key order kept."""
    return json.dumps(envelope, separators=(",", ":"))


def hostile_rows():
    """The zoo's rows plus attributes that hold nested functions."""
    rows = zoo.hostile_rows()
    for i, row in rows.items():
        if i % 23 == 0:
            row["nested"] = TupleFunction({"a": i, "b": float("nan")})
        if i % 29 == 0:
            row["members"] = MaterialRelationFunction({1: {"x": i}, 2: {}})
    return rows


def _open(name, partitioned):
    db = fql.connect(name, default=False)
    for table, rows, key_name in (
        ("customers", hostile_rows(), "cid"),
        ("regions", zoo.region_rows(), "rid"),
    ):
        db.create_table(
            table,
            rows=rows,
            key_name=key_name,
            partition_by=hash_partition("state", 4) if partitioned else None,
        )
    return db


@pytest.fixture(autouse=True)
def _reset_modes():
    set_exec_mode(None)
    set_offload_mode(None)
    yield
    set_exec_mode(None)
    set_offload_mode(None)


@pytest.fixture(scope="module", params=["flat", "part"])
def db(request):
    db = _open(f"encode-{request.param}", request.param == "part")
    yield db
    db.close()


def _encoded(build, db, modes=MODES, **kwargs):
    """``{mode: wire text}`` of a fresh graph's reply under each mode."""
    out = {}
    for exec_name, offload in modes:
        with using_exec_mode(exec_name), using_offload_mode(offload):
            out[exec_name, offload] = wire(encode_value(build(db), **kwargs))
    return out


@pytest.mark.parametrize("name", sorted(zoo.ZOO))
def test_encoder_matches_the_per_key_oracle(name, db):
    build = zoo.ZOO[name]
    with using_exec_mode("naive"):
        expected = wire(oracle(build(db)))
    for mode, got in _encoded(build, db).items():
        assert got == expected, f"{name} under {mode}"


def test_a_stored_nested_function_is_served_like_the_oracle(db):
    db.customers[500] = MaterialRelationFunction({1: {"deep": True}})
    try:
        with using_exec_mode("naive"):
            expected = wire(oracle(db.customers))
        for mode, got in _encoded(lambda d: d.customers, db).items():
            assert got == expected, mode
    finally:
        del db.customers[500]


def test_a_served_base_function_takes_no_plan_cache_entry(db):
    """A base function's plan is its scan: serving an in-memory one must
    not leave it pinned in the process-wide plan cache."""
    from repro.exec import cache_for, default_plan_cache

    caches = (default_plan_cache(), cache_for(db.customers))
    sizes = [len(cache) for cache in caches]
    with using_exec_mode("batch"):
        for i in range(3):
            snapshot = MaterialRelationFunction({i: {"a": i}})
            assert encode_value(snapshot)["rows"] == [
                [i, {"@": "tuple", "attrs": {"a": i}}]
            ]
            assert len(encode_value(db.customers)["rows"]) == 96
    assert [len(cache) for cache in caches] == sizes


def test_rows_json_cannot_carry_as_is_take_the_general_path():
    import enum

    from repro.relational.nulls import NULL

    class Level(enum.IntEnum):
        HIGH = 3

    rows = [
        {1: "int name", None: "none name", 2.5: "float name"},
        {"level": Level.HIGH, "gone": MISSING, "null": NULL},
        {"fn": TupleFunction({"a": [1, (2, 3)]}), "set": frozenset({4})},
    ]
    for row in rows:
        assert wire(encode_value(row)) == wire(oracle(row))
    deep = {"leaf": 1}
    for _ in range(16):
        deep = {"inner": deep}
    with pytest.raises(ProtocolError):
        oracle(deep)
    with pytest.raises(ProtocolError):
        encode_value(deep)
    assert wire(encode_value(deep["inner"])) == wire(oracle(deep["inner"]))


def test_an_open_transaction_serves_its_buffered_writes(db):
    views = {
        "dump": lambda d: d.customers,
        "filter": lambda d: fql.filter(d.customers, "age < 40"),
        "agg": zoo.ZOO["agg"],
    }
    with db.transaction() as txn:
        db.customers[1000] = {"name": "new", "age": 21, "state": "NY"}
        db.customers[2] = {"name": "changed", "age": 22, "state": "CA"}
        del db.customers[3]
        for name, build in views.items():
            with using_exec_mode("naive"):
                expected = wire(oracle(build(db)))
            for mode, got in _encoded(build, db).items():
                assert got == expected, f"{name} under {mode}"
        rows = dict(encode_value(db.customers)["rows"])
        txn.rollback()
    assert rows[1000]["attrs"]["name"] == "new"
    assert rows[2]["attrs"]["name"] == "changed"
    assert 3 not in rows
    assert 1000 not in dict(encode_value(db.customers)["rows"])


@pytest.mark.parametrize("max_rows", [0, 1, 5, 95, 96, 200])
def test_max_rows_truncates_like_the_oracle(max_rows, db):
    for name in ("filter_lt", "agg", "group", "order_limit"):
        build = zoo.ZOO[name]
        with using_exec_mode("naive"):
            expected = wire(oracle(build(db), max_rows))
        for mode, got in _encoded(build, db, max_rows=max_rows).items():
            assert got == expected, f"{name} max_rows={max_rows} {mode}"
    dump = encode_value(db.customers, max_rows=max_rows)
    assert len(dump["rows"]) == min(max_rows, 96)
    assert dump.get("truncated", False) == (max_rows < 96)


@pytest.mark.parametrize("offload", ["off", "force"])
def test_a_truncated_reply_is_one_query(offload):
    db = _open(f"encode-once-{offload}", partitioned=False)
    flt = fql.filter(db.customers, "age > 20")
    with using_exec_mode("batch"), using_offload_mode(offload):
        with using_profile_mode("off"):
            encode_value(flt)  # plan it unobserved
        db.set_slow_query_threshold(0.0)
        with using_profile_mode("on"):
            envelope = encode_value(flt, max_rows=3)
    assert envelope["truncated"] and len(envelope["rows"]) == 3
    (entry,) = db.slow_queries()
    (cls,) = db.workload_profile().values()
    assert cls["calls"] == 1 and cls["rows"] == entry.rows >= 3
    db.close()


def canon(value):
    """Plain, NaN-comparable structure of an FDM value or decoded reply."""
    if isinstance(value, FDMFunction) and value.is_enumerable:
        return {k: canon(v) for k, v in value.items()}
    if isinstance(value, dict):
        return {k: canon(v) for k, v in value.items()}
    if isinstance(value, list):
        return [canon(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return value


@pytest.mark.parametrize("name", sorted(zoo.ZOO))
def test_decode_inverts_encode(name, db):
    fn = zoo.ZOO[name](db)
    with using_exec_mode("batch"):
        assert canon(decode_value(encode_value(fn))) == canon(fn)
        # and through the wire text, as a client receives it
        received = json.loads(wire(encode_value(fn)))
        assert canon(decode_value(received)) == canon(fn)


@pytest.mark.parametrize("name", sorted(zoo.ZOO))
def test_batches_flatten_to_the_entry_stream(name, db):
    with using_exec_mode("batch"):
        fn = zoo.ZOO[name](db)
        batches = list(route_batches(fn))
        assert [canon(v) for _k, v in chain.from_iterable(batches)] == [
            canon(v) for _k, v in fn.items()
        ]
        assert all(
            isinstance(b, (ColumnBatch, list)) and len(b) for b in batches
        )


@pytest.fixture
def regions():
    db = fql.connect("encode-regions", default=False)
    db.create_table(
        "customers",
        {i: {"region": f"r{i % 8}", "age": 20 + i % 50} for i in range(400)},
        key_name="cid",
    )
    yield db
    db.close()


def test_encoding_a_cached_aggregate_never_rescans(regions, monkeypatch):
    calls = []
    scan = GroupedDatabaseFunction._scan
    monkeypatch.setattr(
        GroupedDatabaseFunction,
        "_scan",
        lambda self: calls.append(1) or scan(self),
    )
    agg = fql.group_and_aggregate(
        by=["region"], n=fql.Count(), total=fql.Sum("age"),
        input=regions("customers"),
    )
    with using_exec_mode("batch"), using_offload_mode("off"):
        expected = wire(encode_value(agg))  # plans it
        del calls[:]
        assert wire(encode_value(agg)) == expected
        assert calls == []
        with using_exec_mode("naive"):
            assert wire(oracle(agg)) == expected
        assert len(calls) >= 8  # the per-key reading rescans per group
    assert len(json.loads(expected)["rows"]) == 8


def test_a_served_aggregate_is_one_profiled_call_of_eight_rows(regions):
    session = Session(regions, 1)
    request = {
        "verb": "fql",
        "expr": "group_and_aggregate(by=['region'], n=Count(), "
                "input=db('customers'))",
    }
    with using_exec_mode("batch"), using_offload_mode("off"):
        with using_profile_mode("off"):
            assert session.handle(dict(request))["ok"]
        before = regions.workload_profile()
        with using_profile_mode("on"):
            response = session.handle(dict(request))
    assert len(response["result"]["rows"]) == 8
    after = regions.workload_profile()
    ((fp, cls),) = [
        (fp, cls) for fp, cls in after.items() if cls != before.get(fp)
    ]
    calls = cls["calls"] - before.get(fp, {}).get("calls", 0)
    rows = cls["rows"] - before.get(fp, {}).get("rows", 0)
    assert (calls, rows) == (1, 8)
