"""The wire encoder against its definition.

``encode_value`` drains an enumerable result once through the executor
(:func:`repro.exec.route_batches`) and never re-applies the function per
key. Its definition is still the per-key reading — ``keys()``, then
``fn(key)`` for each key, recursively — so this suite builds that
envelope by hand (:func:`oracle`) and holds the encoder to it byte for
byte, as JSON: every graph of the operator zoo over its hostile rows
(plus nested functions), under the naive, batched and force-offloaded
modes, on flat and hash-partitioned tables, and inside an open
transaction whose buffered writes the dump must show. A relation's
rows travel as column blocks, so a table of several column batches,
with a shape change and a nested row partway through, must give the
oracle's bytes on every path too; a page limit cuts inside a block, and
an image derives its row shapes once. Then: a page limit truncates and
reports one query; decoding round-trips, exactly to the type, through
one reply that mixes every row form and through stored relations of
hostile values; names that collide under ``str``
are never merged; and a cached aggregate is never rescanned per group.
"""

import json
import math
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

import zoo

import repro as fql
from repro._util import MISSING, TOMBSTONE
from repro.compile import set_offload_mode, using_offload_mode
from repro.errors import ProtocolError
from repro.exec import (
    COLUMNAR_BATCH_SIZE,
    ColumnBatch,
    route_batches,
    set_exec_mode,
    using_exec_mode,
)
from repro.fdm import FDMFunction
from repro.fdm.relations import MaterialRelationFunction
from repro.fdm.tuples import TupleFunction
from repro.fql.group import GroupedDatabaseFunction
from repro.obs.resources import reset_resources
from repro.partition import hash_partition
from repro.relational.nulls import is_null
from repro.server.protocol import decode_value, encode_key, encode_value
from repro.server.session import Session

#: (executor mode, offload mode) — every physical path a reply can take
MODES = [("naive", "off"), ("batch", "off"), ("batch", "force")]


#: What JSON carries as itself (exact types).
SCALARS = (type(None), bool, int, float, str)


def _is_tuple(value):
    return (
        isinstance(value, FDMFunction)
        and value.kind == "tuple"
        and value.is_enumerable
    )


def oracle(value, max_rows=None, depth=0):
    """The envelope by definition: per-key application, recursively. A
    relation's rows (a tuple function flattened to its dict) go out in
    blocks, each a maximal run of consecutive rows of one shape: rows of
    JSON scalars under ``int``/``str`` names as ``[shape, keys,
    *columns]``, shapes numbered in first-seen order; any other value,
    the empty row included, as ``[-1, keys, envelopes]``."""
    if depth > 16:
        raise ProtocolError("result nesting exceeds the protocol depth cap")
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if value is MISSING or value is TOMBSTONE:
        return {"@": "missing"}
    if is_null(value):
        return None
    if isinstance(value, dict) or _is_tuple(value):
        attrs = {
            str(a): oracle(v, max_rows, depth + 1) for a, v in value.items()
        }
        if len(attrs) < len(value):
            raise ProtocolError("attribute names collide as strings")
        return {"@": "tuple", "attrs": attrs}
    if isinstance(value, FDMFunction) and value.is_enumerable:
        envelope = {"@": "relation", "kind": value.kind, "name": value.name}
        shapes = envelope["shapes"] = []
        blocks = envelope["blocks"] = []
        count = 0
        for key in value.keys():
            if max_rows is not None and count >= max_rows:
                envelope["truncated"] = True
                break
            count += 1
            value_at = value(key)
            if _is_tuple(value_at):
                value_at = dict(value_at.items())
            names = list(value_at) if isinstance(value_at, dict) else []
            if (
                depth + 1 < 16
                and names
                and all(type(a) in (int, str) for a in names)
                and all(type(v) in SCALARS for v in value_at.values())
            ):
                if names not in shapes:
                    shapes.append(names)
                shape, cells = shapes.index(names), list(value_at.values())
            else:
                shape, cells = -1, [oracle(value_at, max_rows, depth + 1)]
            if not blocks or blocks[-1][0] != shape:
                blocks.append([shape, [], *([] for _ in cells)])
            blocks[-1][1].append(encode_key(key))
            for column, cell in zip(blocks[-1][2:], cells):
                column.append(cell)
        return envelope
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [oracle(v, max_rows, depth + 1) for v in value]
        return {"@": "list", "items": items}
    return {"@": "repr", "type": type(value).__name__, "repr": repr(value)}


def keys_of(envelope):
    """A relation envelope's keys, in reply order, across its blocks."""
    return [key for block in envelope["blocks"] for key in block[1]]


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
            reply = encode_value(snapshot)
            assert reply["shapes"] == [["a"]]
            assert reply["blocks"] == [[0, [i], [i]]]
            assert len(keys_of(encode_value(db.customers))) == 96
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
        rows = decode_value(encode_value(db.customers))
        txn.rollback()
    assert rows[1000]["name"] == "new"
    assert rows[2]["name"] == "changed"
    assert 3 not in rows
    assert 1000 not in decode_value(encode_value(db.customers))


@pytest.mark.parametrize("max_rows", [0, 1, 5, 95, 96, 200])
def test_max_rows_truncates_like_the_oracle(max_rows, db):
    for name in ("filter_lt", "agg", "group", "order_limit"):
        build = zoo.ZOO[name]
        with using_exec_mode("naive"):
            expected = wire(oracle(build(db), max_rows))
        for mode, got in _encoded(build, db, max_rows=max_rows).items():
            assert got == expected, f"{name} max_rows={max_rows} {mode}"
    dump = encode_value(db.customers, max_rows=max_rows)
    assert len(keys_of(dump)) == min(max_rows, 96)
    assert dump.get("truncated", False) == (max_rows < 96)


@pytest.mark.parametrize("offload", ["off", "force"])
def test_a_truncated_reply_is_one_query(offload):
    db = _open(f"encode-once-{offload}", partitioned=False)
    flt = fql.filter(db.customers, "age > 20")
    with using_exec_mode("batch"), using_offload_mode(offload):
        encode_value(flt)  # plan it
        reset_resources()  # forget the planning run's class
        db.set_slow_query_threshold(0.0)
        envelope = encode_value(flt, max_rows=3)
    assert envelope["truncated"] and len(keys_of(envelope)) == 3
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
    assert len(keys_of(json.loads(expected))) == 8


def test_a_served_aggregate_is_one_profiled_call_of_eight_rows(regions):
    session = Session(regions, 1)
    request = {
        "verb": "fql",
        "expr": "group_and_aggregate(by=['region'], n=Count(), "
                "input=db('customers'))",
    }
    with using_exec_mode("batch"), using_offload_mode("off"):
        assert session.handle(dict(request))["ok"]
        before = regions.workload_profile()
        response = session.handle(dict(request))
    assert len(keys_of(response["result"])) == 8
    after = regions.workload_profile()
    ((fp, cls),) = [
        (fp, cls) for fp, cls in after.items() if cls != before.get(fp)
    ]
    calls = cls["calls"] - before.get(fp, {}).get("calls", 0)
    rows = cls["rows"] - before.get(fp, {}).get("rows", 0)
    assert (calls, rows) == (1, 8)


def exact(value):
    """*value* with every scalar and name tagged by its type, so ``True``
    differs from ``1`` and ``1`` from ``"1"``; NaN compares equal."""
    if isinstance(value, FDMFunction) and value.is_enumerable:
        value = dict(value.items())
    if isinstance(value, dict):
        return {exact(k): exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(exact(v) for v in value)
    if isinstance(value, float) and math.isnan(value):
        return ("float", "NaN")
    return (type(value).__name__, value)


def _through_the_wire(value, **kwargs):
    return decode_value(json.loads(wire(encode_value(value, **kwargs))))


def test_names_that_collide_under_str_are_never_merged():
    """A shaped row carries ``1`` and ``"1"`` as two names; the tuple
    envelope, which keys by ``str``, refuses the pair instead of
    keeping one of them."""
    db = fql.connect("encode-collide", default=False)
    db.create_table("t", rows={7: {1: "a", "1": "b"}}, key_name="k")
    assert exact(_through_the_wire(db.t)) == exact({7: {1: "a", "1": "b"}})
    with pytest.raises(ProtocolError, match="collide"):
        _through_the_wire(db.t(7))
    db.close()


MIXED = {
    1: {"name": "a", "age": 30},
    2: {"name": "b"},  # "age" absent
    3: {},  # the empty row
    4: {"age": 31, "name": "c"},  # same names, another order
    5: {"name": "d", "age": 32},
    (6, "x"): {1: True, "1": 1, "@": "at"},
    7: {"big": 2**70, "nan": float("nan"), "none": None, "flag": True},
    8: {"big": -(2**70), "nan": 0.5, "none": "None", "flag": 1},
    9: {"members": MaterialRelationFunction({1: {"x": 1}, 2: {}})},
    10: {"name": "e", "age": 33},
}


@pytest.mark.parametrize("exec_name", ["naive", "batch"])
def test_one_reply_mixes_every_row_form(exec_name):
    db = fql.connect("encode-mixed", default=False)
    db.create_table("t", rows=MIXED, key_name="k")
    with using_exec_mode(exec_name):
        envelope = encode_value(db.t)
        assert wire(envelope) == wire(oracle(db.t))
        assert len(envelope["shapes"]) == 5
        assert sorted(
            block[0] >= 0 for block in envelope["blocks"] for _ in block[1]
        ) == [False] * 2 + [True] * 8  # the empty row and the nested one
        assert exact(_through_the_wire(db.t)) == exact(MIXED)
        for max_rows in (0, 4, 9):
            page = _through_the_wire(db.t, max_rows=max_rows)
            assert page.truncated
            assert exact(page) == exact(dict(list(MIXED.items())[:max_rows]))
    db.close()


_ZOO_VALUES = sorted(
    {repr(v): v for row in zoo.hostile_rows().values() for v in row.values()}
    .values(),
    key=repr,
)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.one_of(st.integers(-3, 40), st.tuples(st.integers(0, 2),
                                                 st.sampled_from("ab"))),
        st.dictionaries(
            st.sampled_from(["name", "age", "@", "1", 1, 0]),
            st.sampled_from(_ZOO_VALUES),
            max_size=4,
        ),
        max_size=12,
    )
)
def test_a_stored_relation_survives_the_wire(rows):
    db = fql.connect("encode-property", default=False)
    db.create_table("t", rows=rows, key_name="k")
    expected = {k: dict(v.items()) for k, v in db.t.items()}
    assert exact(_through_the_wire(db.t)) == exact(expected)
    db.close()


# ---------------------------------------------------------------------------
# Column blocks: cut from the image, the same bytes on every path
# ---------------------------------------------------------------------------


#: The first row of a long table's second column batch, and the row
#: holding a nested function partway through that batch.
SECOND_BATCH = COLUMNAR_BATCH_SIZE
NESTED_ROW = SECOND_BATCH + 676


def _long_rows(n=max(2600, SECOND_BATCH + 1576)):
    """Rows of one shape, with a run in another name order and a row
    holding a nested function partway through the second column batch."""
    rows = {i: {"a": i, "b": f"s{i}", "c": i % 7 == 0} for i in range(n)}
    for i in range(SECOND_BATCH + 476, SECOND_BATCH + 486):
        rows[i] = {"b": f"s{i}", "a": i, "c": None}
    rows[NESTED_ROW]["nested"] = MaterialRelationFunction({1: {"x": 1}})
    return rows


@pytest.mark.parametrize("partitioned", [False, True])
def test_a_long_table_is_the_same_bytes_on_every_path(partitioned):
    """Over several column batches, a shape change and a nested row
    partway through, every mode gives the oracle's bytes (a partitioned
    table enumerates in its own order, so it has its own oracle), and
    the reply decodes to the relation, in order."""
    db = fql.connect(f"encode-long-{partitioned}", default=False)
    db.create_table(
        "t", rows=_long_rows(), key_name="k",
        partition_by=hash_partition(None, 4) if partitioned else None,
    )
    graphs = {
        "dump": lambda d: d.t,
        "filter": lambda d: fql.filter(d.t, "a > 300"),
    }
    for name, build in graphs.items():
        with using_exec_mode("naive"):
            expected = wire(oracle(build(db)))
        for mode, got in _encoded(build, db).items():
            assert got == expected, f"{name} under {mode}"
        with using_exec_mode("batch"), using_offload_mode("off"):
            assert len(list(route_batches(build(db)))) >= 2
            decoded = decode_value(json.loads(expected))
            assert canon(decoded) == canon(build(db))
            assert list(decoded) == list(build(db).keys())
    envelope = json.loads(expected)
    assert len(envelope["shapes"]) == 2
    assert [block[1] for block in envelope["blocks"] if block[0] < 0] == [
        [NESTED_ROW]
    ]
    db.close()


def test_max_rows_cuts_inside_a_block(regions):
    """A page limit that falls mid-block (and mid-batch: 1 500 of 3 000
    rows of one shape) keeps exactly that many keys, marks the reply
    truncated, and meters that many result rows."""
    for i in range(400, 3000):
        regions.customers[i] = {"region": f"r{i % 8}", "age": 20 + i % 50}
    session = Session(regions, 1)
    request = {"verb": "fql", "expr": "db('customers')", "max_rows": 1500}
    with using_exec_mode("batch"), using_offload_mode("off"):
        before = regions.workload_profile()
        page = session.handle(dict(request))["result"]
    assert page["truncated"] and len(page["blocks"]) == 1
    assert page["blocks"][0][1] == list(range(1500))
    assert [len(column) for column in page["blocks"][0][2:]] == [1500] * 2
    ((fp, cls),) = [
        (fp, cls) for fp, cls in regions.workload_profile().items()
        if cls != before.get(fp)
    ]
    assert cls["rows"] - before.get(fp, {}).get("rows", 0) == 1500


def test_an_image_derives_its_row_shapes_once(regions, monkeypatch):
    from repro.server import protocol

    derived = []
    derive = protocol._wire_rows
    monkeypatch.setattr(
        protocol, "_wire_rows", lambda image: derived.append(1) or derive(image)
    )
    with using_exec_mode("batch"), using_offload_mode("off"):
        first = wire(encode_value(regions.customers))
        assert wire(encode_value(regions.customers)) == first
        assert derived == [1]
        regions.customers[7] = {"region": "r0", "age": 99}
        changed = wire(encode_value(regions.customers))
        assert wire(encode_value(regions.customers)) == changed != first
        assert derived == [1, 1]
