"""Packed reply frames (DESIGN.md §11).

A reply whose relation holds a column block of at least
``PACK_MIN_ROWS`` rows sends the block's typed columns as a binary tail
of the same frame. This suite holds that form to the all-JSON one:

* every frame without a packed column is byte for byte the plain JSON
  frame — requests, pushes, ``WAL_BATCH`` and small replies;
* hostile columns decode ``repr``-equal to the all-JSON path and to the
  in-process enumeration, under each kernel backend (and without numpy
  in the CI job that has none): bools, ints at and past the int64
  edge, ``-0.0``, NaN and the infinities bit for bit, ``None``,
  MISSING, strings holding ``\\x00`` or a lone surrogate, mixed shapes,
  an empty relation, a truncated page and nested relations;
* a seeded fuzz of damaged frames raises only ``ProtocolError`` or
  ``ConnectionClosedError``, and never allocates past ``MAX_FRAME``.
"""

import json
import math
import random
import socket
import struct
import tracemalloc

import pytest

import repro as fql
import repro.client
import repro.server
from repro.errors import ConnectionClosedError, ProtocolError
from repro.exec import using_exec_mode
from repro.exec.kernels import HAVE_NUMPY, using_kernel_backend
from repro.server import protocol
from repro.server.protocol import (
    PACK_MIN_ROWS,
    decode_value,
    encode_value,
    recv_frame,
    send_frame,
)

KERNELS = ["numpy", "python"] if HAVE_NUMPY else ["python"]
N = PACK_MIN_ROWS + 36  # rows in one long block


def framed(payload):
    """The bytes :func:`send_frame` writes for *payload*."""
    a, b = socket.socketpair()
    with a, b:
        send_frame(a, payload)
        a.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := b.recv(1 << 16):
            chunks.append(chunk)
    return b"".join(chunks)


def received(raw):
    """What :func:`recv_frame` makes of the bytes *raw*."""
    a, b = socket.socketpair()
    with a, b:
        a.sendall(raw)
        a.shutdown(socket.SHUT_WR)
        return recv_frame(b)


def plain(payload):
    """The all-JSON frame of *payload*."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return struct.pack(">I", len(body)) + body


def head_of(raw):
    """``(head, tail)`` of a packed frame."""
    (length,) = struct.unpack(">I", raw[:4])
    assert length >> 31 and len(raw) == 4 + (length & ~(1 << 31))
    (size,) = struct.unpack(">I", raw[4:8])
    return json.loads(raw[8:8 + size]), raw[8 + size:]


def markers(raw):
    """Per block, the code of each packed column (``None``: JSON)."""
    head, _tail = head_of(raw)
    return [
        [c["@"] if isinstance(c, dict) else None for c in block[1:]]
        for block in head["result"]["blocks"]
    ]


def reply(value, **kwargs):
    return {"id": 1, "ok": True, "result": encode_value(value, **kwargs)}


@pytest.fixture(params=KERNELS)
def kernel(request):
    with using_kernel_backend(request.param), using_exec_mode("batch"):
        yield request.param


# ---------------------------------------------------------------------------
# Frames with nothing to pack are today's frames
# ---------------------------------------------------------------------------


def test_frames_without_a_packed_column_are_plain_json(kernel):
    db = fql.connect("pack-plain", default=False)
    db.create_table("t", {i: {"a": i, "s": f"s{i}"} for i in range(N)}, key_name="k")
    db.create_table("u", {(i, "x"): {"flag": i % 2 == 0, "none": None}
                          for i in range(N)}, key_name="k")
    small = fql.filter(db.t, f"a < {PACK_MIN_ROWS - 1}")
    payloads = [
        {"id": 3, "verb": "fql", "expr": "db('t')", "params": {}, "max_rows": None},
        {"push": "delta", "sid": 1, "name": "v",
         "changes": [[1, {"@": "missing"}, {"@": "tuple", "attrs": {"a": 1}}]]},
        {"push": "wal_batch", "records": [{"ts": 4, "rows": [[1, {"a": 1}]]}],
         "leader_ts": 4, "epoch": 1, "commit_wall": 1.5},
        reply(small),  # one column short of packing
        reply(db.u),  # long, but tuple keys, bools and None
        reply(db.t(3)),
        {"id": None, "ok": False, "error": {"type": "ProtocolError", "message": "x"}},
    ]
    for payload in payloads:
        assert framed(payload) == plain(payload)
        assert received(plain(payload)) == json.loads(json.dumps(payload))
    db.close()


# ---------------------------------------------------------------------------
# Exactness: hostile columns
# ---------------------------------------------------------------------------


def hostile(n=N):
    """Columns that pack next to ones that never do, in long runs of two
    shapes and a short run of a third."""
    floats = [-0.0, math.nan, math.inf, -math.inf, 1.5, 0.0, 1e-310]
    rows = {}
    for i in range(n):
        rows[i] = {
            "flag": i % 3 == 0,  # bool: never packs
            "edge": (2**63 - 1) * (-1) ** i,  # int64 both ends: i64
            "past": 2**63 + i,  # past int64: JSON
            "f": floats[i % len(floats)],  # f64, bit for bit
            "none": None,  # JSON
            "mixed": i if i % 2 else float(i),  # JSON
            "nul": f"a\x00{i}",  # holds the separator: JSON
            "lone": "\ud800" if i == 5 else "ok",  # a lone surrogate: JSON
            "s": ["", "é", "🦆", f"x{i}"][i % 4],  # utf8
        }
    for i in range(n, 2 * n):  # another shape: "flag" is MISSING here
        rows[i] = {"edge": -i, "s": f"t{i}"}
    for i in range(2 * n, 2 * n + 3):  # a run too short to pack
        rows[i] = {"edge": i}
    return rows


def _exact(value):
    """``repr`` that tells the float bits apart (NaN payload, -0.0)."""
    if isinstance(value, dict):
        return {_exact(k): _exact(v) for k, v in value.items()}
    if isinstance(value, float):
        return ("float", struct.pack("<d", value).hex())
    return value


def test_hostile_columns_decode_exactly(kernel):
    db = fql.connect("pack-hostile", default=False)
    rows = hostile()
    db.create_table("t", rows, key_name="k")
    payload = reply(db.t)
    raw = framed(payload)
    assert markers(raw) == [
        ["q", None, "q", None, "d", None, None, None, None, "s"],
        ["q", "q", "s"],
        [None, None],
    ]
    got = decode_value(received(raw)["result"])
    by_json = decode_value(received(plain(payload))["result"])
    assert repr(_exact(got)) == repr(_exact(by_json))
    assert repr(_exact(got)) == repr(_exact({k: dict(v.items()) for k, v in db.t.items()}))
    assert repr(_exact(got)) == repr(_exact(rows))
    db.close()


def test_a_packed_page_is_the_json_page(kernel):
    db = fql.connect("pack-page", default=False)
    db.create_table("t", hostile(), key_name="k")
    for max_rows in (0, PACK_MIN_ROWS - 1, PACK_MIN_ROWS, N + 5, 3 * N):
        payload = reply(db.t, max_rows=max_rows)
        got = decode_value(received(framed(payload))["result"])
        by_json = decode_value(json.loads(json.dumps(payload))["result"])
        assert repr(_exact(got)) == repr(_exact(by_json))
        assert got.truncated == by_json.truncated == (max_rows < 2 * N + 3)
    db.close()


def test_empty_grouped_and_nested_relations(kernel):
    db = fql.connect("pack-nested", default=False)
    db.create_table("t", {i: {"g": i % 3, "v": i} for i in range(3 * N)}, key_name="k")
    db.create_table("e", {}, key_name="k")
    grouped = fql.group(by=["g"], input=db.t)
    for value in (db.e, grouped, fql.relation({1: {"x": 1}, 2: grouped})):
        payload = reply(value)
        raw = framed(payload)
        assert raw == plain(payload)  # nested relations never pack
        got = decode_value(received(raw)["result"])
        assert repr(got) == repr(decode_value(json.loads(json.dumps(payload))["result"]))
    members = decode_value(received(framed(reply(grouped)))["result"])
    assert {g: dict(m) for g, m in members.items()} == {
        g: {k: dict(v.items()) for k, v in m.items()} for g, m in grouped.items()
    }
    db.close()


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_a_served_dump_round_trips(kernel_name):
    db = fql.connect("pack-served", default=False)
    rows = hostile()
    db.create_table("t", rows, key_name="k")
    with using_kernel_backend(kernel_name), repro.server.serve(db, port=0) as srv:
        client = repro.client.connect(port=srv.port)
        try:
            got = client.fql("db('t')")
            assert repr(_exact(got)) == repr(_exact(rows))
            assert client.fql("db('t')(3)") == rows[3]
        finally:
            client.close()
    db.close()


# ---------------------------------------------------------------------------
# Damaged frames
# ---------------------------------------------------------------------------


def _packed_frame():
    """A packed frame of an ``i64`` and a ``utf8`` column, and its reply
    as the all-JSON frame decodes it."""
    db = fql.connect("pack-fuzz", default=False)
    db.create_table("t", {i: {"a": i, "s": f"s{i}"} for i in range(N)}, key_name="k")
    payload = reply(db.t)
    db.close()
    return framed(payload), json.loads(json.dumps(payload))


def build(head, tail, head_size=None):
    """A packed frame from a head dict and tail bytes."""
    text = json.dumps(head).encode()
    size = len(text) if head_size is None else head_size
    body = struct.pack(">I", size) + text + tail
    return struct.pack(">I", len(body) | 1 << 31) + body


def test_each_damage_is_a_protocol_error():
    raw, expected = _packed_frame()
    head, tail = head_of(raw)
    keys, a, s = head["result"]["blocks"][0][1:]
    assert (keys["@"], a["@"], s["@"]) == ("q", "q", "s")
    assert received(build(head, tail)) == expected

    def with_column(i, marker):
        damaged = json.loads(json.dumps(head))
        damaged["result"]["blocks"][0][i] = marker
        return damaged

    width = 8 * N
    cases = {
        "tail short": build(head, tail[:-1]),
        "tail long": build(head, tail + b"\x00"),
        "head past body": build(head, tail, head_size=10**6),
        "no head length": struct.pack(">I", 2 | 1 << 31) + b"{}",
        "width": build(with_column(2, {"@": "q", "n": width - 4}), tail[:-4]),
        "count": build(with_column(2, {"@": "q", "n": width - 8}), tail[:-8]),
        "negative": build(with_column(2, {"@": "q", "n": -8}), tail),
        "unknown code": build(with_column(2, {"@": "i", "n": width}), tail),
        "bad utf8": build(head, tail[:2 * width] + b"\xff" + tail[2 * width + 1:]),
        "utf8 count": build(head, tail[:2 * width] + tail[2 * width:].replace(
            b"\x00", b"-", 1)),
        "no result": build({"id": 1, "ok": True}, tail),
        "bad blocks": build({"result": {"blocks": 7}}, tail),
        "bad json": build(head, tail)[:12] + b"\xff" + build(head, tail)[13:],
    }
    for name, raw in cases.items():
        with pytest.raises(ProtocolError):
            received(raw)
            pytest.fail(name)
    with pytest.raises(ConnectionClosedError):
        received(build(head, tail)[:-1])


def test_a_seeded_fuzz_raises_only_protocol_errors(monkeypatch):
    """Truncations, appended bytes, byte flips and length rewrites of a
    packed frame either decode or raise ``ProtocolError`` /
    ``ConnectionClosedError``; no read allocates past ``MAX_FRAME``."""
    raw, _expected = _packed_frame()
    limit = 4 * len(raw)
    monkeypatch.setattr(protocol, "MAX_FRAME", limit)
    rng = random.Random(20261019)
    tracemalloc.start()
    try:
        for _ in range(400):
            damaged = bytearray(raw)
            kind = rng.randrange(4)
            if kind == 0:
                damaged = damaged[:rng.randrange(len(damaged))]
            elif kind == 1:
                damaged += bytes(rng.randrange(256) for _ in range(rng.randrange(1, 9)))
                damaged[0:4] = struct.pack(">I", (len(damaged) - 4) | 1 << 31)
            elif kind == 2:
                for _ in range(rng.randrange(1, 4)):
                    damaged[rng.randrange(len(damaged))] = rng.randrange(256)
            else:
                at = rng.choice([0, 4])
                damaged[at:at + 4] = struct.pack(">I", rng.randrange(1 << 32))
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                received(bytes(damaged))
            except (ProtocolError, ConnectionClosedError):
                pass
            assert tracemalloc.get_traced_memory()[1] - base < limit + 64 * len(raw)
    finally:
        tracemalloc.stop()
