"""Experiment W (DESIGN.md §11): the column-block relation reply.

The reply measured is the ``served_reads`` dump: the 1 000-row
``customers`` table of the repo benchmark's generator (five attributes
a row), encoded by :func:`repro.server.protocol.encode_value`. A
relation reply names each row shape once and sends each run of rows of
one shape as a block, ``[shape, [key, ...], [v1, ...], ..., [vn,
...]]``, cut from the table image's columns; the tuple form before
shapes sent ``[key, {"@": "tuple", "attrs": {...}}]``, every name in
every row. That form is rebuilt here by :func:`tuple_form` to measure
against.

Over a socket, a reply of at least ``PACK_MIN_ROWS`` rows carries its
typed columns packed in a binary tail of the frame instead of as JSON
values (DESIGN.md §11); that frame is measured too.

Asserted, as a count that no machine's speed can move: the block
reply's JSON is at most half the tuple form's bytes per row, and it
decodes to the table; the packed frame decodes to the table as well.
``BENCH_wire_reply.json`` also records the encode, ``json.dumps``,
``json.loads`` and decode cost in µs per row, and the packed frame's
bytes per row and its pack (``send_frame``), unpack (``recv_frame``)
and decode cost in µs per row (best of several runs), which are not
asserted.
"""

import json
import pathlib
import socket
import struct
import sys
import time

import pytest

import repro
from repro.exec import using_exec_mode
from repro.server.protocol import (
    decode_value,
    encode_key,
    encode_value,
    recv_frame,
    send_frame,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from bench_e2e import gen  # noqa: E402

N_ROWS = 1_000


def tuple_form(fn):
    """The relation envelope before shapes: one tuple envelope a row."""
    return {
        "@": "relation",
        "kind": fn.kind,
        "name": fn.name,
        "rows": [
            [encode_key(key), {"@": "tuple", "attrs": {
                str(attr): v for attr, v in row.items()}}]
            for key, row in fn.items()
        ],
    }


def _dumps(envelope) -> str:
    return json.dumps(envelope, separators=(",", ":"))


def _us_per_row(fn, *args, repeats: int = 7) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best / N_ROWS * 1e6


def _packed(envelope) -> tuple:
    """The reply's frame over a socketpair: what it decodes to, its bytes
    per row, and its pack, unpack and decode µs per row (best of
    several runs)."""
    payload = {"id": 1, "ok": True, "result": envelope}
    best = {"pack": float("inf"), "unpack": float("inf"), "decode": float("inf")}
    a, b = socket.socketpair()
    with a, b:
        for _ in range(7):
            start = time.perf_counter()
            send_frame(a, payload)
            sent = time.perf_counter()
            frame = recv_frame(b)
            received = time.perf_counter()
            decoded = decode_value(frame["result"])
            done = time.perf_counter()
            for name, took in (("pack", sent - start),
                               ("unpack", received - sent),
                               ("decode", done - received)):
                best[name] = min(best[name], took)
        send_frame(a, payload)
        (length,) = struct.unpack(">I", b.recv(4))
        size = length & ~(1 << 31)  # the top bit flags the packed tail
        assert length >> 31, "a 1 000-row dump travels packed"
        left = size
        while left:
            left -= len(b.recv(left))
    return decoded, {
        "packed_bytes_per_row": (4 + size) / N_ROWS,
        **{f"packed_{name}_us_per_row": took / N_ROWS * 1e6
           for name, took in best.items()},
    }


@pytest.fixture(scope="module")
def customers():
    db = repro.connect("bench-wire-reply", default=False)
    rows = gen.customers(1, N_ROWS)
    db.create_table("customers", rows, key_name="cid")
    yield db.customers, rows
    db.close()


@pytest.mark.benchmark(group="wire-reply")
def test_a_block_dump_is_half_the_tuple_form(benchmark, customers):
    dump, rows = customers
    with using_exec_mode("batch"):
        envelope = encode_value(dump)
        text = _dumps(envelope)
        received = json.loads(text)
        assert decode_value(received) == rows
        unpacked, packed = _packed(envelope)
        assert unpacked == rows
        blocked = len(text.encode("utf-8")) / N_ROWS
        tupled = len(_dumps(tuple_form(dump)).encode("utf-8")) / N_ROWS
        benchmark.extra_info.update(
            {
                "rows": N_ROWS,
                "shapes": len(envelope["shapes"]),
                "blocks": len(envelope["blocks"]),
                "bytes_per_row": blocked,
                "tuple_form_bytes_per_row": tupled,
                "encode_us_per_row": _us_per_row(encode_value, dump),
                "dumps_us_per_row": _us_per_row(_dumps, envelope),
                "loads_us_per_row": _us_per_row(json.loads, text),
                "decode_us_per_row": _us_per_row(decode_value, received),
                **packed,
            }
        )
        benchmark(encode_value, dump)
    assert blocked * 2 <= tupled, (
        f"a row in a block takes {blocked:.1f} bytes, more than half the tuple "
        f"form's {tupled:.1f}"
    )
