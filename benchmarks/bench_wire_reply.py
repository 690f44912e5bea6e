"""Experiment W (DESIGN.md §11): the shaped relation reply.

The reply measured is the ``served_reads`` dump: the 1 000-row
``customers`` table of the repo benchmark's generator (five attributes
a row), encoded by :func:`repro.server.protocol.encode_value`. A
relation reply names each row shape once, so a row of scalars goes out
as ``[key, shape, v1, ..., vn]``; the tuple form it replaced sent
``[key, {"@": "tuple", "attrs": {...}}]``, every name in every row.
That form is rebuilt here by :func:`tuple_form` to measure against.

Asserted, as a count that no machine's speed can move: the shaped
reply's JSON is at most half the tuple form's bytes per row, and it
decodes to the table. ``BENCH_wire_reply.json`` also records the
encode, ``json.dumps``, ``json.loads`` and decode cost in µs per row
(best of several runs), which are not asserted.
"""

import json
import pathlib
import sys
import time

import pytest

import repro
from repro.exec import using_exec_mode
from repro.server.protocol import decode_value, encode_key, encode_value

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


@pytest.fixture(scope="module")
def customers():
    db = repro.connect("bench-wire-reply", default=False)
    rows = gen.customers(1, N_ROWS)
    db.create_table("customers", rows, key_name="cid")
    yield db.customers, rows
    db.close()


@pytest.mark.benchmark(group="wire-reply")
def test_a_shaped_dump_is_half_the_tuple_form(benchmark, customers):
    dump, rows = customers
    with using_exec_mode("batch"):
        envelope = encode_value(dump)
        text = _dumps(envelope)
        received = json.loads(text)
        assert decode_value(received) == rows
        shaped = len(text.encode("utf-8")) / N_ROWS
        tupled = len(_dumps(tuple_form(dump)).encode("utf-8")) / N_ROWS
        benchmark.extra_info.update(
            {
                "rows": N_ROWS,
                "shapes": len(envelope["shapes"]),
                "bytes_per_row": shaped,
                "tuple_form_bytes_per_row": tupled,
                "encode_us_per_row": _us_per_row(encode_value, dump),
                "dumps_us_per_row": _us_per_row(_dumps, envelope),
                "loads_us_per_row": _us_per_row(json.loads, text),
                "decode_us_per_row": _us_per_row(decode_value, received),
            }
        )
        benchmark(encode_value, dump)
    assert shaped * 2 <= tupled, (
        f"a shaped row takes {shaped:.1f} bytes, more than half the tuple "
        f"form's {tupled:.1f}"
    )
