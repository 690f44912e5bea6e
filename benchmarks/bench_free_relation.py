"""Experiment R (DESIGN.md §4): a free-standing relation is a one-segment
table.

``relation(rows)`` owns one flat table, so a scan over it serves the
segment's cached column image exactly as a stored table's scan does.
Asserted, as a same-run ratio over 30 000 three-attribute rows: a
selective filter and a ``group_and_aggregate`` over the free-standing
relation each cost at most twice the same query over the same rows
stored (medians of interleaved runs). ``BENCH_free_relation.json`` also
records, without asserting, a one-row free-standing upsert (p50 µs),
``relation(30 000 rows)``, ``fql.group`` of 30 000 rows into 2 000
groups and ``fql.copy`` of 30 000 rows (median ms).
"""

import random
import statistics
import time

import pytest

import repro
from repro import fql
from repro.exec import using_exec_mode

N_ROWS = 30_000
RATIO_BOUND = 2.0


def _rows():
    rng = random.Random(7)
    return {
        i: {"a": rng.randrange(1000), "b": rng.random(), "c": f"s{rng.randrange(50)}"}
        for i in range(N_ROWS)
    }


def _ms(fn, runs: int) -> list:
    out = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        out.append((time.perf_counter() - start) * 1e3)
    return out


QUERIES = {
    "filter": lambda r: sum(1 for _ in fql.filter(r, a__gt=970).items()),
    "group_and_aggregate": lambda r: list(fql.group_and_aggregate(
        by=["c"], n=fql.Count(), total=fql.Sum("a"), input=r
    ).items()),
}


@pytest.fixture(scope="module")
def both():
    rows = _rows()
    db = repro.connect("bench-free-relation", default=False)
    db["t"] = rows
    yield rows, repro.relation(rows, name="t"), db.t
    db.close()


@pytest.mark.benchmark(group="free-relation")
def test_a_free_relation_scans_like_a_stored_table(benchmark, both):
    rows, free, stored = both
    info = {"rows": N_ROWS}
    with using_exec_mode("batch"):
        for name, query in QUERIES.items():
            assert query(free) == query(stored)
            times = {"free": [], "stored": []}
            for _ in range(15):  # interleaved: drift hits both alike
                times["free"] += _ms(lambda: query(free), 1)  # noqa: B023
                times["stored"] += _ms(lambda: query(stored), 1)  # noqa: B023
            medians = {k: statistics.median(v) for k, v in times.items()}
            info[f"{name}_free_ms"] = medians["free"]
            info[f"{name}_stored_ms"] = medians["stored"]
            info[f"{name}_ratio"] = medians["free"] / medians["stored"]

        rel = repro.relation(rows, name="u")
        upserts = []
        for i in range(2000):
            start = time.perf_counter()
            rel[i % 500] = {"a": i, "b": 0.5, "c": "x"}
            upserts.append((time.perf_counter() - start) * 1e6)
        info["upsert_p50_us"] = statistics.median(upserts)
        info["relation_30k_ms"] = statistics.median(
            _ms(lambda: repro.relation(rows), 5)
        )
        grouped = repro.relation(
            {i: {**row, "g": i % 2000} for i, row in rows.items()}, name="g"
        )
        info["group_30k_into_2000_ms"] = statistics.median(
            _ms(lambda: list(fql.group(grouped, by="g").items()), 5)
        )
        info["copy_30k_ms"] = statistics.median(_ms(lambda: fql.copy(free), 5))
        benchmark.extra_info.update(info)
        benchmark(QUERIES["filter"], free)
    for name in QUERIES:
        assert info[f"{name}_ratio"] <= RATIO_BOUND, (
            f"{name} over a free-standing relation took "
            f"{info[f'{name}_free_ms']:.2f} ms, more than {RATIO_BOUND}x the "
            f"stored table's {info[f'{name}_stored_ms']:.2f} ms"
        )
