"""Shared fixtures for the benchmark harness.

Every experiment row in DESIGN.md §3 has one module here. Benchmarks use
pytest-benchmark (``make bench-smoke``, or
``pytest benchmarks -o python_files='bench_*.py'``); each test also
asserts the *shape* claims (result equality, NULL counts, who-wins
relations) so a passing run certifies semantics, not just timings.

Each run also records the perf trajectory: one ``BENCH_<module>.json``
per benchmark module (next to this file) holding per-test timing stats,
so future PRs can diff wall-clock against the committed baseline.
"""

from __future__ import annotations

import json
import pathlib
from collections import defaultdict

import pytest

from repro.exec import using_exec_mode
from repro.workloads import generate_banking, generate_retail

_BENCH_DIR = pathlib.Path(__file__).resolve().parent

RETAIL_SCALE = dict(
    n_customers=2000, n_products=200, n_orders=4000, skew=0.5, seed=42,
    order_coverage=0.8,
)
SMALL_SCALE = dict(
    n_customers=300, n_products=50, n_orders=600, skew=0.3, seed=42,
    order_coverage=0.8,
)


@pytest.fixture(scope="session")
def retail_data():
    return generate_retail(**RETAIL_SCALE)


@pytest.fixture(scope="session")
def small_retail_data():
    return generate_retail(**SMALL_SCALE)


@pytest.fixture(scope="session")
def fdm_retail(retail_data):
    return retail_data.to_fdm_database()


@pytest.fixture(scope="session")
def sql_retail(retail_data):
    return retail_data.to_sql_database()


@pytest.fixture(scope="session")
def stored_retail(retail_data):
    db = retail_data.to_stored_database(name="bench-retail")
    db.create_index("customers", "age", kind="sorted")
    db.create_index("customers", "state", kind="hash")
    return db


@pytest.fixture(scope="session")
def small_fdm_retail(small_retail_data):
    return small_retail_data.to_fdm_database()


@pytest.fixture(scope="session")
def small_sql_retail(small_retail_data):
    return small_retail_data.to_sql_database()


@pytest.fixture(scope="session")
def banking_data():
    return generate_banking(
        n_accounts=500, n_transfers=600, initial_balance=1000, seed=7
    )


@pytest.fixture
def exec_naive():
    """Force the per-key escape hatch (REPRO_EXEC=naive) for one test."""
    with using_exec_mode("naive"):
        yield


@pytest.fixture
def exec_batch():
    """Force the batched executor for one test."""
    with using_exec_mode("batch"):
        yield


# -- perf trajectory: BENCH_<module>.json per benchmark module ---------------


def _stat(stats, name, default=None):
    value = getattr(stats, name, default)
    return value


def pytest_sessionfinish(session, exitstatus):
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    by_module: dict[str, list] = defaultdict(list)
    for bench in bench_session.benchmarks:
        module = bench.fullname.split("::")[0]
        stem = pathlib.Path(module).stem
        if stem.startswith("bench_"):
            stem = stem[len("bench_"):]
        stats = bench.stats
        by_module[stem].append(
            {
                "name": bench.name,
                "group": bench.group,
                "mean_s": _stat(stats, "mean"),
                "stddev_s": _stat(stats, "stddev"),
                "min_s": _stat(stats, "min"),
                "max_s": _stat(stats, "max"),
                "rounds": _stat(stats, "rounds"),
                "extra_info": dict(bench.extra_info or {}),
            }
        )
    for stem, results in by_module.items():
        path = _BENCH_DIR / f"BENCH_{stem}.json"
        merged: dict[str, dict] = {}
        if path.exists():
            # a filtered run (-k) must not truncate the committed
            # baseline: update measured tests, keep the rest
            try:
                previous = json.loads(path.read_text())
                for old in previous["results"]:
                    merged[old["name"]] = old
            except (ValueError, KeyError):
                merged = {}
        for result in results:
            merged[result["name"]] = result
        payload = {
            "module": f"bench_{stem}",
            "results": sorted(merged.values(), key=lambda r: r["name"]),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
