"""Differential suite: columnar kernels ≡ the naive interpreter.

The operator zoo runs under both kernel backends (``REPRO_KERNEL``:
numpy vs pure python) over a flat, a hash-partitioned and a
free-standing (``relation(...)``, no database engine) copy of the same
data, and each must reproduce the naive per-key interpretation
*exactly*: same keys, same enumeration order, extensionally equal
values. The data deliberately includes the value shapes that make
vectorization treacherous: missing attributes, None, NaN, booleans
(``True == 1``), mixed numeric/string columns, and integers beyond the
float64-exact range.
"""

import re

import pytest

from zoo import ZOO, hostile_rows, region_rows
from zoo import ordered as _ordered

import repro as fql
from repro.exec import (
    kernel_backend,
    set_kernel_backend,
    using_exec_mode,
    using_kernel_backend,
)
from repro.exec.kernels import HAVE_NUMPY
from repro.fdm import database, relation
from repro.partition import hash_partition


@pytest.fixture(scope="module")
def flat_db():
    db = fql.connect("columnar-flat", default=False)
    db["customers"] = hostile_rows()
    db["regions"] = region_rows()
    yield db
    db.close()


@pytest.fixture(scope="module")
def part_db():
    db = fql.connect("columnar-part", default=False)
    for name, rows in (("customers", hostile_rows()), ("regions", region_rows())):
        db.create_table(name, rows=rows, partition_by=hash_partition("state", 4))
    yield db
    db.close()


@pytest.fixture(scope="module")
def free_db():
    return database({
        "customers": relation(hostile_rows(), name="customers"),
        "regions": relation(region_rows(), name="regions"),
    })


def _baseline(build, db):
    with using_exec_mode("naive"):
        return _ordered(build(db))


KERNELS = ["numpy", "python"] if HAVE_NUMPY else ["python"]


@pytest.mark.parametrize("layout", ["flat", "part", "free"])
@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_matrix(name, layout, flat_db, part_db, free_db):
    db = {"flat": flat_db, "part": part_db, "free": free_db}[layout]
    build = ZOO[name]
    expected = _baseline(build, db)
    for kernel in KERNELS:
        with using_kernel_backend(kernel):
            got = _ordered(build(db))
        assert got == expected, (
            f"{name}/{layout} diverged under kernel={kernel}"
        )


def test_zoo_matrix_inside_transaction(flat_db):
    """Columnar scans fall back on open transactions, same results."""
    db = flat_db
    expected = _baseline(ZOO["filter_range"], db)
    with db.transaction():
        assert _ordered(ZOO["filter_range"](db)) == expected


def test_kernel_backend_escape_hatch(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "python")
    assert kernel_backend() == "python"
    monkeypatch.delenv("REPRO_KERNEL")
    assert kernel_backend() == ("numpy" if HAVE_NUMPY else "python")
    set_kernel_backend("python")
    assert kernel_backend() == "python"
    set_kernel_backend(None)
    with pytest.raises(ValueError):
        set_kernel_backend("fortran")


def test_kernel_flip_without_replanning(flat_db):
    """REPRO_KERNEL is runtime dispatch: flipping it mid-stream between
    pulls of the *same* cached plan must not change results."""
    db = flat_db
    expr = fql.filter(db.customers, "age > 30")
    with using_kernel_backend("numpy" if HAVE_NUMPY else "python"):
        first = _ordered(expr)
    with using_kernel_backend("python"):
        second = _ordered(expr)
    assert first == second


def test_columnar_after_dml(flat_db):
    """Inserts/updates/deletes are visible to columnar scans at once."""
    db = fql.connect("columnar-dml", default=False)
    db["customers"] = hostile_rows()
    expr = fql.filter(db.customers, "age > 30")
    before = dict(_ordered(expr))
    db.customers[1000] = {"name": "new", "age": 99, "state": "NY"}
    after = dict(_ordered(expr))
    assert 1000 in after and 1000 not in before
    del db.customers[1000]
    assert 1000 not in dict(_ordered(expr))
    db.close()


#: Probe-side join columns against int build keys: the values each
#: column cycles through (``None``: the attribute is absent), and the
#: probe the numpy backend runs. ``True`` and ``1.0`` join ``1``, and
#: 2**63 is past int64, so those columns keep the dict probe.
HOSTILE_PROBES = {
    "negative": ([-3, -1, 0, 2, 5, -3, 7], "int kernel"),
    "bool": ([1, True, 2, False, 0], "dict"),
    "float": ([1, 1.0, 2, -2.0], "dict"),
    "absent": ([1, None, 2, -2, None], "int kernel"),
    "beyond_int64": ([1, 2**63, 3, -(2**63) - 1], "dict"),
    "str": (["1", "a", "-2", "x"], "dict"),
}


@pytest.mark.parametrize("layout", ["flat", "part"])
@pytest.mark.parametrize("case", sorted(HOSTILE_PROBES))
def test_join_probe_on_hostile_columns(case, layout):
    """A two-atom join probing an int-keyed build with a hostile column
    equals naive row for row, in order (``repr``, so ``True`` against
    ``1`` counts), under both kernels; explain names the probe that ran."""
    from repro.exec import explain
    from repro.fdm import database

    values, probe = HOSTILE_PROBES[case]
    rows = {}
    for i in range(60):
        value = values[i % len(values)]
        rows[i] = {"n": i} if value is None else {"n": i, "c": value}
    db = fql.connect(f"columnar-join-{case}-{layout}", default=False)
    scheme = hash_partition("n", 4) if layout == "part" else None
    db.create_table("orders", rows=rows, partition_by=scheme)
    db.create_table(
        "customers", rows={k: {"tier": k % 3} for k in range(-3, 8)}
    )
    joins = {
        "key": fql.join(
            database({"orders": db.orders, "customers": db.customers}),
            on=[["orders.c", "customers.__key__"]],
        ),
        "attr": fql.join(
            database({"orders": db.orders, "customers": db.customers}),
            on=[["orders.c", "customers.tier"]],
        ),
    }
    for on, expr in joins.items():
        expected = repr(_baseline(lambda _db: expr, db))
        for kernel in KERNELS:
            with using_kernel_backend(kernel):
                assert repr(_ordered(expr)) == expected, (case, on, kernel)
                lines = explain(expr).split("== batching ==")[1].splitlines()
            named = [line for line in lines if "join probe" in line]
            assert len(named) == 1
            ran = named[0].split("join probe orders ⋈ customers: ")[1]
            if kernel == "python":
                assert ran == "dict"
            elif layout == "flat":  # one segment, one batch
                int_kernel = "int kernel on 1 of 1 batches"
                assert ran == (int_kernel if probe == "int kernel" else "dict")
            elif probe == "int kernel":  # every segment holds exact ints
                assert re.fullmatch(r"int kernel on (\d+) of \1 batches", ran)
            # else a hostile value declines only the segments holding it
    db.close()
