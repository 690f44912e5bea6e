"""Differential suite: columnar kernels ≡ the naive interpreter.

The operator zoo runs under both kernel backends (``REPRO_KERNEL``:
numpy vs pure python) over a flat and a hash-partitioned copy of the
same data, and each must reproduce the naive per-key interpretation
*exactly*: same keys, same enumeration order, extensionally equal
values. The data deliberately includes the value shapes that make
vectorization treacherous: missing attributes, None, NaN, booleans
(``True == 1``), mixed numeric/string columns, and integers beyond the
float64-exact range.
"""

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


def _baseline(build, db):
    with using_exec_mode("naive"):
        return _ordered(build(db))


KERNELS = ["numpy", "python"] if HAVE_NUMPY else ["python"]


@pytest.mark.parametrize("layout", ["flat", "part"])
@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_matrix(name, layout, flat_db, part_db):
    db = flat_db if layout == "flat" else part_db
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
