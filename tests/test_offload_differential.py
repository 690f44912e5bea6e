"""Differential suite: SQL offload ≡ batched executor ≡ naive.

The shared operator zoo (``tests/zoo.py``) runs over flat and
hash-partitioned copies of the hostile dataset under three physical
modes — naive per-key interpretation, the batched executor with
offloading disabled, and the batched executor with ``REPRO_OFFLOAD=
force`` — and every mode must produce the *same ordered enumeration*.
Shapes the SQL compiler declines (opaque predicates, callable sort
keys, NaN-poisoned aggregates, ...) silently take the batched fallback,
so the contract covers the decline machinery too: a wrong decline is a
wrong answer, not a skipped case.

The second half is a randomized cross-mode fuzzer: seeded random
function graphs (filters in every predicate shape, projections,
ordering, limits, grouped aggregates, set operations) over seeded
random hostile rows. Every failure message leads with the seed, and
``REPRO_FUZZ_SEED`` re-runs the whole corpus from any base seed, so a
red case reproduces with ``REPRO_FUZZ_SEED=<seed> pytest -k fuzz``.
"""

import os
import random

import pytest

import zoo

import repro as fql
from repro.compile import (
    offload_mode,
    offload_stats,
    set_offload_mode,
    using_offload_mode,
)
from repro.exec import set_exec_mode, using_exec_mode
from repro.partition import hash_partition


@pytest.fixture(autouse=True)
def _reset_modes():
    set_exec_mode(None)
    set_offload_mode(None)
    yield
    set_exec_mode(None)
    set_offload_mode(None)


@pytest.fixture(scope="module")
def flat_db():
    db = fql.connect("offload-flat", default=False)
    db["customers"] = zoo.hostile_rows()
    db["regions"] = zoo.region_rows()
    yield db
    db.close()


@pytest.fixture(scope="module")
def part_db():
    db = fql.connect("offload-part", default=False)
    for name, rows in (
        ("customers", zoo.hostile_rows()), ("regions", zoo.region_rows())
    ):
        db.create_table(
            name, rows=rows, partition_by=hash_partition("state", 4)
        )
    yield db
    db.close()


def _run(build, db, exec_mode_name, offload):
    with using_exec_mode(exec_mode_name), using_offload_mode(offload):
        return zoo.ordered(build(db))


@pytest.mark.parametrize("layout", ["flat", "part"])
@pytest.mark.parametrize("name", sorted(zoo.ZOO))
def test_zoo_three_modes_agree(name, layout, flat_db, part_db):
    db = flat_db if layout == "flat" else part_db
    build = zoo.ZOO[name]
    naive = _run(build, db, "naive", "off")
    batched = _run(build, db, "batch", "off")
    offloaded = _run(build, db, "batch", "force")
    assert batched == naive, f"{name}/{layout}: batched diverged from naive"
    assert offloaded == naive, f"{name}/{layout}: offload diverged from naive"


def test_force_mode_actually_offloads(flat_db):
    """The matrix above is vacuous if force mode never compiles: pin
    that a plainly compilable shape offloads rather than falling back."""
    before = offload_stats(flat_db._engine)["queries_offloaded"]
    with using_exec_mode("batch"), using_offload_mode("force"):
        list(fql.filter(flat_db.customers, "age > 40").items())
    after = offload_stats(flat_db._engine)["queries_offloaded"]
    assert after == before + 1


def _tenths_sum(db):
    build = lambda d: fql.group_and_aggregate(  # noqa: E731
        by=[], total=fql.Sum("m"), mean=fql.Avg("m"), input=d.t
    )
    return _run(build, db, "batch", "force"), _run(build, db, "naive", "off")


@pytest.fixture
def tenths_db():
    db = fql.connect("offload-tenths", default=False)
    db["t"] = {i: {"m": 0.1} for i in range(10)}
    yield db
    db.close()


def test_float_sum_is_the_python_fold(tenths_db):
    """Ten 0.1s fold to 0.9999999999999999 in Python; a compensated SQL
    SUM (SQLite ≥ 3.43) says 1.0, so the offload must decline there."""
    offloaded, naive = _tenths_sum(tenths_db)
    assert offloaded == naive


def test_float_sum_declines_on_compensating_sqlite(tenths_db, monkeypatch):
    import sqlite3

    monkeypatch.setattr(sqlite3, "sqlite_version_info", (3, 43, 0))
    before = offload_stats(tenths_db._engine)["fallback_reasons"]
    offloaded, naive = _tenths_sum(tenths_db)
    after = offload_stats(tenths_db._engine)["fallback_reasons"]
    assert offloaded == naive
    assert after.get("unsummable_column", 0) == before.get(
        "unsummable_column", 0
    ) + 1


def test_off_mode_never_offloads(flat_db):
    before = offload_stats(flat_db._engine)["queries_offloaded"]
    with using_exec_mode("batch"), using_offload_mode("off"):
        list(fql.filter(flat_db.customers, "age > 41").items())
    assert offload_stats(flat_db._engine)["queries_offloaded"] == before


def test_offload_mode_escape_hatch(monkeypatch):
    monkeypatch.delenv("REPRO_OFFLOAD", raising=False)
    assert offload_mode() == "auto"
    monkeypatch.setenv("REPRO_OFFLOAD", "off")
    assert offload_mode() == "off"
    monkeypatch.setenv("REPRO_OFFLOAD", "force")
    assert offload_mode() == "force"
    set_offload_mode("force")
    assert offload_mode() == "force"
    set_offload_mode(None)
    with pytest.raises(ValueError):
        set_offload_mode("sideways")


def test_plan_cache_keyed_by_offload_mode(flat_db):
    """One cached plan must not serve both modes: the same expression
    object re-enumerated under each mode stays correct."""
    expr = fql.filter(flat_db.customers, "age > 39")
    with using_exec_mode("batch"):
        with using_offload_mode("force"):
            forced = zoo.ordered(expr)
        with using_offload_mode("off"):
            plain = zoo.ordered(expr)
    assert forced == plain


# ---------------------------------------------------------------------------
# the randomized cross-mode fuzzer
# ---------------------------------------------------------------------------

BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260807"))
N_GRAPHS = 200

ATTRS = ["a", "b", "c", "d", "state"]
STATES = ["NY", "CA", "TX", "WA"]
COMPARE_OPS = ["==", "!=", "<", "<=", ">", ">="]


def _random_value(rng):
    """One hostile cell value."""
    kind = rng.randrange(9)
    if kind == 0:
        return rng.randrange(-50, 200)
    if kind == 1:
        return float(rng.randrange(-50, 200))
    if kind == 2:
        return float("nan")
    if kind == 3:
        return None
    if kind == 4:
        return rng.random() < 0.5
    if kind == 5:
        return zoo.BIG + rng.randrange(100)
    if kind == 6:
        return f"s{rng.randrange(20)}"
    if kind == 7:
        return rng.randrange(0, 100)
    return -rng.randrange(0, 100)


#: Clean value draws: one type family, never None/NaN.
_CLEAN = {
    "int": lambda rng: rng.randrange(-20, 120),
    "float": lambda rng: float(rng.randrange(-20, 120)),
    "str": lambda rng: f"s{rng.randrange(20)}",
}

#: Column families, one drawn per attribute per table, so every
#: profile verdict the SQL compiler consults (guarded, lean, folded to
#: a constant) shows up across the corpus. Half the columns stay
#: hostile: only a column mixing absences with None and several type
#: families reaches every guard branch at once.
FAMILIES = ["hostile"] * 5 + ["int", "float", "str", "absences", "nones"]


def _random_column(rng):
    """A cell drawer for one attribute: ``(present, value)`` per row."""
    family = rng.choice(FAMILIES)
    if family == "hostile":
        return lambda: (rng.random() < 0.75, _random_value(rng))
    clean = _CLEAN[family if family in _CLEAN else rng.choice(sorted(_CLEAN))]
    if family == "absences":
        return lambda: (rng.random() < 0.75, clean(rng))
    if family == "nones":
        return lambda: (True, None if rng.random() < 0.25 else clean(rng))
    return lambda: (True, clean(rng))


def _random_rows(rng):
    """A random table; every row has ``state`` (group anchor) and ``m``
    (numeric fold fodder — int/float/bool, sometimes absent, never
    None/NaN/str, see :func:`_random_aggs`); ``a``..``d`` each draw a
    family from :data:`FAMILIES`."""
    n = rng.randrange(20, 90)
    columns = {attr: _random_column(rng) for attr in ("a", "b", "c", "d")}
    rows = {}
    for key in range(1, n + 1):
        row = {"state": rng.choice(STATES)}
        if rng.random() < 0.9:
            pick = rng.randrange(3)
            row["m"] = (
                rng.randrange(-50, 200)
                if pick == 0
                else float(rng.randrange(-50, 200))
                if pick == 1
                else rng.random() < 0.5
            )
        for attr, draw in columns.items():
            present, value = draw()
            if present:
                row[attr] = value
        rows[key] = row
    return rows


def _random_literal(rng):
    """A literal the predicate DSL can spell."""
    kind = rng.randrange(5)
    if kind == 0:
        return str(rng.randrange(-20, 120))
    if kind == 1:
        return repr(float(rng.randrange(-20, 120)))
    if kind == 2:
        return repr(f"s{rng.randrange(20)}")
    if kind == 3:
        return rng.choice(["True", "False"])
    return str(zoo.BIG + rng.randrange(100))


def _random_predicate(rng, depth=0):
    attr = rng.choice(ATTRS)
    kind = rng.randrange(8 if depth else 10)
    if kind < 4:
        return f"{attr} {rng.choice(COMPARE_OPS)} {_random_literal(rng)}"
    if kind == 4:
        items = ", ".join(
            _random_literal(rng) for _ in range(rng.randrange(1, 4))
        )
        return f"{attr} {'not in' if rng.random() < 0.3 else 'in'} [{items}]"
    if kind == 5:
        lo, hi = sorted(rng.randrange(-20, 120) for _ in range(2))
        return f"{attr} between {lo} and {hi}"
    if kind == 6:
        return f"not ({_random_predicate(rng, depth + 1)})"
    if kind == 7:
        op = rng.choice(["and", "or"])
        return (
            f"({_random_predicate(rng, depth + 1)}) {op} "
            f"({_random_predicate(rng, depth + 1)})"
        )
    if kind == 8:
        return f"state == {rng.choice(STATES)!r}"
    return f"{attr} {rng.choice(COMPARE_OPS)} {_random_literal(rng)}"


def _random_aggs(rng):
    """Count folds roam the hostile columns; value folds (Sum/Avg/
    Min/Max) stay on the always-addable ``m`` column. A fold over a
    hostile column can *raise* (``int + None``), and when it raises is
    not cross-mode comparable: an optimized plan legitimately skips
    folds the result doesn't need (a filter on the group key pushes
    below the aggregation; a minus probes the right side point-wise),
    so the error surfaces in one mode and not another. Raising folds
    are pinned deterministically instead (both modes raise identically
    when the fold is actually enumerated). NaN stays out of ``m`` too:
    Min/Max over NaN keep whichever operand the fold saw first, an
    enumeration-order artifact, not a semantics."""
    makers = {
        "n": lambda: fql.Count(),
        "present": lambda: fql.Count(rng.choice(ATTRS)),
        "total": lambda: fql.Sum("m"),
        "mean": lambda: fql.Avg("m"),
        "lo": lambda: fql.Min("m"),
        "hi": lambda: fql.Max("m"),
    }
    chosen = rng.sample(sorted(makers), rng.randrange(1, 4))
    return {name: makers[name]() for name in chosen}


def _random_graph(rng, relation, depth=0):
    """A random operator tree over *relation* (an FDM relation fn)."""
    n_wraps = rng.randrange(1, 4)
    node = relation
    grouped = False
    for _ in range(n_wraps):
        kind = rng.randrange(12)
        if kind < 4:
            node = fql.filter(node, _random_predicate(rng))
        elif kind < 6 and not grouped:
            node = fql.order_by(
                node, rng.choice(ATTRS), reverse=rng.random() < 0.5
            )
        elif kind == 6:
            node = fql.limit(node, rng.randrange(1, 40))
        elif kind == 7 and not grouped:
            node = fql.project(node, ["state"])
        elif kind < 10 and not grouped:
            node = fql.group_and_aggregate(
                by=["state"] if rng.random() < 0.8 else [],
                input=node,
                **_random_aggs(rng),
            )
            grouped = True
        elif depth == 0 and not grouped:
            other = _random_graph(rng, relation, depth + 1)
            setop = rng.choice([fql.union, fql.intersect, fql.minus])
            try:
                node = setop(node, other)
            except Exception:
                node = fql.filter(node, _random_predicate(rng))
    return node


def _enumerate(build, db, exec_mode_name, offload):
    """Ordered snapshot, or the exception class — raised-in-all-modes
    graphs (e.g. a Sum over an unaddable column) must agree too."""
    try:
        return _run(build, db, exec_mode_name, offload)
    except Exception as exc:
        return ("raised", type(exc).__name__)


@pytest.mark.parametrize("offset", range(N_GRAPHS))
def test_fuzz_three_modes_agree(offset):
    seed = BASE_SEED + offset
    rng = random.Random(seed)
    db = fql.connect(f"offload-fuzz-{seed}", default=False)
    try:
        db["t"] = _random_rows(rng)
        graph_rng = random.Random(seed ^ 0x5EED)
        build = lambda d: _random_graph(  # noqa: E731
            random.Random(seed ^ 0x5EED), d.t
        )
        assert graph_rng  # the builder reseeds per mode: same graph
        naive = _enumerate(build, db, "naive", "off")
        batched = _enumerate(build, db, "batch", "off")
        offloaded = _enumerate(build, db, "batch", "force")
        assert batched == naive, (
            f"seed={seed}: batched diverged from naive "
            f"(REPRO_FUZZ_SEED={seed} reproduces; offset 0)"
        )
        assert offloaded == naive, (
            f"seed={seed}: offload diverged from naive "
            f"(REPRO_FUZZ_SEED={seed} reproduces; offset 0)"
        )
    finally:
        db.close()
