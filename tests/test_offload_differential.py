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
import re

import pytest

import zoo

import repro as fql
from repro.compile import (
    offload_mode,
    offload_stats,
    set_offload_mode,
    using_offload_mode,
)
from repro.exec import explain, set_exec_mode, using_exec_mode
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


#: Where an offloaded statement reads its table from: a named covering
#: index or the table itself in ``ord`` order. A grouped statement's
#: first-member seek reads the table under the alias ``x``.
_ACCESS_PATH = re.compile(
    r'FROM "m\d+" (AS x )?(INDEXED BY "[^"]+"|NOT INDEXED) '
)
#: The column an index is keyed on first.
_INDEX_LEAD = re.compile(r'INDEXED BY "m\d+_(c\d+)_')


@pytest.mark.parametrize("layout", ["flat", "part"])
@pytest.mark.parametrize("name", sorted(zoo.ZOO))
def test_every_offloaded_statement_names_its_access_path(
    name, layout, flat_db, part_db
):
    db = flat_db if layout == "flat" else part_db
    build = zoo.ZOO[name]
    _run(build, db, "batch", "force")  # syncs the mirror explain reads
    with using_exec_mode("batch"), using_offload_mode("force"):
        text = explain(build(db))
    sql = [line for line in text.splitlines() if line.startswith("  sql: ")]
    for line in sql:
        # every read of a mirrored table names its access path
        assert line.count('FROM "m') == len(_ACCESS_PATH.findall(line)), line
        lead = _INDEX_LEAD.search(line)
        if " GROUP BY " in line:
            # under the index cap a group streams out of its index and
            # its first member is one seek on it; past the cap it reads
            # NOT INDEXED and keeps MIN(ord)
            assert ("MIN(ord)" in line) == (lead is None), line
            assert lead is None or (
                f" GROUP BY {lead.group(1)}" in line and " AS x INDEXED BY " in line
            ), line
        elif lead is not None:
            # a row statement range-scans the index of a bare atom's column
            assert re.search(rf"\({lead.group(1)} (=|<|<=|>|>=) \?\)", line), line


def test_a_grouped_statement_selects_each_fold_once(flat_db):
    """``Count()`` and the decoder's group count are one ``COUNT(*)``,
    ``Sum`` and ``Avg`` of one column one ``SUM``."""
    build = zoo.ZOO["agg"]
    _run(build, flat_db, "batch", "force")
    with using_exec_mode("batch"), using_offload_mode("force"):
        text = explain(build(flat_db))
    sql = [line for line in text.splitlines() if line.startswith("  sql: ")]
    assert len(sql) == 1 and sql[0].count("COUNT(*)") == 1, sql
    assert len(re.findall(r"SUM\(c\d+\)", sql[0])) == 1, sql


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


#: A float column whose left fold depends on row order: in each group
#: a 1e16 swamps the small values after it until a -1e16 cancels it.
_SWAMPING = [1e16, 1.0, -1e16, 1.0, 0.5, 1e16, 3.0, 1.0, -1e16, 0.25]


@pytest.fixture
def swamped_db():
    db = fql.connect("offload-swamped", default=False)
    db["t"] = {
        i: {"g": i % 3, "k": i % 4, "m": _SWAMPING[(i // 3) % len(_SWAMPING)]}
        for i in range(90)
    }
    yield db
    db.close()


def _swamped(db):
    return fql.group_and_aggregate(
        by=["g"],
        total=fql.Sum("m"),
        mean=fql.Avg("m"),
        input=fql.filter(db.t, "k != 1"),
    )


def test_grouped_float_sum_folds_in_enumeration_order(swamped_db):
    """A grouped float Sum/Avg over a filtered scan streams through
    its covering index keyed (group, ord, ...): each group folds in
    enumeration order, bit for bit the Python fold. An index keyed on
    the value or filter column before ``ord`` would fold another
    order, which these values tell apart."""
    import sqlite3

    db = swamped_db
    kept = [row for row in db.t.values() if row["k"] != 1]
    folds = [[r["m"] for r in kept if r["g"] == g] for g in range(3)]
    # the data is order-sensitive: a value-ordered fold differs
    assert any(sum(ms) != sum(sorted(ms)) for ms in folds)
    before = offload_stats(db._engine)["queries_offloaded"]
    offloaded = _run(_swamped, db, "batch", "force")
    naive = _run(_swamped, db, "naive", "off")
    assert repr(offloaded) == repr(naive)
    if sqlite3.sqlite_version_info < (3, 43, 0):
        assert offload_stats(db._engine)["queries_offloaded"] == before + 1
        with using_exec_mode("batch"), using_offload_mode("force"):
            assert "INDEXED BY" in explain(_swamped(db))


def test_grouped_float_sum_declines_on_compensating_sqlite(
    swamped_db, monkeypatch
):
    import sqlite3

    monkeypatch.setattr(sqlite3, "sqlite_version_info", (3, 43, 0))
    db = swamped_db
    before = offload_stats(db._engine)["fallback_reasons"]
    offloaded = _run(_swamped, db, "batch", "force")
    after = offload_stats(db._engine)["fallback_reasons"]
    assert repr(offloaded) == repr(_run(_swamped, db, "naive", "off"))
    assert after.get("unsummable_column", 0) == before.get(
        "unsummable_column", 0
    ) + 1


# ---------------------------------------------------------------------------
# access paths: a group's first member is one seek; a selective row
# statement range-scans, anything else reads NOT INDEXED
# ---------------------------------------------------------------------------


@pytest.fixture
def seek_db():
    """``g`` is present-None on some rows and absent on others; ``key``
    mixes bools with the ints they equal, so a group's key object is
    whichever its first member holds."""
    db = fql.connect("offload-seek", default=False)
    rows = {}
    for i in range(60):
        row = {"n": i, "flag": i % 3 == 0, "tier": i % 4, "v": i % 7,
               "key": [True, 1, 0, False, 2][i % 5]}
        if i % 5 == 1:
            row["g"] = None
        elif i % 5 != 2:
            row["g"] = i % 3
        rows[i] = row
    db["t"] = rows
    yield db
    db.close()


def _seek_shape(by, where=None):
    def build(d):
        source = d.t if where is None else fql.filter(d.t, where)
        return fql.group_and_aggregate(
            by=by, n=fql.Count(), total=fql.Sum("v"), input=source
        )
    return build


SEEK_SHAPES = {
    "none_and_absent_key": _seek_shape(["g"]),
    "bool_key": _seek_shape(["flag"]),
    "int_key": _seek_shape(["tier"]),
    "bool_int_key": _seek_shape(["key"]),
    "two_keys": _seek_shape(["flag", "tier"]),
    # rejects every tier's first rows, and tier 1's first half
    "filter_rejects_first_rows": _seek_shape(
        ["tier"], "n >= 9 and not (tier == 1 and n < 30)"
    ),
    "filter_over_absent_key": _seek_shape(["g"], "v != 0"),
}


@pytest.mark.parametrize("shape", sorted(SEEK_SHAPES))
def test_a_groups_first_member_is_one_seek(seek_db, shape):
    """Each group's first member — its key object and its place in the
    enumeration — comes from one seek on the index the fold streams,
    and equals naive's, under filters that reject a group's first rows."""
    build = SEEK_SHAPES[shape]
    before = offload_stats(seek_db._engine)["queries_offloaded"]
    offloaded = _run(build, seek_db, "batch", "force")
    assert offload_stats(seek_db._engine)["queries_offloaded"] == before + 1
    assert repr(offloaded) == repr(_run(build, seek_db, "naive", "off"))
    with using_exec_mode("batch"), using_offload_mode("force"):
        sql = explain(build(seek_db))
    assert "MIN(x.ord)" in sql and " AS x INDEXED BY " in sql, sql
    assert "MIN(ord)" not in sql, sql


@pytest.fixture
def range_db():
    """``qty`` is clean (1..9); ``h`` is hostile: absent, None, and a
    string among its ints, so a range over it carries guards."""
    db = fql.connect("offload-range", default=False)
    rows = {}
    for i in range(400):
        row = {"amount": (i * 37) % 1000, "qty": 1 + i % 9, "age": i % 60}
        if i % 7:
            row["h"] = None if i % 11 == 0 else "x" if i % 13 == 0 else i % 100
        rows[i] = row
    db["t"] = rows
    yield db
    db.close()


@pytest.mark.parametrize(
    "where, indexed",
    [
        ("amount > 980 and age > 20", True),  # ~2 %: a range scan
        ("980 < amount", True),  # a literal on the left flips
        ("age == 7 and qty >= 7", True),  # the rarer atom leads
        ("qty >= 7", False),  # a third of the rows: the scan is cheaper
        ("h > 97", False),  # guarded: no index can serve it
        ("h > 97 and qty >= 7", False),
        ("amount != 5", False),  # not a range
    ],
)
def test_a_row_statement_indexes_only_a_selective_bare_atom(
    range_db, where, indexed
):
    """A row statement range-scans a covering index on its most
    selective bare atom when that keeps under ``INDEX_SELECTIVITY`` of
    the rows; otherwise it reads NOT INDEXED. Either way it runs in
    SQL (no "no query solution") and equals naive."""
    build = lambda d: fql.filter(d.t, where)  # noqa: E731
    stats = offload_stats(range_db._engine)
    offloaded = _run(build, range_db, "batch", "force")
    after = offload_stats(range_db._engine)
    assert after["queries_offloaded"] == stats["queries_offloaded"] + 1
    assert after["fallbacks"] == stats["fallbacks"]
    assert offloaded == _run(build, range_db, "naive", "off")
    with using_exec_mode("batch"), using_offload_mode("force"):
        sql = explain(build(range_db))
    assert ("INDEXED BY" in sql) == indexed, sql
    assert ("NOT INDEXED" in sql) != indexed, sql


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


# ---------------------------------------------------------------------------
# a seeded slice that reaches the access paths
# ---------------------------------------------------------------------------

#: The corpus above runs 20–90-row tables of mostly hostile columns, so
#: few of its statements can use an index. This slice builds larger
#: tables of clean columns, and graphs around a bare atom on the int
#: column ``a``, so that a row statement range-scans a covering index
#: and a grouped statement seeks each group's first member. Its seed is
#: pinned, not re-based by ``REPRO_FUZZ_SEED``: the path shares asserted
#: below are this slice's, and another slice may reach fewer.
ACCESS_SEED = 20_360_810
N_ACCESS = 40


def _clean_rows(rng):
    """300–600 rows: ``state``, an int ``m``, an int ``a`` and
    ``b``..``d`` of one clean family each, defined on every row."""
    families = {attr: _CLEAN[rng.choice(sorted(_CLEAN))] for attr in "bcd"}
    return {
        key: {
            "state": rng.choice(STATES),
            "m": rng.randrange(-50, 200),
            "a": rng.randrange(-20, 120),
            **{attr: draw(rng) for attr, draw in families.items()},
        }
        for key in range(1, rng.randrange(300, 600))
    }


def _access_graph(rng, relation):
    """A filter on ``a`` (``==``, or a range at either end: mostly
    selective), maybe a random conjunct; then half the time a grouped
    aggregate by ``state``, else maybe an order and a limit."""
    atom = rng.choice([
        f"a == {rng.randrange(-20, 120)}",
        f"a < {rng.randrange(-20, 30)}",
        f"a >= {rng.randrange(80, 120)}",
    ])
    node = fql.filter(relation, atom)
    if rng.random() < 0.5:
        node = fql.filter(node, _random_predicate(rng))
    if rng.random() < 0.5:
        return fql.group_and_aggregate(
            by=["state"], input=node, **_random_aggs(rng)
        )
    if rng.random() < 0.5:
        node = fql.order_by(node, rng.choice(ATTRS), reverse=rng.random() < 0.5)
    if rng.random() < 0.5:
        node = fql.limit(node, rng.randrange(1, 40))
    return node


def test_fuzz_slice_reaches_both_access_paths(monkeypatch):
    from repro.compile.mirror import EngineMirror

    paths: list = []  # per graph: the (kind, indexed) of each statement
    execute = EngineMirror.execute

    def counted(self, mirror, compiled):
        paths[-1].add((compiled.kind, compiled.index is not None))
        return execute(self, mirror, compiled)

    monkeypatch.setattr(EngineMirror, "execute", counted)
    for offset in range(N_ACCESS):
        seed = ACCESS_SEED + offset
        paths.append(set())
        db = fql.connect(f"offload-access-{seed}", default=False)
        try:
            db["t"] = _clean_rows(random.Random(seed))

            def build(d, seed=seed):
                return _access_graph(random.Random(seed ^ 0x5EED), d.t)

            naive = _enumerate(build, db, "naive", "off")
            assert _enumerate(build, db, "batch", "off") == naive, f"seed={seed}"
            assert _enumerate(build, db, "batch", "force") == naive, f"seed={seed}"
        finally:
            db.close()
    rows = sum(("rows", True) in taken for taken in paths)
    seeks = sum(("aggregate", True) in taken for taken in paths)
    assert rows >= N_ACCESS / 4 and seeks >= N_ACCESS / 4, (rows, seeks)
