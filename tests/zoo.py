"""The shared operator zoo: one corpus, every differential suite.

Every execution-mode differential in this repo — batched vs naive
(``test_exec_differential``), both kernel backends vs naive
(``test_columnar_differential``), partitioned vs flat vs naive
(``test_partition_differential``), and SQL offload vs both
(``test_offload_differential``) — pins the same
contract: alternative physical paths must reproduce the naive per-key
interpretation *exactly*. This module is the corpus they share, so a
new operator (or a new hostile value shape) added here is automatically
pinned across every physical mode.

Two parts:

* :func:`hostile_rows` — a dataset deliberately stacked with the value
  shapes that make alternative executors treacherous: missing
  attributes, defined-but-``None``, ``NaN``, booleans (``True == 1``),
  mixed numeric/string columns, and integers beyond the float64-exact
  range (and, for SQL backends, near the int64 cliff).
* :data:`ZOO` — named query builders (each ``lambda db: ...`` over
  ``db.customers``, and for joins ``db.regions`` from
  :func:`region_rows`) covering filters in every costume, projection,
  ordering, limits, grouping, decomposable aggregates, set operations
  and two-atom joins. Every suite that reads the zoo creates both
  tables.

Plus the canonicalization helpers the suites share: NaN compares
unequal to itself, so snapshots map it to the string ``"NaN"`` before
comparison; order-free cross-layout compares additionally sort
``Collect`` lists and round order-sensitive float folds.
"""

import math

import repro as fql

#: Beyond float64-exact (2**53): must force exact-integer value paths.
BIG = 2**60

STATES = ["NY", "CA", "TX", "WA", "MA", "IL"]


def hostile_rows(n=96, states=None):
    """``n`` customer rows stacked with hostile value shapes.

    Every row has ``name``/``age``/``state`` (so partitioning schemes
    on ``state`` or ``age`` always apply); the hostile columns appear
    on arithmetic subsequences so each shape hits several partitions.
    """
    states = states or STATES
    rows = {}
    for i in range(1, n + 1):
        row = {
            "name": f"c{i}",
            "age": 18 + (i * 17) % 70,
            "state": states[i % len(states)],
        }
        if i % 7 == 0:
            row["bonus"] = None  # defined-but-None
        if i % 11 == 0:
            row["score"] = float("nan")
        elif i % 5 == 0:
            row["score"] = float(i)
        if i % 13 == 0:
            row["flag"] = i % 2 == 0  # booleans compare numerically
        if i % 17 == 0:
            row["serial"] = BIG + i  # not exactly float-representable
        if i % 19 == 0:
            row["mixed"] = "txt"  # string in an otherwise-numeric slot
        elif i % 3 == 0:
            row["mixed"] = i
        rows[i] = row
    return rows


def region_rows(states=None):
    """A tiny dimension table keyed off :data:`STATES`, for joins."""
    states = states or STATES
    return {
        i: {"state": s, "region": "east" if s in ("NY", "MA") else "west"}
        for i, s in enumerate(states, start=1)
    }


ZOO = {
    # filters, one per predicate shape the AST supports
    "filter_eq": lambda db: fql.filter(db.customers, state="NY"),
    "filter_ne": lambda db: fql.filter(db.customers, "state != 'CA'"),
    "filter_lt": lambda db: fql.filter(db.customers, "age < 40"),
    "filter_range": lambda db: fql.filter(
        db.customers, "age between 30 and 55"
    ),
    "filter_in": lambda db: fql.filter(
        db.customers, "state in ['TX', 'WA']"
    ),
    # `in` over a string is substring matching, not element membership
    "filter_in_str": lambda db: fql.filter(
        db.customers, "state in $c", {"c": "NY/CA"}
    ),
    "filter_conj": lambda db: fql.filter(
        db.customers, "age > 25 and state == 'NY'"
    ),
    "filter_disj": lambda db: fql.filter(
        db.customers, "age > 80 or state == 'CA'"
    ),
    "filter_not": lambda db: fql.filter(db.customers, "not (age > 40)"),
    "filter_nested": lambda db: fql.filter(
        fql.filter(db.customers, "age > 25"), state="WA"
    ),
    # hostile columns: None, NaN, bool, big int, mixed types
    "filter_none_attr": lambda db: fql.filter(db.customers, "bonus == None"),
    "filter_nan": lambda db: fql.filter(db.customers, "score > 10"),
    "filter_bool": lambda db: fql.filter(db.customers, "flag == True"),
    "filter_bigint": lambda db: fql.filter(db.customers, f"serial > {BIG}"),
    "filter_mixed": lambda db: fql.filter(db.customers, "mixed > 10"),
    "filter_mixed_text": lambda db: fql.filter(
        db.customers, "mixed == 'txt'"
    ),
    "filter_opaque": lambda db: fql.filter(
        lambda c: c.age % 3 == 0, db.customers
    ),
    # projection and transforms above the core
    "project": lambda db: fql.project(db.customers, ["name", "state"]),
    "project_over_filter": lambda db: fql.project(
        fql.filter(db.customers, "age >= 40"), ["name", "age"]
    ),
    "rename": lambda db: fql.rename(db.customers, age="years"),
    # ordering and limits (ties exercise sort stability)
    "order_by_age": lambda db: fql.order_by(db.customers, "age"),
    "order_multi": lambda db: fql.order_by(db.customers, ["state", "age"]),
    "order_desc_limit": lambda db: fql.limit(
        fql.order_by(db.customers, "age", reverse=True), 7
    ),
    "order_limit": lambda db: fql.limit(
        fql.order_by(db.customers, "age"), 10
    ),
    "top": lambda db: fql.top(db.customers, 5, by="age"),
    # grouping and decomposable aggregates
    "group": lambda db: fql.group(by=["state"], input=db.customers),
    "agg": lambda db: fql.group_and_aggregate(
        by=["state"],
        n=fql.Count(),
        total=fql.Sum("age"),
        avg=fql.Avg("age"),
        lo=fql.Min("age"),
        hi=fql.Max("age"),
        input=db.customers,
    ),
    "agg_sparse": lambda db: fql.group_and_aggregate(
        by=["state"],
        n_scores=fql.Count("score"),
        hi=fql.Max("score"),
        input=db.customers,
    ),
    "agg_bool_key": lambda db: fql.group_and_aggregate(
        by=["flag"], n=fql.Count(), input=db.customers
    ),
    "agg_global": lambda db: fql.group_and_aggregate(
        by=[], n=fql.Count(), total=fql.Sum("age"), input=db.customers
    ),
    "agg_over_filter": lambda db: fql.group_and_aggregate(
        by=["state"],
        n=fql.Count(),
        input=fql.filter(db.customers, "age > 30"),
    ),
    # set operations
    "union": lambda db: fql.union(
        fql.filter(db.customers, "age < 30"),
        fql.filter(db.customers, "age >= 70"),
    ),
    "intersect": lambda db: fql.intersect(
        fql.filter(db.customers, "age > 25"),
        fql.filter(db.customers, state="NY"),
    ),
    "minus": lambda db: fql.minus(
        db.customers, fql.filter(db.customers, "age < 40")
    ),
    # two-atom equi-joins: the first atom probes, the second builds.
    # regions ⋈ customers builds on a column with repeated values
    "join_attr": lambda db: joined(
        "regions.state", "customers.state",
        regions=db.regions, customers=db.customers,
    ),
    # key-joined, hostile probe columns: True joins 1, 5.0 joins 5, NaN
    # joins nothing, and strings sit beside ints
    "join_key_flag": lambda db: joined(
        "customers.flag", "regions.__key__",
        customers=db.customers, regions=db.regions,
    ),
    "join_key_score": lambda db: joined(
        "customers.score", "regions.__key__",
        customers=db.customers, regions=db.regions,
    ),
    "join_key_mixed": lambda db: joined(
        "customers.mixed", "regions.__key__",
        customers=db.customers, regions=db.regions,
    ),
    "join_filtered": lambda db: joined(
        "customers.state", "regions.state",
        customers=fql.filter(db.customers, "age > 30"),
        regions=fql.filter(db.regions, region="west"),
    ),
}


def joined(left, right, **atoms):
    """``fql.join`` of *atoms* (in probe, build order) on one equi-edge."""
    return fql.join(fql.fdm.database(atoms), on=[[left, right]])


def canon_value(value, sort_lists=False):
    """Comparable stand-in for one result value.

    Nested enumerable functions freeze to dicts; NaN (unequal to
    itself) becomes the string ``"NaN"``. With *sort_lists* the
    snapshot additionally becomes layout-independent: ``Collect``
    lists reflect enumeration order (physical, segment-by-segment on a
    partitioned table), so they sort; float folds are order-sensitive
    in the last ulps, so they round.
    """
    if isinstance(value, fql.fdm.FDMFunction) and value.is_enumerable:
        return {
            k: canon_value(v, sort_lists) for k, v in value.items()
        }
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if sort_lists and isinstance(value, list):
        return sorted(value, key=repr)
    if sort_lists and isinstance(value, float):
        return round(value, 9)
    return value


def ordered(fn):
    """Order-preserving snapshot (same-database cross-mode compare)."""
    return [(key, canon_value(value)) for key, value in fn.items()]


def canonical(fn):
    """Order-independent snapshot (cross-database layout compare)."""
    return sorted(
        (
            (repr(key), canon_value(value, sort_lists=True))
            for key, value in fn.items()
        ),
        key=lambda kv: kv[0],
    )
