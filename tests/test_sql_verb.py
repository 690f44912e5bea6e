"""The SQL verb against the relational engine it replaced (DESIGN.md §11).

The oracle is the old serving path, moved into the test: every table is
copied into a ``Relation`` through the session's transaction (a missing
attribute or ``None`` becomes NULL) and the SELECT runs on the
relational ``SQLDatabase``. The verb, which translates the SELECT into a
function graph and runs it on the FQL pipeline, must return the same
rows — as a multiset, or in order under ORDER BY — or decline with a
typed ``SQLExecutionError``; never a different answer.
"""

from __future__ import annotations

import ast
import math
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from zoo import BIG, hostile_rows

import repro
from repro.exec import cache_for, using_exec_mode, using_kernel_backend
from repro.exec.kernels import HAVE_NUMPY
from repro.obs.workload import fingerprint_of, using_profile_mode, workload_for
from repro.partition import hash_partition
from repro.relational import SQLDatabase
from repro.relational.nulls import is_null
from repro.relational.relation import Relation
from repro.server.session import Session, fql_namespace
from repro.server.sql import Translation

KERNELS = ["numpy", "python"] if HAVE_NUMPY else ["python"]
HERE = pathlib.Path(__file__).resolve().parent

CUSTOMERS = {
    1: {"name": "Alice", "age": 47, "state": "NY"},
    2: {"name": "Bob", "age": 25, "state": "CA"},
    3: {"name": "Carol", "age": 62, "state": "NY"},
}
ORDERS = {
    1: {"cid": 1, "amount": 10},
    2: {"cid": 1, "amount": 20},
    3: {"cid": 2, "amount": 5},
}
#: rows the relational model can only hold with NULLs
HOLES = {
    4: {"name": "NoAge", "state": "TX"},
    5: {"name": "Nil", "age": None, "state": None},
    6: {"age": 30, "state": "CA"},
}


def _open(name, customers, partitioned=False):
    db = repro.connect(name, default=False)
    db.create_table(
        "customers", customers, key_name="cid",
        partition_by=hash_partition("state", 4) if partitioned else None,
    )
    db.create_table("orders", ORDERS, key_name="oid")
    db["accounts"] = {i: {"balance": 100 * i} for i in range(1, 4)}
    return db


def baseline(db, session, text, params):
    """The old SQL verb: each table copied into a Relation through the
    session's transaction, the SELECT answered by the relational engine."""
    mirror = SQLDatabase("oracle")
    if session.txn is not None:
        session.txn.attach()
    try:
        for name in db.keys():
            relation = db(name)
            key_name = relation.key_name or "_key"
            dicts = []
            for key in relation.keys():
                data = relation._raw_read(key)
                if isinstance(data, dict):
                    row = dict(data)
                    row.setdefault(key_name, key)
                    dicts.append(row)
            mirror.load(Relation.from_dicts(name, dicts))
    finally:
        if session.txn is not None:
            session.txn.detach()
    return mirror.query(text, params)


def _canonical(columns, rows, names):
    """Rows as comparable strings over *names*; NULL and absent read None."""
    out = []
    for row in rows:
        cells = dict(zip(columns, row))
        out.append(repr([
            (name, repr(None if is_null(cells.get(name)) else cells[name]))
            for name in names
        ]))
    return out


def check(db, session, text, params=()):
    """The verb's reply equals the oracle's rows, or is a typed decline.
    Returns ``"answered"`` or ``"declined"``."""
    request = {"verb": "sql", "sql": text, "params": list(params)}
    reply = session.handle(request)
    try:
        want = baseline(db, session, text, list(params))
    except Exception as exc:  # the oracle's own refusals
        want = exc
    if not reply["ok"]:
        kind = reply["error"]["type"]
        assert kind == "SQLExecutionError" or kind == type(want).__name__, (
            text, reply)
        return "declined"
    assert not isinstance(want, Exception), (text, params, want, reply)
    got = reply["result"]
    if "*" not in text:
        assert got["columns"] == want.columns, text
    names = sorted(set(got["columns"]) | set(want.columns))
    mine = _canonical(got["columns"], got["rows"], names)
    theirs = _canonical(want.columns, want.rows, names)
    if "ORDER BY" not in text.upper():
        mine, theirs = sorted(mine), sorted(theirs)
    assert mine == theirs, (text, params)
    return "answered"


# ---------------------------------------------------------------------------
# every SELECT of the SQL engine and server suites
# ---------------------------------------------------------------------------


def _corpus():
    texts = set()
    for name in ("test_sql_engine.py", "test_server.py"):
        tree = ast.parse((HERE / name).read_text())
        texts |= {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.lstrip().upper().startswith("SELECT")
        }
    return sorted(texts)


CORPUS = _corpus()


@pytest.fixture(scope="module", params=["clean", "holes", "partitioned"])
def served(request):
    customers = dict(CUSTOMERS)
    if request.param != "clean":
        customers.update(HOLES)
    db = _open(f"sqlverb-{request.param}", customers,
               partitioned=request.param == "partitioned")
    yield db, Session(db, 1)
    db.close()


def test_every_accepted_select_returns_the_baselines_rows(served):
    db, session = served
    outcomes = {}
    for kernel in KERNELS:
        with using_kernel_backend(kernel):
            for text in CORPUS:
                params = [30, "NY", 2][: text.count("?")]
                outcomes[text] = check(db, session, text, params)
    answered = [text for text, got in outcomes.items() if got == "answered"]
    assert len(CORPUS) >= 40 and len(answered) >= 20, outcomes


def test_the_null_guards_answer_rather_than_decline(served):
    """!=, NOT, NOT IN, NOT BETWEEN and IS NOT NULL translate exactly,
    as do groups, sorts and aggregates the NULL rules leave alone."""
    db, session = served
    for text in (
        "SELECT cid FROM customers WHERE age <> 25",
        "SELECT cid FROM customers WHERE NOT (age > 30 OR state = 'CA')",
        "SELECT cid FROM customers WHERE age NOT IN (25, 47)",
        "SELECT cid FROM customers WHERE age NOT BETWEEN 26 AND 50",
        "SELECT cid FROM customers WHERE age IS NOT NULL AND NOT state = 'NY'",
        "SELECT cid FROM customers WHERE age = age",
        "SELECT cid, name FROM customers WHERE cid >= 2 ORDER BY name LIMIT 2",
        "SELECT state, count(*) AS n, sum(age), min(age), max(age), avg(age) "
        "FROM customers WHERE cid <= 3 GROUP BY state ORDER BY state DESC",
        "SELECT count(age), sum(age), max(age) FROM customers WHERE cid > 99",
        "SELECT sum(age) AS total FROM customers WHERE age IS NOT NULL",
        "SELECT name, age FROM customers WHERE age > 0 "
        "ORDER BY state, age LIMIT 2",
    ):
        assert check(db, session, text) == "answered", text


# ---------------------------------------------------------------------------
# random WHERE trees over hostile rows
# ---------------------------------------------------------------------------

COLUMNS = ("cid", "name", "age", "state", "bonus", "score", "flag", "serial",
           "mixed")
VALUES = st.sampled_from([None, 0, 1, True, False, 25, 40.5, math.nan,
                          BIG + 17, 2**60, "txt", "NY", "c7", -3])
OPS = st.sampled_from(("=", "!=", "<>", "<", "<=", ">", ">="))
NOT = st.sampled_from(("", "NOT "))
COLUMN = st.sampled_from(COLUMNS)

LEAVES = st.one_of(
    st.tuples(COLUMN, OPS, VALUES).map(
        lambda t: (f"{t[0]} {t[1]} ?", [t[2]])),
    st.tuples(VALUES, OPS, COLUMN).map(
        lambda t: (f"? {t[1]} {t[2]}", [t[0]])),
    st.tuples(COLUMN, OPS, COLUMN).map(lambda t: (" ".join(t), [])),
    st.tuples(COLUMN, OPS).map(lambda t: (f"{t[0]} {t[1]} NULL", [])),
    st.tuples(COLUMN, NOT, st.lists(VALUES, min_size=1, max_size=3)).map(
        lambda t: (f"{t[0]} {t[1]}IN ({', '.join('?' * len(t[2]))})", t[2])),
    st.tuples(COLUMN, NOT, VALUES, VALUES).map(
        lambda t: (f"{t[0]} {t[1]}BETWEEN ? AND ?", [t[2], t[3]])),
    st.tuples(COLUMN, NOT).map(lambda t: (f"{t[0]} IS {t[1]}NULL", [])),
)
CONDITIONS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        inner.map(lambda c: (f"NOT ({c[0]})", c[1])),
        st.tuples(inner, st.sampled_from(("AND", "OR")), inner).map(
            lambda t: (f"({t[0][0]}) {t[1]} ({t[2][0]})", t[0][1] + t[2][1])),
    ),
    max_leaves=5,
)

#: buffered writes the in-transaction leg reads through
WRITES = [
    {"op": "update", "key": 2,
     "row": {"name": "b", "age": None, "state": "NY"}},
    {"op": "delete", "key": 3},
    {"op": "insert", "key": 500,
     "row": {"name": "n", "mixed": "txt", "state": "CA"}},
    {"op": "set", "key": 4, "attr": "age", "value": BIG},
]


@pytest.fixture(scope="module", params=["flat", "partitioned"])
def hostile(request):
    db = _open(f"sqlverb-hostile-{request.param}", hostile_rows(),
               partitioned=request.param == "partitioned")
    yield db, Session(db, 1)
    db.close()


@pytest.mark.parametrize("in_txn", [False, True], ids=["committed", "in-txn"])
@settings(max_examples=40, deadline=None)
@given(condition=CONDITIONS)
def test_random_where_trees_answer_like_the_baseline_or_decline(
        hostile, in_txn, condition):
    db, session = hostile
    where, params = condition
    if in_txn:
        session.handle({"verb": "begin"})
        for write in WRITES:
            request = {"verb": "dml", "table": "customers", **write}
            assert session.handle(request)["ok"]
    try:
        for kernel in KERNELS:
            with using_kernel_backend(kernel):
                text = f"SELECT * FROM customers WHERE {where}"
                check(db, session, text, params)
    finally:
        if in_txn:
            session.handle({"verb": "rollback"})


# ---------------------------------------------------------------------------
# declines are typed and name the construct
# ---------------------------------------------------------------------------

DECLINED = {
    "SELECT name, amount FROM customers "
    "JOIN orders ON customers.cid = orders.cid": "JOIN",
    "SELECT state FROM customers UNION SELECT state FROM customers": "UNION",
    "SELECT state FROM customers "
    "INTERSECT SELECT state FROM customers": "INTERSECT",
    "SELECT state FROM customers EXCEPT SELECT state FROM customers": "EXCEPT",
    "SELECT state, count(*) FROM customers "
    "GROUP BY state HAVING count(*) > 1": "HAVING",
    "SELECT DISTINCT state FROM customers": "DISTINCT",
    "SELECT name FROM customers WHERE name LIKE 'A%'": "LIKE",
    "SELECT age * 2 FROM customers": "select item",
    "SELECT upper(name) FROM customers": "select item",
    "SELECT name FROM customers ORDER BY age ASC, name DESC": "mixed ORDER BY",
    "SELECT name FROM customers ORDER BY age * -1": "ORDER BY",
    "SELECT name FROM customers ORDER BY cid": "the key",
    "SELECT name FROM customers WHERE age IS NULL": "IS NULL",
    "SELECT name FROM customers WHERE age + 1 > 30": "arithmetic",
    "SELECT count(DISTINCT state) FROM customers": "DISTINCT",
    "SELECT state, count(*) FROM customers GROUP BY ROLLUP(state)": "ROLLUP",
    "SELECT 1 + 2 AS three": "without FROM",
    "SELECT state, count(*) AS n FROM customers GROUP BY state": "NULL group",
    "SELECT name FROM customers ORDER BY age": "NULL sort key",
    "SELECT count(age) FROM customers": "NULL",
}


@pytest.mark.parametrize("text", sorted(DECLINED))
def test_a_declined_construct_is_a_typed_error_naming_it(text):
    db = _open("sqlverb-declines", {**CUSTOMERS, **HOLES})
    try:
        request = {"verb": "sql", "sql": text, "params": []}
        reply = Session(db, 1).handle(request)
    finally:
        db.close()
    assert reply["error"]["type"] == "SQLExecutionError", reply
    assert DECLINED[text] in reply["error"]["message"], reply


# ---------------------------------------------------------------------------
# SQL is observable as a query
# ---------------------------------------------------------------------------


@pytest.fixture
def buckets():
    db = repro.connect("sqlverb-buckets", default=False)
    db.create_table(
        "customers",
        {i: {"name": f"c{i}", "age": 18 + i % 60, "bucket": i % 50}
         for i in range(1, 1001)},
        key_name="id",
    )
    yield db, Session(db, 1)
    db.close()


SELECT = "SELECT id, name, age FROM customers WHERE bucket = ?"
FILTER = "filter(db('customers'), 'bucket == $p0', params)"


def test_a_served_select_is_one_workload_class(buckets):
    db, session = buckets
    profile = workload_for(db.engine)
    with using_exec_mode("batch"), using_profile_mode("on"):
        before = len(profile)
        request = {"verb": "sql", "sql": SELECT, "params": [7]}
        assert session.handle(request)["ok"]
        assert len(profile) == before + 1


def test_the_select_is_the_fql_filter_and_shares_its_plan(buckets):
    db, session = buckets
    query = Translation(fql_namespace(db)["db"], SELECT, [7])
    with using_exec_mode("batch"):
        graph = session._eval_fql(FILTER, {"p0": 7})
        assert fingerprint_of(query.graph) == fingerprint_of(graph)
        fql = session.handle(
            {"verb": "fql", "expr": FILTER, "params": {"p0": 7}})
        cache = cache_for(graph)
        before = cache.stats()
        sql = session.handle({"verb": "sql", "sql": SELECT, "params": [7]})
        after = cache.stats()
    assert after["hits"] == before["hits"] + 1
    assert after["size"] == before["size"]
    keys = [row[0] for row in fql["result"]["rows"]]
    assert [row[0] for row in sql["result"]["rows"]] == keys
    assert len(keys) == 20
