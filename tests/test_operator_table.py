"""The operator table (``repro.operators``, DESIGN.md §5/§6): every
operator is described once, the plan cache's fingerprint and the
workload profiler's query class are two readings of one token, and a
new operator reaches every layer through its table entry alone."""

import importlib
import itertools
import pkgutil

import pytest

import repro
import repro.fql
from repro import fql
from repro._util import MISSING
from repro.exec import lower, using_exec_mode
from repro.exec.cache import fingerprint
from repro.exec.nodes import MapNode
from repro.fdm.functions import DerivedFunction
from repro.fdm.tuples import TupleFunction
from repro.fql.outer import PartitionedRelationFunction
from repro.fql.pivot import PivotedRelationFunction
from repro.ivm.delta import Delta
from repro.ivm.operators import FALLBACK, derive_delta, map_rule
from repro.obs.workload import fingerprint_of
from repro.operators import OPERATORS, Operator, operator_of
from repro.optimizer import estimate_cardinality, optimize
from zoo import ZOO, canonical, hostile_rows, region_rows

#: Operators that deliberately have no lowering: their subtree runs
#: per-key inside an otherwise batched pipeline.
RUNS_NAIVE = {PivotedRelationFunction, PartitionedRelationFunction}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_operator_has_an_entry_or_is_listed_as_naive():
    """A new operator class cannot silently miss a layer: it shows up
    here until it is given an entry or put on the list above."""
    for module in pkgutil.iter_modules(repro.fql.__path__):
        importlib.import_module(f"repro.fql.{module.name}")
    importlib.import_module("repro.optimizer.physical")
    concrete = {
        cls
        for cls in _subclasses(DerivedFunction)
        if cls.__module__.startswith(("repro.fql.", "repro.optimizer.physical"))
        and not cls.__name__.startswith("_")
    }
    assert len(concrete) >= 17
    undescribed = concrete - set(OPERATORS) - RUNS_NAIVE
    assert not undescribed, f"no table entry: {sorted(map(str, undescribed))}"
    default_lower = Operator().lower
    for cls in RUNS_NAIVE:
        assert OPERATORS.get(cls, Operator()).lower is default_lower


# -- one token, two readings ------------------------------------------------------


@pytest.fixture(scope="module")
def db():
    db = repro.connect("operator-table", default=False)
    db["customers"] = hostile_rows()
    db["regions"] = region_rows()
    db.create_index("customers", "age", kind="sorted")
    yield db
    db.close()


#: Builders taking the one literal they embed: two builds with different
#: constants are the same query class and must not share a cached plan.
LITERALS = {
    "filter": (lambda db, c: fql.filter(db.customers, f"age > {c}"), 30, 41),
    "filter_text": (
        lambda db, c: fql.filter(db.customers, f"state == '{c}'"), "NY", "CA",
    ),
    "having": (
        lambda db, c: fql.filter(ZOO["agg"](db), f"n > {c}"), 3, 12,
    ),
    "limit": (lambda db, c: fql.top(db.customers, c, by="age"), 5, 9),
    "restrict": (
        lambda db, c: fql.restrict_to_keys(db.customers, c), {1, 2}, {3, 4, 5},
    ),
    "extend": (
        lambda db, c: fql.extend(db.customers, bump=f"age + {c}"), 1, 7,
    ),
    "key_lookup": (
        lambda db, c: optimize(fql.filter(db.customers, key__eq=c)), 3, 11,
    ),
    "index_lookup": (
        lambda db, c: optimize(fql.filter(db.customers, age__eq=c)), 35, 52,
    ),
}


def _corpus(db):
    """Every zoo graph built twice, plus its optimized (physical-operator)
    form and the literal variants."""
    graphs = []
    for build in ZOO.values():
        first = build(db)
        graphs += [first, build(db), optimize(first)]
    for build, a, b in LITERALS.values():
        graphs += [build(db, a), build(db, b)]
    return graphs


def test_equal_fingerprints_are_one_query_class(db):
    graphs = _corpus(db)
    for a, b in itertools.combinations(graphs, 2):
        if fingerprint(a) == fingerprint(b):
            assert fingerprint_of(a) == fingerprint_of(b)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_rebuilding_a_graph_keeps_its_query_class(db, name):
    assert fingerprint_of(ZOO[name](db)) == fingerprint_of(ZOO[name](db))


@pytest.mark.parametrize("name", sorted(LITERALS))
def test_a_literal_splits_the_plan_not_the_query_class(db, name):
    build, a, b = LITERALS[name]
    first, again, other = build(db, a), build(db, a), build(db, b)
    assert fingerprint(first) == fingerprint(again)
    assert fingerprint(first) != fingerprint(other)
    assert fingerprint_of(first) == fingerprint_of(other)


# -- a toy operator: one declaration reaches every layer --------------------------------


class Scaled(DerivedFunction):
    """Multiply one attribute of every tuple — defined here alone, with
    no edit to exec/, ivm/, optimizer/ or obs/."""

    op_name = "scaled"

    def __init__(self, source, attr, factor):
        super().__init__((source,), name=f"scaled({source.name})")
        self.kind = source.kind
        self._attr, self._factor = attr, factor

    def _transform(self, key, value):
        data = dict(value.items())
        data[self._attr] *= self._factor
        return TupleFunction(data, name=value.fn_name)

    @property
    def domain(self):
        return self.source.domain

    @property
    def is_enumerable(self):
        return self.source.is_enumerable

    def _apply(self, key):
        return self._transform(key, self.source._apply(key))

    def naive_keys(self):
        return self.source.keys()

    def __len__(self):
        return len(self.source)

    def rebuild(self, children):
        return Scaled(children[0], self._attr, self._factor)


SCALED = Operator(
    token=lambda fn, literals: (fn._attr, fn._factor if literals else "?"),
    lower=lambda fn, low: MapNode(
        low(fn.source), fn._transform, label="scaled"
    ),
    delta=map_rule,
    rows=lambda fn: 2 * estimate_cardinality(fn.source),
)


@pytest.fixture
def base():
    return repro.fdm.relation(
        {i: {"v": i, "g": i % 2} for i in range(1, 9)}, name="base"
    )


def _change(base):
    """The base delta of bumping row 3's ``v`` from 3 to 30."""
    delta = Delta()
    delta.record(3, base(3), TupleFunction({"v": 30, "g": 1}))
    return {id(base): delta}


def test_an_operator_without_an_entry_gets_the_safe_defaults(base):
    toy = Scaled(base, "v", 10)
    assert operator_of(toy) == Operator()
    assert fingerprint(toy) != fingerprint(Scaled(base, "v", 10))
    assert fingerprint_of(toy) == fingerprint_of(Scaled(base, "v", 99))
    assert lower(toy) is None  # the root runs naive
    assert derive_delta(toy, _change(base)) is FALLBACK
    assert not derive_delta(toy, {id(base): Delta()})
    assert estimate_cardinality(toy) == 8


def test_one_entry_gives_a_toy_operator_every_layer(base, monkeypatch):
    monkeypatch.setitem(OPERATORS, Scaled, SCALED)
    toy = Scaled(base, "v", 10)
    # a token: rebuilt graphs share a plan, a literal splits it
    assert fingerprint(toy) == fingerprint(Scaled(base, "v", 10))
    assert fingerprint(toy) != fingerprint(Scaled(base, "v", 99))
    # a shape: the literal does not split the query class
    assert fingerprint_of(toy) == fingerprint_of(Scaled(base, "v", 99))
    assert fingerprint_of(toy) != fingerprint_of(Scaled(base, "g", 10))
    # a lowering, composing with the built-in operators around it
    query = fql.filter(toy, "v >= 50")
    pipeline = lower(query)
    assert "scaled" in pipeline.explain()
    with using_exec_mode("naive"):
        expected = canonical(query)
    assert canonical(query) == expected
    assert [key for key, _value in expected] == ["5", "6", "7", "8"]
    # a delta verdict
    delta = derive_delta(query, _change(base))
    assert delta is not FALLBACK
    old, new = delta.changes[3]
    assert old is MISSING and new("v") == 300
    # an estimate
    assert estimate_cardinality(toy) == 16
