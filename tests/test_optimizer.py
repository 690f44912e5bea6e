"""Optimizer: every rule preserves extensional semantics and produces the
expected physical shape; pushdown classifies costumes correctly."""

import pytest

import repro
from repro import fql
from repro.fdm import database, extensionally_equal, relation, relationship
from repro.fql import Count, Min, Sum
from repro.optimizer import (
    FusedGroupAggregateFunction,
    IndexLookupFunction,
    KeyLookupFunction,
    choose_order,
    estimate_cardinality,
    estimate_sequence_cost,
    explain,
    optimize,
    split,
)
from repro.optimizer.rules import (
    FuseFilters,
    conjuncts,
)
from repro.fql.filter import FilteredFunction


@pytest.fixture
def stored_db():
    db = repro.connect(name="optDB")
    db["customers"] = {
        i: {"name": f"c{i}", "age": 20 + (i % 50), "state": "NY" if i % 3 else "CA"}
        for i in range(1, 301)
    }
    db.create_index("customers", "age", kind="sorted")
    db.create_index("customers", "state", kind="hash")
    return db


@pytest.fixture
def retail():
    customers = relation(
        {i: {"name": f"c{i}", "age": 20 + i} for i in range(1, 21)},
        name="customers", key_name="cid",
    )
    products = relation(
        {i: {"pname": f"p{i}", "price": i * 10} for i in range(100, 106)},
        name="products", key_name="pid",
    )
    order = relationship(
        "order", {"cid": customers, "pid": products},
        {(1, 100): {"qty": 1}, (2, 101): {"qty": 2}, (2, 102): {"qty": 1},
         (5, 100): {"qty": 3}},
    )
    return database(
        {"customers": customers, "products": products, "order": order},
        name="retail",
    )


class TestRuleSemantics:
    """optimize() must never change the extension."""

    def check(self, expr):
        optimized = optimize(expr)
        assert extensionally_equal(expr, optimized)
        return optimized

    def test_fuse_filters(self, stored_db):
        expr = fql.filter(
            fql.filter(stored_db.customers, age__gt=30), state="NY"
        )
        optimized = self.check(expr)
        # one surviving filter-ish node, not two stacked filters
        assert not (
            isinstance(optimized, FilteredFunction)
            and isinstance(optimized.source, FilteredFunction)
        )

    def test_key_lookup(self, stored_db):
        expr = fql.filter(stored_db.customers, key__eq=7)
        optimized = self.check(expr)
        assert isinstance(optimized, KeyLookupFunction)
        assert list(optimized.keys()) == [7]

    def test_index_eq_lookup(self, stored_db):
        expr = fql.filter(stored_db.customers, state="CA")
        optimized = self.check(expr)
        assert isinstance(optimized, IndexLookupFunction)

    def test_index_range_lookup(self, stored_db):
        expr = fql.filter(stored_db.customers, age__between=(30, 40))
        optimized = self.check(expr)
        assert isinstance(optimized, IndexLookupFunction)
        expr2 = fql.filter(stored_db.customers, age__gt=60)
        assert isinstance(self.check(expr2), IndexLookupFunction)

    def test_residual_predicate_preserved(self, stored_db):
        expr = fql.filter(
            stored_db.customers, state="CA", name__startswith="c1"
        )
        optimized = self.check(expr)
        assert isinstance(optimized, IndexLookupFunction)
        assert "residual" in optimized.op_params()

    def test_opaque_lambda_blocks_index(self, stored_db):
        expr = fql.filter(lambda t: t.age > 60, stored_db.customers)
        optimized = optimize(expr)
        assert isinstance(optimized, FilteredFunction)  # unchanged shape
        assert extensionally_equal(expr, optimized)

    def test_fuse_group_aggregate(self, stored_db):
        expr = fql.aggregate(
            fql.group(by=["state"], input=stored_db.customers),
            n=Count(), youngest=Min("age"),
        )
        optimized = self.check(expr)
        assert isinstance(optimized, FusedGroupAggregateFunction)

    def test_push_filter_below_group(self, stored_db):
        expr = fql.filter(
            fql.group_and_aggregate(
                by=["age"], n=Count(), input=stored_db.customers
            ),
            age__gt=40,
        )
        optimized = self.check(expr)
        # the age filter moved below the aggregation: top node is the
        # fused aggregate, not a filter
        assert isinstance(optimized, FusedGroupAggregateFunction)

    def test_having_on_aggregate_stays_above(self, stored_db):
        expr = fql.filter(
            fql.group_and_aggregate(
                by=["age"], n=Count(), input=stored_db.customers
            ),
            n__gt=3,
        )
        optimized = self.check(expr)
        assert isinstance(optimized, FilteredFunction)

    def test_push_filter_below_setops_key_only(self, stored_db):
        young = fql.filter(stored_db.customers, age__lt=30)
        old = fql.filter(stored_db.customers, age__gt=60)
        expr = fql.filter(fql.union(young, old), "__key__ < 150")
        self.check(expr)

    def test_attr_filter_stays_above_setops(self, stored_db):
        # a minus collision yields a *nested* diff value (a subset of
        # the row's attributes); an attribute predicate must judge that
        # result value, not the operand rows — so it cannot be pushed
        young = fql.filter(stored_db.customers, age__lt=30)
        old = fql.filter(stored_db.customers, age__gt=60)
        expr = fql.filter(fql.union(young, old), state="NY")
        optimized = self.check(expr)
        assert isinstance(optimized, FilteredFunction)

    def test_push_filter_into_join(self, retail):
        expr = fql.filter(fql.join(retail), age__gt=22)
        optimized = self.check(expr)
        text = explain(optimized, estimates=False)
        assert "join" in text
        # the filter now sits under the join, on the customers atom
        assert text.index("join") < text.index("filter")

    def test_collapse_projects(self, stored_db):
        expr = fql.project(
            fql.project(stored_db.customers, ["name", "age"]), ["name"]
        )
        optimized = self.check(expr)
        assert not (
            isinstance(optimized, type(expr))
            and isinstance(optimized.source, type(expr))
        )


class TestCardinality:
    def test_stored_uses_stats(self, stored_db):
        assert estimate_cardinality(stored_db.customers) == 300

    def test_filter_selectivity(self, stored_db):
        eq = fql.filter(stored_db.customers, age__eq=25)
        est = estimate_cardinality(eq)
        actual = len(eq)
        assert 0 < est < 50
        assert abs(est - actual) / max(actual, 1) < 1.5

    def test_range_selectivity(self, stored_db):
        expr = fql.filter(stored_db.customers, age__between=(20, 44))
        est = estimate_cardinality(expr)
        actual = len(expr)
        assert 0.3 * actual < est < 3 * actual

    def test_literal_on_the_left_reads_as_its_flipped_form(self):
        """``90 < age`` is ``age > 90``: the selectivity must not invert."""
        from repro.optimizer.cardinality import estimate_selectivity
        from repro.predicates import parse_predicate

        db = repro.connect(name="flipDB", default=False)
        db["people"] = {i: {"age": i % 100} for i in range(10_000)}
        for left, flipped in (
            ("90 < age", "age > 90"),
            ("90 <= age", "age >= 90"),
            ("90 > age", "age < 90"),
            ("90 >= age", "age <= 90"),
        ):
            got = estimate_selectivity(parse_predicate(left), db.people)
            want = estimate_selectivity(parse_predicate(flipped), db.people)
            assert got == pytest.approx(want), left
        assert estimate_selectivity(
            parse_predicate("90 < age"), db.people
        ) == pytest.approx(10 / 110)
        db.close()

    def test_join_estimate(self, retail):
        j = fql.join(retail)
        est = estimate_cardinality(j)
        assert 0 < est <= 40  # 4 order facts; estimate in the vicinity

    def test_group_estimate(self, stored_db):
        g = fql.group(by=["age"], input=stored_db.customers)
        assert estimate_cardinality(g) == 50  # n_distinct from stats

    def test_fusing_does_not_move_the_estimate(self, stored_db):
        """The fused operator and the aggregate∘group pair it replaces
        share one estimate, with statistics and without."""
        for by, expected in ((["age"], 50), (["age", "state"], 100)):
            unfused = fql.group_and_aggregate(
                by=by, n=Count(), input=stored_db.customers
            )
            fused = optimize(unfused)
            assert isinstance(fused, FusedGroupAggregateFunction)
            assert estimate_cardinality(unfused) == expected
            assert estimate_cardinality(fused) == expected
        opaque = fql.aggregate(
            fql.group(lambda t: t.age % 7, stored_db.customers), n=Count()
        )
        assert (
            estimate_cardinality(optimize(opaque))
            == estimate_cardinality(opaque)
            == 30
        )


class TestJoinOrder:
    def test_chosen_order_not_worse(self, retail):
        from repro.fql.join import JoinPlan
        from repro.optimizer.joinorder import worst_order

        plan = JoinPlan.from_database(retail)
        best = choose_order(plan)
        worst = worst_order(plan)
        assert estimate_sequence_cost(plan, best) <= estimate_sequence_cost(
            plan, worst
        )

    def test_order_respects_connectivity(self, retail):
        from repro.fql.join import JoinPlan

        plan = JoinPlan.from_database(retail)
        order = choose_order(plan)
        assert sorted(order) == sorted(plan.atoms)
        # after the first atom, each next atom connects to the bound set
        # (this schema is fully connected through 'order')
        bound = {order[0]}
        adjacency = {}
        for a, b in plan.edges:
            adjacency.setdefault(a.atom, set()).add(b.atom)
            adjacency.setdefault(b.atom, set()).add(a.atom)
        for atom in order[1:]:
            assert adjacency.get(atom, set()) & bound
            bound.add(atom)


class TestPushdown:
    def test_transparent_pipeline_fully_pushed(self, stored_db):
        expr = fql.limit(
            fql.order_by(
                fql.filter(stored_db.customers, age__gt=30), "age"
            ),
            5,
        )
        report = split(expr)
        assert report.fully_pushed
        assert report.engine_fraction == 1.0

    def test_lambda_fences_upstream(self, stored_db):
        inner = fql.filter(lambda t: t.age > 30, stored_db.customers)
        expr = fql.limit(fql.order_by(inner, "age"), 5)
        report = split(expr)
        assert not report.fully_pushed
        # everything above the opaque filter is PL-side
        assert any("filter" in op for op in report.pl_ops)
        assert len(report.pl_ops) == 3  # filter, order, limit
        assert report.blockers

    def test_transparent_extend_pushes(self, stored_db):
        expr = fql.extend(stored_db.customers, dbl="age * 2")
        assert split(expr).fully_pushed

    def test_opaque_extend_does_not(self, stored_db):
        expr = fql.extend(stored_db.customers, dbl=lambda t: t("age") * 2)
        assert not split(expr).fully_pushed

    def test_group_aggregate_pushes_with_attr_by(self, stored_db):
        expr = fql.group_and_aggregate(
            by=["state"], n=Count(), total=Sum("age"), input=stored_db.customers
        )
        assert split(expr).fully_pushed

    def test_callable_group_by_blocks(self, stored_db):
        expr = fql.aggregate(
            fql.group(lambda t: t.age // 10, stored_db.customers), n=Count()
        )
        assert not split(expr).fully_pushed


class TestExplain:
    def test_explain_renders_tree(self, stored_db):
        expr = fql.filter(stored_db.customers, age__gt=30)
        text = explain(expr)
        assert "filter" in text and "scan" in text and "rows" in text

    def test_conjuncts_helper(self):
        from repro.predicates import parse_predicate

        p = parse_predicate("a > 1 and b < 2 and c == 3")
        assert len(conjuncts(p)) == 3
        assert len(conjuncts(parse_predicate("a > 1 or b < 2"))) == 1

    def test_fuse_filters_direct(self, stored_db):
        rule = FuseFilters()
        stacked = fql.filter(
            fql.filter(stored_db.customers, age__gt=30), state="NY"
        )
        rewritten = rule.apply(stacked)
        assert rewritten is not None
        assert extensionally_equal(stacked, rewritten)
