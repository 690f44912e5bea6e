"""Unit tests for the IVM subsystem: changelog protocol, watermark-based
staleness, delta-routed refresh, eager registries, and fallbacks."""

import pytest

import repro
from repro import fql
from repro.fdm import extensionally_equal, relation
from repro.ivm import (
    ChangeLog,
    Delta,
    ensure_capture,
    maintained_view,
    registry_for,
    using_ivm_mode,
)
from repro._util import MISSING


@pytest.fixture
def customers():
    return relation(
        {
            1: {"name": "Alice", "age": 47, "state": "NY"},
            2: {"name": "Bob", "age": 25, "state": "CA"},
            3: {"name": "Carol", "age": 62, "state": "NY"},
        },
        name="customers",
    )


@pytest.fixture
def stored_db():
    db = repro.FunctionalDatabase(name="ivm-unit")
    db["customers"] = {
        1: {"name": "Alice", "age": 47, "state": "NY"},
        2: {"name": "Bob", "age": 25, "state": "CA"},
        3: {"name": "Carol", "age": 62, "state": "NY"},
        4: {"name": "Dan", "age": 30, "state": "TX"},
    }
    return db


class TestChangeLog:
    def test_watermark_and_since(self):
        log = ChangeLog(capacity=10)
        d = Delta()
        d.record(1, MISSING, {"a": 1})
        log.append(5, {"t": d})
        assert log.watermark == 5
        records = log.since(0)
        assert [ts for ts, _ in records] == [5]
        assert log.since(5) == []

    def test_truncation_raises_floor(self):
        log = ChangeLog(capacity=2)
        for ts in (1, 2, 3):
            d = Delta()
            d.record(ts, MISSING, {"v": ts})
            log.append(ts, {"t": d})
        assert log.floor == 1
        assert log.since(0) is None  # history below the floor is gone
        assert [ts for ts, _ in log.since(1)] == [2, 3]

    def test_empty_deltas_advance_watermark_only(self):
        log = ChangeLog()
        log.append(7, {})
        assert log.watermark == 7
        assert len(log) == 0

    def test_delta_coalesces_to_net_change(self):
        d = Delta()
        d.record(1, MISSING, {"v": 1})   # insert
        d.record(1, {"v": 1}, {"v": 2})  # then update
        assert d.changes[1][0] is MISSING  # net: insert of the newest
        d.record(1, {"v": 2}, MISSING)   # then delete → net nothing
        assert 1 not in d.changes

    def test_capture_is_idempotent(self, customers):
        log1 = ensure_capture(customers)
        log2 = ensure_capture(customers)
        assert log1 is log2
        customers[9] = {"name": "Zoe", "age": 20, "state": "WA"}
        assert log1.watermark == customers._version


class TestStaleKeys:
    def test_preview_equals_scan(self, stored_db):
        with using_ivm_mode("on"):
            mv = fql.materialized_view(
                fql.filter(stored_db.customers, state="NY")
            )
            stored_db.customers[5] = {
                "name": "Eve", "age": 70, "state": "NY"
            }
            del stored_db.customers[1]
            stored_db.customers[3]["age"] = 63
            preview = mv._stale_keys_preview()
            scan = mv._stale_keys_scan()
            assert preview is not None
            assert preview == scan == ({5}, {1}, {3})

    def test_preview_disabled_when_ivm_off(self, stored_db):
        mv = fql.materialized_view(
            fql.filter(stored_db.customers, state="NY")
        )
        stored_db.customers[5] = {"name": "Eve", "age": 70, "state": "NY"}
        with using_ivm_mode("off"):
            assert mv._stale_keys_preview() is None
            assert mv.stale_keys() == ({5}, set(), set())  # scan path

    def test_preview_does_not_consume_the_changelog(self, stored_db):
        mv = fql.materialized_view(
            fql.filter(stored_db.customers, state="NY")
        )
        stored_db.customers[5] = {"name": "Eve", "age": 70, "state": "NY"}
        assert mv.stale_keys() == ({5}, set(), set())
        assert mv.stale_keys() == ({5}, set(), set())  # still pending
        assert mv.is_stale()

    def test_preview_after_truncation_falls_back_to_scan(self, customers):
        ensure_capture(customers, capacity=4)
        mv = fql.materialized_view(fql.filter(customers, state="NY"))
        for i in range(10, 30):
            customers[i] = {"name": f"c{i}", "age": i, "state": "NY"}
        assert mv._stale_keys_preview() is None  # history truncated
        added, removed, changed = mv.stale_keys()
        assert added == set(range(10, 30))


class TestMaterializedRefreshRouting:
    def test_incremental_refresh_uses_delta_engine(self, stored_db):
        mv = fql.materialized_view(
            fql.filter(stored_db.customers, state="NY")
        )
        stored_db.customers[1]["age"] = 48
        touched = mv.refresh(incremental=True)
        assert touched == 1
        assert mv(1)("age") == 48
        # watermark consumed: nothing left pending
        assert not mv.is_stale()

    def test_off_mode_restores_diff_path(self, stored_db):
        mv = fql.materialized_view(
            fql.filter(stored_db.customers, state="NY")
        )
        with using_ivm_mode("off"):
            stored_db.customers[1]["age"] = 48
            touched = mv.refresh(incremental=True)
        assert touched == 1
        assert mv(1)("age") == 48

    def test_both_paths_converge(self, stored_db):
        expr = fql.group_and_aggregate(
            by=["state"], n=fql.Count(), input=stored_db.customers
        )
        mv_delta = fql.materialized_view(expr)
        mv_diff = fql.materialized_view(expr)
        stored_db.customers[9] = {"name": "Ida", "age": 33, "state": "NY"}
        del stored_db.customers[2]
        mv_delta.refresh(incremental=True)
        with using_ivm_mode("off"):
            mv_diff.refresh(incremental=True)
        assert extensionally_equal(mv_delta, mv_diff)

    def test_full_refresh_resets_watermarks(self, stored_db):
        mv = fql.materialized_view(
            fql.filter(stored_db.customers, state="NY")
        )
        stored_db.customers[5] = {"name": "Eve", "age": 70, "state": "NY"}
        mv.refresh(incremental=False)
        assert not mv.is_stale()
        assert mv.refresh(incremental=True) == 0  # nothing pending


class TestMaintainedView:
    def test_lazy_sync_on_every_read_costume(self, stored_db):
        view = maintained_view(fql.filter(stored_db.customers, state="NY"))
        stored_db.customers[5] = {"name": "Eve", "age": 70, "state": "NY"}
        assert view.defined_at(5)
        stored_db.customers[5]["age"] = 71
        assert view(5)("age") == 71
        del stored_db.customers[5]
        assert 5 not in set(view.keys())

    def test_truncated_changelog_forces_full_recompute(self, stored_db):
        with using_ivm_mode("on"):
            stored_db.engine.ensure_changelog().capacity = 4
            view = maintained_view(
                fql.filter(stored_db.customers, state="NY")
            )
            for i in range(20, 40):
                stored_db.customers[i] = {
                    "name": f"c{i}", "age": i, "state": "NY"
                }
            assert set(range(20, 40)) <= set(view.keys())
            assert view.maintenance_stats["fallback_recomputes"] == 1

    def test_registered_with_engine_registry(self, stored_db):
        view = maintained_view(fql.filter(stored_db.customers, state="NY"))
        assert view in registry_for(stored_db.engine).views()

    def test_registry_holds_views_weakly(self, stored_db):
        view = maintained_view(fql.filter(stored_db.customers, state="NY"))
        registry = registry_for(stored_db.engine)
        assert len(registry) == 1
        del view
        import gc

        gc.collect()
        assert len(registry) == 0

    def test_eager_view_syncs_inside_commit(self, stored_db):
        view = maintained_view(
            fql.filter(stored_db.customers, age__gt=60), eager=True
        )
        stored_db.customers[8] = {"name": "Old", "age": 80, "state": "NY"}
        # inspect the snapshot directly: no read-triggered sync involved
        assert 8 in set(view._snapshot.keys())
        assert view.maintenance_stats["syncs"] >= 1

    def test_eager_view_over_material_base(self, customers):
        view = maintained_view(
            fql.filter(customers, state="NY"), eager=True
        )
        customers[6] = {"name": "Nia", "age": 40, "state": "NY"}
        assert 6 in set(view._snapshot.keys())

    def test_reads_inside_open_transaction_serve_snapshot(self, stored_db):
        view = maintained_view(fql.filter(stored_db.customers, state="NY"))
        len(view)  # settle
        txn = stored_db.begin()
        stored_db.customers[7] = {"name": "Tmp", "age": 1, "state": "NY"}
        # buffered, uncommitted: the view defers and serves the snapshot
        assert 7 not in set(view.keys())
        txn.rollback()
        assert 7 not in set(view.keys())

    def test_create_maintained_view_on_database(self, stored_db):
        view = stored_db.create_maintained_view(
            "ny", fql.filter(stored_db.customers, state="NY")
        )
        assert set(stored_db.ny.keys()) == {1, 3}
        stored_db.customers[5] = {"name": "Eve", "age": 70, "state": "NY"}
        assert set(stored_db.ny.keys()) == {1, 3, 5}
        assert view in stored_db.view_registry.views()

    def test_maintenance_stats_shape(self, stored_db):
        view = maintained_view(fql.filter(stored_db.customers, state="NY"))
        stats = view.maintenance_stats
        assert set(stats) == {
            "syncs", "commits_consumed", "deltas_applied", "keys_touched",
            "group_refolds", "fallback_recomputes", "diff_refreshes",
            "partition_skips",
        }

    def test_min_delete_refolds_only_affected_group(self, stored_db):
        with using_ivm_mode("on"):
            view = maintained_view(
                fql.group_and_aggregate(
                    by=["state"], lo=fql.Min("age"), n=fql.Count(),
                    input=stored_db.customers,
                )
            )
            len(view)  # settle
            del stored_db.customers[1]  # NY's min holder
            assert view("NY")("lo") == 62
            stats = view.maintenance_stats
            assert stats["group_refolds"] >= 1
            assert stats["fallback_recomputes"] == 0

    def test_view_over_view_chains(self, stored_db):
        inner = maintained_view(
            fql.filter(stored_db.customers, state="NY"), name="inner"
        )
        outer = maintained_view(fql.filter(inner, age__gt=50), name="outer")
        assert set(outer.keys()) == {3}
        stored_db.customers[5] = {"name": "Eve", "age": 70, "state": "NY"}
        assert set(outer.keys()) == {3, 5}

    def test_wal_recovery_preserves_maintainability(self, stored_db):
        """A recovered engine starts capture at the replayed state: a
        fresh changelog's floor sits at the durable clock, so views
        created afterwards have a sound watermark to begin from."""
        from repro.storage.engine import StorageEngine

        stored_db.engine.ensure_changelog()
        stored_db.customers[5] = {"name": "Eve", "age": 70, "state": "NY"}
        recovered = StorageEngine.recover(
            stored_db.engine.wal, name="recovered"
        )
        log = recovered.ensure_changelog()
        assert log.watermark == stored_db.engine.changelog.watermark
        assert log.floor == log.watermark  # pre-capture history is gone

    def test_viewless_engines_pay_no_capture(self, stored_db):
        """Without a view, the commit path records nothing."""
        assert stored_db.engine.changelog is None
        stored_db.customers[1]["age"] = 48
        assert stored_db.engine.changelog is None


class TestTransactionBoundaries:
    def test_view_created_inside_txn_self_corrects_after_rollback(
        self, stored_db
    ):
        """A snapshot taken over buffered writes must not deny staleness
        after those writes roll back (the changelog never saw them)."""
        txn = stored_db.begin()
        stored_db.customers[7] = {"name": "Tmp", "age": 1, "state": "NY"}
        view = maintained_view(
            fql.filter(stored_db.customers, state="NY"), name="in-txn"
        )
        mv = fql.materialized_view(
            fql.filter(stored_db.customers, state="NY")
        )
        txn.rollback()
        assert 7 not in set(view.keys())  # phantom recomputed away
        assert mv.is_stale()  # the plain view admits it
        mv.refresh(incremental=True)
        assert 7 not in set(mv.keys())

    def test_view_created_inside_txn_converges_after_commit(
        self, stored_db
    ):
        with stored_db.transaction():
            stored_db.customers[7] = {
                "name": "Kept", "age": 50, "state": "NY"
            }
            view = maintained_view(
                fql.filter(stored_db.customers, state="NY")
            )
        stored_db.customers[8] = {"name": "Late", "age": 51, "state": "NY"}
        assert {7, 8} <= set(view.keys())
        assert extensionally_equal(
            view, fql.filter(stored_db.customers, state="NY")
        )


class TestNestedViewStaleness:
    def test_outer_stale_keys_settles_inner_maintained_view(
        self, stored_db
    ):
        inner = maintained_view(
            fql.filter(stored_db.customers, state="NY"), name="inner"
        )
        outer = fql.materialized_view(fql.filter(inner, age__gt=10))
        stored_db.customers[5] = {"name": "Eve", "age": 70, "state": "NY"}
        assert outer.stale_keys() == ({5}, set(), set())
        assert outer.is_stale()


class TestEagerSubscriberLifecycle:
    def test_dropped_eager_views_do_not_accumulate_callbacks(
        self, customers
    ):
        import gc

        for _ in range(5):
            view = maintained_view(
                fql.filter(customers, state="NY"), eager=True
            )
            del view
        gc.collect()
        customers[50] = {"name": "Trig", "age": 1, "state": "NY"}
        assert len(customers._changes.subscribers) == 0


class TestCaptureCompleteness:
    """Graphs reading data no changelog describes must fall back to
    scans — watermarks may never certify freshness they cannot see."""

    def test_computed_leaf_falls_back_to_scan(self):
        from repro.fdm.domains import DiscreteDomain
        from repro.fdm.relations import ComputedRelationFunction

        external = {1: {"v": 1}}
        comp = ComputedRelationFunction(
            lambda k: dict(external[k]),
            domain=DiscreteDomain([1]), name="comp",
        )
        mv = fql.materialized_view(fql.filter(comp, v__gt=0))
        assert mv._ivm is None  # uncapturable: no watermark state
        external[1] = {"v": 99}
        assert mv.is_stale()
        assert mv.refresh(incremental=True) == 1
        assert mv(1)("v") == 99

    def test_setop_over_database_containers(self):
        from repro.fdm.databases import database

        ra = relation({1: {"x": 1}}, name="ra")
        rb = relation({2: {"x": 2}}, name="rb")
        view = maintained_view(
            fql.union(database({"t": ra}), database({"t2": rb}))
        )
        ra[9] = {"x": 9}
        assert extensionally_equal(
            view, fql.union(database({"t": ra}), database({"t2": rb}))
        )

    def test_live_nested_function_rows_fall_back_to_scan(self):
        nested = relation({10: {"y": 1}}, name="nested")
        outer = relation({2: {"a": 1}}, name="outer")
        outer[2] = nested
        mv = fql.materialized_view(outer)
        assert mv._ivm is None  # in-place nested mutations are invisible
        nested[11] = {"y": 2}
        assert mv.stale_keys() == (set(), set(), {2})
        mv.refresh(incremental=True)
        assert mv(2).defined_at(11)


class TestSecondReviewRegressions:
    def test_refresh_inside_txn_then_rollback_self_corrects(
        self, stored_db
    ):
        """A diff refresh inside a transaction pulls buffered writes
        into the snapshot; after rollback the taint forces the next
        maintenance to scan them back out."""
        mv = fql.materialized_view(
            fql.filter(stored_db.customers, state="NY")
        )
        txn = stored_db.begin()
        stored_db.customers[7] = {"name": "Tmp", "age": 1, "state": "NY"}
        mv.refresh(incremental=True)  # snapshots the buffered write
        assert 7 in set(mv.keys())
        txn.rollback()
        assert mv.is_stale()
        mv.refresh(incremental=True)
        assert 7 not in set(mv.keys())

    def test_nested_function_inserted_after_creation_degrades(
        self, stored_db
    ):
        """A live nested function arriving later poisons capture: the
        view must fall back to scans rather than certify freshness."""
        view = maintained_view(stored_db.customers, name="all")
        len(view)  # settle on the delta path
        nested = relation({10: {"y": 1}}, name="nested")
        stored_db.customers[50] = nested  # captured, and poisoning
        nested[11] = {"y": 2}  # invisible to any changelog
        assert view(50).defined_at(11)  # scan-based upkeep caught it
        mv = fql.materialized_view(
            fql.filter(stored_db.customers, state="NY")
        )
        assert stored_db.engine.changelog.uncapturable

    def test_float_sum_never_drifts_through_unstep(self):
        rel = relation(
            {
                1: {"g": "a", "v": 0.1},
                2: {"g": "a", "v": 0.2},
            },
            name="floats",
        )
        expr = fql.group_and_aggregate(
            by=["g"], total=fql.Sum("v"), input=rel
        )
        view = maintained_view(expr)
        len(view)
        rel[3] = {"g": "a", "v": 0.3}
        len(view)
        del rel[3]
        assert extensionally_equal(view, expr)  # refold, not unstep

    def test_eager_sync_failure_does_not_fail_the_commit(self, stored_db):
        view = maintained_view(
            fql.filter(stored_db.customers, state="NY"), eager=True
        )

        def boom(_ts):
            raise RuntimeError("maintenance exploded")

        view._on_base_commit = boom
        # the commit is durable; maintenance failures stay out of it
        stored_db.customers[9] = {"name": "Ok", "age": 20, "state": "CA"}
        assert stored_db.customers(9)("name") == "Ok"


class TestCommitLandingMidSync:
    """``advance()`` must move each watermark to exactly what
    ``pending()`` consumed: a commit another session lands between the
    two calls stays pending, instead of being jumped over for good."""

    @pytest.mark.parametrize("eager", [False, True])
    @pytest.mark.parametrize(
        "step", ["derive_delta", "_apply_delta_to_snapshot"]
    )
    def test_second_commit_between_pending_and_advance_is_not_lost(
        self, stored_db, monkeypatch, eager, step
    ):
        from repro.ivm import view as ivm_view

        view = maintained_view(
            fql.filter(stored_db.customers, state="NY"), eager=eager
        )
        len(view)  # settle
        real = getattr(ivm_view, step)
        landed = []

        def step_then_second_commit(*args, **kwargs):
            if not landed:
                landed.append(True)
                # after pending() read the changelog, before advance()
                stored_db.customers[11] = {
                    "name": "Late", "age": 51, "state": "NY"
                }
            return real(*args, **kwargs)

        monkeypatch.setattr(ivm_view, step, step_then_second_commit)
        with using_ivm_mode("on"):  # the delta path is the one under test
            stored_db.customers[10] = {
                "name": "First", "age": 50, "state": "NY"
            }
            len(view)  # the sync during which the second commit lands
            assert landed
            assert {10, 11} <= set(view.keys())  # the next read has both
            assert extensionally_equal(view, view.expression)

    @pytest.mark.parametrize("eager", [False, True])
    @pytest.mark.parametrize("path", ["full_recompute", "diff_sync"])
    def test_second_commit_after_a_rebuild_read_the_base_is_not_lost(
        self, stored_db, monkeypatch, eager, path
    ):
        """The full-rebuild paths move the watermarks to what they read,
        not to the present: a commit landing after the rebuild read the
        base stays pending."""
        import importlib

        from repro.ivm.view import MaintainedView

        # the module, not the fql.copy operator re-exported under its name
        fql_copy = importlib.import_module("repro.fql.copy")

        if path == "full_recompute":
            # Collect depends on enumeration order, so it has no delta
            # rule: every sync under IVM rebuilds by deep copy
            expression = fql.group_and_aggregate(
                by=["state"],
                names=fql.Collect("name"),
                input=stored_db.customers,
            )
            owner, step, mode = fql_copy, "deep_copy", "on"
        else:
            expression = fql.filter(stored_db.customers, state="NY")
            owner, step, mode = MaintainedView, "_stale_keys_scan", "off"
        with using_ivm_mode(mode):
            view = maintained_view(expression, eager=eager)
            len(view)  # settle
            real = getattr(owner, step)
            landed = []

            def read_then_second_commit(*args, **kwargs):
                out = real(*args, **kwargs)
                if not landed:
                    landed.append(True)
                    stored_db.customers[11] = {
                        "name": "Late", "age": 51, "state": "NY"
                    }
                return out

            monkeypatch.setattr(owner, step, read_then_second_commit)
            stored_db.customers[10] = {
                "name": "First", "age": 50, "state": "NY"
            }
            len(view)  # the rebuild during which the second commit lands
            assert landed
            assert extensionally_equal(view, view.expression)
            if path == "diff_sync":
                assert {10, 11} <= set(view.keys())
            else:
                assert "Late" in view("NY")("names")


class TestViewsEnumerateTheirSnapshot:
    """A view's ``items()`` reads its snapshot: no plan over a view may
    rebuild it (a rebuild re-evaluates the whole expression)."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        from repro.fql.views import MaterializedView

        built = []
        init = MaterializedView.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        monkeypatch.setattr(MaterializedView, "__init__", counting)
        return built

    @pytest.mark.parametrize("eager", [False, True])
    def test_items_after_a_commit_builds_no_view(
        self, stored_db, constructions, eager
    ):
        from repro.exec import pipeline_for, using_exec_mode
        from repro.server.protocol import encode_value

        view = maintained_view(
            fql.group_and_aggregate(
                by=["state"], n=fql.Count(), total=fql.Sum("age"),
                input=stored_db.customers,
            ),
            eager=eager,
        )
        cache = stored_db.engine.plan_cache
        with using_exec_mode("batch"):
            list(view.items())  # settle
            del constructions[:]
            for age in (31, 32, 33):
                stored_db.customers[4] = {"name": "Dan", "age": age,
                                          "state": "TX"}
                view.sync()  # diff-based upkeep (REPRO_IVM=off) plans
                before = cache.stats()
                rows = {k: dict(v.items()) for k, v in view.items()}
                assert rows["TX"] == {"state": "TX", "n": 1, "total": age}
                assert rows == {k: dict(view(k).items()) for k in view.keys()}
                served = encode_value(view)["rows"]
                assert [k for k, _v in served] == list(rows)
                assert pipeline_for(view) is None  # a view is not planned
                assert cache.stats() == before
        assert constructions == []

    def test_the_optimizer_does_not_descend_into_a_view(self, stored_db):
        from repro.exec.run import pipeline_rules
        from repro.optimizer import optimize

        view = fql.materialized_view(
            fql.group_and_aggregate(
                by=["state"], n=fql.Count(), input=stored_db.customers
            )
        )
        trace = []
        assert optimize(view, rules=pipeline_rules(), trace=trace) is view
        above = fql.filter(fql.filter(view, "n > 0"), "n < 9")
        optimized = optimize(above, rules=pipeline_rules(), trace=trace)
        assert trace == ["fuse_filters"]
        assert optimized.source is view

    def test_a_stale_view_enumerates_its_snapshot(self, stored_db):
        view = fql.materialized_view(
            fql.group_and_aggregate(
                by=["state"], n=fql.Count(), input=stored_db.customers
            )
        )
        stored_db.customers[9] = {"name": "Ida", "age": 33, "state": "NY"}
        snapshot = {k: dict(view(k).items()) for k in view.keys()}
        assert snapshot["NY"]["n"] == 2  # stale until refreshed
        assert {k: dict(v.items()) for k, v in view.items()} == snapshot
        view.refresh()
        assert {k: dict(v.items()) for k, v in view.items()}["NY"]["n"] == 3
