"""Unit tests for the partition subsystem (DESIGN.md §10).

Covers the four layers separately: scheme placement (stable across
processes), the PartitionedTable invariants (one live segment per key
per snapshot, moves, time travel, vacuum, WAL recovery byte-for-byte),
static pruning, per-partition statistics feeding cardinality, explain
rendering, and the IVM partition-skip path.
"""

import pytest

import repro as fql
from repro._util import TOMBSTONE
from repro.exec import default_plan_cache, explain
from repro.ivm import maintained_view, using_ivm_mode
from repro.optimizer.cardinality import estimate_cardinality
from repro.partition import (
    PartitionedTable,
    hash_partition,
    range_partition,
    stable_hash,
    surviving_partitions,
)
from repro.partition.scheme import as_scheme
from repro.predicates.parser import parse_predicate
from repro.storage.engine import StorageEngine
from repro.storage.image import table_schema
from repro.storage.wal import WriteAheadLog

_LATEST = 2**62


# ---------------------------------------------------------------------------
# Schemes
# ---------------------------------------------------------------------------


class TestSchemes:
    def test_stable_hash_is_process_independent(self):
        # pinned values: a changed canonical encoding would re-place
        # every existing WAL row on recovery
        assert stable_hash("NY") == stable_hash("NY")
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash((1, "a")) == stable_hash((1, "a"))

    def test_equal_numerics_hash_together(self):
        # == is the predicate semantics pruning reasons about: values
        # Python treats as equal must place (and prune) identically
        assert stable_hash(30) == stable_hash(30.0)
        assert stable_hash(True) == stable_hash(1)
        assert stable_hash(0) == stable_hash(False) == stable_hash(0.0)
        assert stable_hash(30.5) != stable_hash(30)

    def test_mixed_numeric_types_prune_consistently(self):
        db = fql.connect("numerics", default=False)
        db.create_table(
            "t",
            rows={1: {"age": 30.0}, 2: {"age": 30}, 3: {"age": True}},
            key_name="k",
            partition_by=hash_partition("age", 8),
        )
        expr = fql.filter(db.t, "age == 30")
        assert sorted(expr.keys()) == [1, 2]

    def test_hash_placement_covers_all_partitions(self):
        scheme = hash_partition("state", 4)
        pids = {
            scheme.partition_for(i, {"state": s})
            for i, s in enumerate("ABCDEFGHIJKLMNOP")
        }
        assert pids <= set(range(4)) and len(pids) > 1

    def test_missing_attr_goes_to_partition_zero(self):
        scheme = hash_partition("state", 4)
        assert scheme.partition_for(1, {"age": 3}) == 0
        assert scheme.partition_for(1, TOMBSTONE) == 0

    def test_key_partitioning(self):
        scheme = hash_partition(None, 3)
        assert scheme.partition_for(42, {"x": 1}) == stable_hash(42) % 3

    def test_range_boundaries(self):
        scheme = range_partition("age", [30, 60])
        assert scheme.n_partitions == 3
        assert scheme.partition_for_value(18) == 0
        assert scheme.partition_for_value(30) == 1
        assert scheme.partition_for_value(59) == 1
        assert scheme.partition_for_value(60) == 2
        assert scheme.partition_for_value("oops") == 0  # incomparable

    def test_range_rejects_bad_boundaries(self):
        with pytest.raises(Exception):
            range_partition("age", [60, 30])
        with pytest.raises(Exception):
            range_partition("age", [])

    def test_as_scheme_costumes(self):
        assert as_scheme(4).spec() == {"kind": "hash", "attr": None, "n": 4}
        assert as_scheme(("hash", "state", 2)).n_partitions == 2
        assert as_scheme(("range", "age", [10])).n_partitions == 2
        spec = hash_partition("state", 8).spec()
        assert as_scheme(spec).compatible_with(hash_partition("state", 8))
        assert not as_scheme(spec).compatible_with(hash_partition("state", 4))


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------


class TestPruning:
    def test_hash_eq_prunes_to_one_partition(self):
        scheme = hash_partition("state", 8)
        pred = parse_predicate("state == 'NY'")
        surviving = surviving_partitions(scheme, pred)
        assert surviving == frozenset({scheme.partition_for_value("NY")})

    def test_hash_in_list_unions(self):
        scheme = hash_partition("state", 8)
        pred = parse_predicate("state in ['NY', 'CA']")
        expected = {
            scheme.partition_for_value("NY"),
            scheme.partition_for_value("CA"),
        }
        assert surviving_partitions(scheme, pred) == frozenset(expected)

    def test_hash_range_keeps_everything(self):
        scheme = hash_partition("age", 4)
        pred = parse_predicate("age > 50")
        assert len(surviving_partitions(scheme, pred)) == 4

    def test_range_comparisons(self):
        scheme = range_partition("age", [30, 60])
        cases = {
            "age < 30": {0},
            "age <= 30": {0, 1},
            "age > 60": {2},
            "age >= 60": {2},
            "age == 45": {1},
            "age between 35 and 59": {1},
            "age between 20 and 70": {0, 1, 2},
            "30 <= age": {1, 2},
        }
        for source, expected in cases.items():
            assert surviving_partitions(
                scheme, parse_predicate(source)
            ) == frozenset(expected), source

    def test_and_intersects_or_unions(self):
        scheme = range_partition("age", [30, 60])
        assert surviving_partitions(
            scheme, parse_predicate("age < 30 and age > 60")
        ) == frozenset()
        assert surviving_partitions(
            scheme, parse_predicate("age < 30 or age > 60")
        ) == frozenset({0, 2})

    def test_unrelated_and_opaque_predicates_keep_all(self):
        scheme = hash_partition("state", 4)
        assert len(surviving_partitions(
            scheme, parse_predicate("age > 5")
        )) == 4
        from repro.predicates.ast import OpaquePredicate

        assert len(surviving_partitions(
            scheme, OpaquePredicate(lambda e: True)
        )) == 4

    def test_not_is_conservative(self):
        scheme = hash_partition("state", 4)
        pred = parse_predicate("not (state == 'NY')")
        assert len(surviving_partitions(scheme, pred)) == 4


# ---------------------------------------------------------------------------
# PartitionedTable
# ---------------------------------------------------------------------------


def _engine_with_partitioned(scheme=None):
    engine = StorageEngine(name="pt")
    engine.create_table(
        "t", key_name="k", partition_by=scheme or hash_partition("state", 4)
    )
    return engine


class TestPartitionedTable:
    def test_scan_equals_segment_concat(self):
        engine = _engine_with_partitioned()
        writes = [
            ("t", i, {"state": s, "v": i})
            for i, s in enumerate(["NY", "CA", "NY", "TX", "WA", "CA"])
        ]
        engine.apply_commit(1, writes)
        table = engine.table("t")
        assert isinstance(table, PartitionedTable)
        whole = list(table.scan_at(_LATEST))
        parts = [
            entry
            for pid in range(table.n_partitions)
            for entry in table.scan_partition(pid, _LATEST)
        ]
        assert whole == parts
        assert sorted(k for k, _ in whole) == sorted(k for (_, k, _) in writes)

    def test_row_moves_between_partitions(self):
        engine = _engine_with_partitioned()
        engine.apply_commit(1, [("t", 1, {"state": "NY", "v": 0})])
        table = engine.table("t")
        ny_pid = table.scheme.partition_for_value("NY")
        tx_pid = table.scheme.partition_for_value("TX")
        assert ny_pid != tx_pid  # true for this scheme's hash
        assert table.placement_of(1) == ny_pid
        engine.apply_commit(2, [("t", 1, {"state": "TX", "v": 1})])
        assert table.placement_of(1) == tx_pid
        # snapshot at ts=1 sees the NY version, in the NY segment only
        assert table.read(1, 1) == {"state": "NY", "v": 0}
        assert dict(table.scan_partition(ny_pid, 1))[1]["state"] == "NY"
        assert dict(table.scan_partition(ny_pid, _LATEST)) == {}
        assert dict(table.scan_partition(tx_pid, _LATEST))[1]["state"] == "TX"
        # exactly one live segment per snapshot
        for ts in (1, 2):
            live = [
                pid
                for pid in range(table.n_partitions)
                if 1 in dict(table.scan_partition(pid, ts))
            ]
            assert len(live) == 1

    def test_delete_and_reinsert(self):
        engine = _engine_with_partitioned()
        engine.apply_commit(1, [("t", 1, {"state": "NY"})])
        engine.apply_commit(2, [("t", 1, TOMBSTONE)])
        table = engine.table("t")
        assert table.read(1, _LATEST) is TOMBSTONE
        assert list(table.keys_at(_LATEST)) == []
        engine.apply_commit(3, [("t", 1, {"state": "CA"})])
        assert table.read(1, _LATEST)["state"] == "CA"
        assert table.read(1, 1)["state"] == "NY"

    def test_latest_ts_sees_moves(self):
        engine = _engine_with_partitioned()
        engine.apply_commit(1, [("t", 1, {"state": "NY"})])
        engine.apply_commit(5, [("t", 1, {"state": "TX"})])
        assert engine.table("t").latest_ts(1) == 5

    def test_vacuum_drops_moved_out_chains(self):
        engine = _engine_with_partitioned()
        engine.apply_commit(1, [("t", 1, {"state": "NY"})])
        engine.apply_commit(2, [("t", 1, {"state": "TX"})])
        table = engine.table("t")
        before = table.version_count()
        dropped = table.vacuum(10)
        assert dropped > 0
        assert table.version_count() < before
        assert table.read(1, _LATEST)["state"] == "TX"

    def test_repartition_preserves_content_and_history(self):
        engine = StorageEngine(name="rp")
        engine.create_table("t", key_name="k")
        engine.apply_commit(1, [("t", i, {"age": i * 10}) for i in range(1, 7)])
        engine.apply_commit(2, [("t", 1, {"age": 99})])
        snapshot_before = dict(engine.table("t").scan_at(1))
        engine.partition_table("t", range_partition("age", [35]))
        table = engine.table("t")
        assert isinstance(table, PartitionedTable)
        assert dict(table.scan_at(1)) == snapshot_before  # time travel kept
        assert dict(table.scan_at(_LATEST))[1] == {"age": 99}
        assert table.stats.row_count == 6
        assert sum(s.stats.row_count for s in table.segments) == 6

    def test_repartition_keeps_indexes(self):
        """A re-shard changes no latest value, so the new table carries
        the old one's indexes on, and commits keep them current."""
        engine = StorageEngine(name="rpi")
        engine.create_table("t", key_name="k")
        engine.apply_commit(1, [("t", i, {"age": i * 10}) for i in range(1, 7)])
        index = engine.create_index("t", "age")
        engine.partition_table("t", range_partition("age", [35]))
        assert engine.table("t").indexes.get("age") is index
        engine.apply_commit(2, [("t", 1, {"age": 99})])
        assert index.lookup(99) == {1}
        assert index.lookup(10) == set()

    def test_double_repartition(self):
        engine = _engine_with_partitioned()
        engine.apply_commit(1, [("t", i, {"state": s}) for i, s in
                               enumerate(["NY", "CA", "TX"])])
        before = dict(engine.table("t").scan_at(_LATEST))
        engine.partition_table("t", hash_partition("state", 2))
        assert dict(engine.table("t").scan_at(_LATEST)) == before


class TestRecovery:
    def test_wal_replay_reproduces_layout_byte_for_byte(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        engine = StorageEngine(name="orig", wal_path=path)
        scheme = hash_partition("state", 4)
        engine.create_table("t", key_name="k", partition_by=scheme)
        # the layout comes back from the log alone: the schema rides
        # the first record
        engine.apply_commit(1, [
            ("t", i, {"state": s, "v": i})
            for i, s in enumerate(["NY", "CA", "TX", "NY", "WA"])
        ], schemas={"t": table_schema(engine, "t")})
        engine.apply_commit(2, [("t", 0, {"state": "TX", "v": 99})])  # move
        engine.apply_commit(3, [("t", 1, TOMBSTONE)])  # delete
        recovered = StorageEngine.recover(WriteAheadLog.load(path))
        original, replayed = engine.table("t"), recovered.table("t")
        assert isinstance(replayed, PartitionedTable)
        assert replayed.layout() == original.layout()
        assert replayed._placement == original._placement
        # per-partition statistics replay identically too
        assert [s.stats.row_count for s in replayed.segments] == [
            s.stats.row_count for s in original.segments
        ]

    def test_checkpoint_roundtrips_partition_scheme(self, tmp_path):
        db = fql.connect("ckpt", default=False)
        db.create_table(
            "t",
            rows={1: {"state": "NY"}, 2: {"state": "CA"}},
            key_name="k",
            partition_by=hash_partition("state", 2),
        )
        path = str(tmp_path / "ckpt.json")
        db.checkpoint(path)
        restored = fql.FunctionalDatabase.restore(path, name="ckpt2")
        table = restored.engine.table("t")
        assert isinstance(table, PartitionedTable)
        assert table.scheme.spec() == {"kind": "hash", "attr": "state", "n": 2}
        assert dict(restored.t.items())[1]("state") == "NY"


# ---------------------------------------------------------------------------
# Statistics + cardinality
# ---------------------------------------------------------------------------


@pytest.fixture
def stored_pair():
    """The same rows, partitioned and unpartitioned."""
    rows = {
        i: {"age": 18 + (i * 13) % 60, "state": ["NY", "CA", "TX", "WA"][i % 4]}
        for i in range(1, 201)
    }
    plain = fql.connect("plain", default=False)
    plain["customers"] = rows
    part = fql.connect("part", default=False)
    part.create_table(
        "customers", rows=rows, key_name="cid",
        partition_by=hash_partition("state", 4),
    )
    return plain, part


class TestStatisticsAndCardinality:
    def test_per_partition_stats_track_writes(self, stored_pair):
        plain, part = stored_pair
        table = part.engine.table("customers")
        assert table.stats.row_count == 200
        assert sum(s.stats.row_count for s in table.segments) == 200
        # summed over segments, an attribute reads as the flat table's
        summed = table.stats.attr("age")
        flat = plain.engine.table("customers").stats.attr("age")
        assert (summed.defined, summed.values) == (flat.defined, flat.values)
        assert (summed.num_min, summed.num_max) == (flat.num_min, flat.num_max)
        assert table.stats.attr("missing") is None
        part.customers[1] = {"age": 30, "state": "NY"}
        assert table.stats.row_count == 200
        del part.customers[1]
        assert table.stats.row_count == 199
        assert sum(s.stats.row_count for s in table.segments) == 199

    def test_pruned_estimate_never_looser_and_no_double_count(
        self, stored_pair
    ):
        plain, part = stored_pair
        unpruned = estimate_cardinality(
            fql.filter(plain.customers, state="NY")
        )
        pruned = estimate_cardinality(
            fql.filter(part.customers, state="NY")
        )
        true_count = len(fql.filter(part.customers, state="NY"))
        assert pruned <= unpruned
        # per-partition selectivity must not double-count the anchor:
        # the estimate stays at least as close to truth as the global one
        assert abs(pruned - true_count) <= abs(unpruned - true_count) + 1e-9
        assert pruned >= true_count * 0.5

    def test_pruning_tightens_cardinality_estimate(self):
        """Clustered values: segment-local stats beat the global uniform
        assumption — the regression this PR pins down."""
        rows = {}
        for i in range(1, 181):
            rows[i] = {"age": 18 + i % 12, "state": "NY"}  # young cluster
        for i in range(181, 201):
            rows[i] = {"age": 60 + i % 20, "state": "CA"}  # old cluster
        plain = fql.connect("card-plain", default=False)
        plain["customers"] = rows
        part = fql.connect("card-part", default=False)
        part.create_table(
            "customers", rows=rows, key_name="cid",
            partition_by=range_partition("age", [60]),
        )
        unpruned = estimate_cardinality(
            fql.filter(plain.customers, "age >= 60")
        )
        pruned = estimate_cardinality(
            fql.filter(part.customers, "age >= 60")
        )
        true_count = len(fql.filter(part.customers, "age >= 60"))
        assert pruned < unpruned  # strictly tighter on clustered data
        assert abs(pruned - true_count) < abs(unpruned - true_count)

    def test_unprunable_predicate_estimates_match(self, stored_pair):
        plain, part = stored_pair
        a = estimate_cardinality(fql.filter(plain.customers, age__gt=50))
        b = estimate_cardinality(fql.filter(part.customers, age__gt=50))
        assert a == pytest.approx(b)


# ---------------------------------------------------------------------------
# Executor integration
# ---------------------------------------------------------------------------


class TestExecutorIntegration:
    def test_explain_renders_partition_plan(self, stored_pair):
        _plain, part = stored_pair
        text = explain(fql.filter(part.customers, state="NY"))
        assert "== partitioning ==" in text
        assert "hash(state, 4)" in text
        assert "scan 1/4 partitions (3 pruned)" in text
        # the scan line itself carries scheme, fan-out and verdict
        assert "[hash(state, 4): scan 1/4 partitions, 3 pruned]" in text

    def test_open_transaction_sees_buffer(self, stored_pair):
        _plain, part = stored_pair
        expr = fql.filter(part.customers, state="NY")
        baseline = len(expr)
        txn = part.begin()
        try:
            part.customers[9999] = {"age": 33, "state": "NY"}
            assert len(expr) == baseline + 1  # buffered write visible
        finally:
            txn.rollback()
        assert len(expr) == baseline

    def test_decimal_values_place_and_prune_with_equal_ints(self):
        from decimal import Decimal

        db = fql.connect("decimals", default=False)
        db.create_table(
            "goods",
            rows={1: {"price": 30}, 2: {"price": Decimal("30")},
                  3: {"price": 31.0}},
            key_name="k",
            partition_by=hash_partition("price", 8),
        )
        expr = fql.filter(db.goods, price=30)
        assert sorted(expr.keys()) == [1, 2]


# ---------------------------------------------------------------------------
# IVM partition routing
# ---------------------------------------------------------------------------


class TestIVMPartitionRouting:
    def test_irrelevant_partition_commits_skip_maintenance(self):
        db = fql.connect("ivm-part", default=False)
        db.create_table(
            "customers",
            rows={
                i: {"age": 20 + i, "state": ["NY", "CA", "TX", "WA"][i % 4]}
                for i in range(1, 41)
            },
            key_name="cid",
            partition_by=hash_partition("state", 4),
        )
        with using_ivm_mode("on"):
            view = maintained_view(
                fql.filter(db.customers, state="NY"), name="ny"
            )
            before = len(view)  # settle
            # a CA-partition commit: provably invisible to the NY filter
            ca_key = next(
                k for k, t in db.customers.items() if t("state") == "CA"
            )
            db.customers[ca_key]["age"] = 99
            assert view.sync() == 0
            stats = view.maintenance_stats
            assert stats["partition_skips"] == 1
            assert stats["deltas_applied"] == 0
            # a NY-partition commit must still propagate
            ny_key = next(
                k for k, t in db.customers.items() if t("state") == "NY"
            )
            del db.customers[ny_key]
            view.sync()
            assert len(view) == before - 1
            assert view.maintenance_stats["partition_skips"] == 1

    def test_reshard_invalidates_view_prune_sets(self):
        """A re-shard must not let a view skip commits that are now
        relevant under the new scheme (stale prune sets + stale tags)."""
        db = fql.connect("ivm-reshard", default=False)
        db.create_table(
            "customers",
            rows={
                i: {"age": 20 + i, "state": ["NY", "CA", "TX", "WA"][i % 4]}
                for i in range(1, 21)
            },
            key_name="cid",
            partition_by=hash_partition("state", 4),
        )
        with using_ivm_mode("on"):
            view = maintained_view(
                fql.filter(db.customers, state="NY"), name="ny"
            )
            before = len(view)
            db.partition_table(
                "customers", range_partition("age", [30])
            )
            db.customers[500] = {"age": 45, "state": "NY"}
            view.sync()
            assert len(view) == before + 1  # must not be skipped

    def test_view_without_filter_never_skips(self):
        db = fql.connect("ivm-all", default=False)
        db.create_table(
            "t",
            rows={i: {"v": i, "state": "NY" if i % 2 else "CA"}
                  for i in range(1, 11)},
            key_name="k",
            partition_by=hash_partition("state", 2),
        )
        with using_ivm_mode("on"):
            view = maintained_view(
                fql.project(db.t, ["v"]), name="all"
            )
            len(view)
            db.t[1]["v"] = 100
            view.sync()
            assert view.maintenance_stats["partition_skips"] == 0
            assert view(1)("v") == 100


def test_default_cache_unpolluted(stored_pair):
    # partitioned plans live in the engine cache, not the global default
    _plain, part = stored_pair
    assert part.engine is not None
    default_plan_cache()  # smoke: importable and callable
