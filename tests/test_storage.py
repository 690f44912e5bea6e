"""Storage substrate: version chains, WAL, indexes, statistics,
checkpoints."""

import pytest

import repro as fql
from repro._util import TOMBSTONE
from repro.errors import (
    PersistenceError,
    StorageError,
    UnknownRelationError,
    WALError,
)
from repro.optimizer.cardinality import estimate_selectivity
from repro.predicates import parse_predicate
from repro.storage import (
    HashIndex,
    SortedIndex,
    StorageEngine,
    VersionedTable,
    WALRecord,
    WriteAheadLog,
    load_checkpoint,
    save_checkpoint,
)
from repro.storage.image import table_schema


class TestVersionedTable:
    def test_read_your_snapshot(self):
        t = VersionedTable("t")
        t.apply(1, {"x": 1}, ts=10)
        t.apply(1, {"x": 2}, ts=20)
        assert t.read(1, 10) == {"x": 1}
        assert t.read(1, 15) == {"x": 1}
        assert t.read(1, 20) == {"x": 2}
        assert t.read(1, 9) is TOMBSTONE

    def test_tombstones(self):
        t = VersionedTable("t")
        t.apply(1, {"x": 1}, ts=10)
        t.apply(1, TOMBSTONE, ts=20)
        assert t.exists(1, 15)
        assert not t.exists(1, 25)
        assert list(t.keys_at(25)) == []
        assert list(t.keys_at(15)) == [1]

    def test_latest_ts_drives_conflicts(self):
        t = VersionedTable("t")
        assert t.latest_ts(1) == 0
        t.apply(1, {"x": 1}, ts=10)
        assert t.latest_ts(1) == 10

    def test_monotonicity_enforced(self):
        t = VersionedTable("t")
        t.apply(1, {"x": 1}, ts=10)
        with pytest.raises(StorageError):
            t.apply(1, {"x": 2}, ts=5)

    def test_same_ts_overwrites(self):
        t = VersionedTable("t")
        t.apply(1, {"x": 1}, ts=10)
        t.apply(1, {"x": 2}, ts=10)
        assert t.read(1, 10) == {"x": 2}
        assert t.version_count() == 1

    def test_vacuum(self):
        t = VersionedTable("t")
        for ts in (10, 20, 30):
            t.apply(1, {"x": ts}, ts=ts)
        dropped = t.vacuum(25)
        assert dropped == 1  # version @10 is invisible to snapshots >= 25
        assert t.read(1, 25) == {"x": 20}
        assert t.read(1, 35) == {"x": 30}

    def test_vacuum_collapses_deleted_chains(self):
        t = VersionedTable("t")
        t.apply(1, {"x": 1}, ts=10)
        t.apply(1, TOMBSTONE, ts=20)
        t.vacuum(30)
        assert t.version_count() == 0


class TestWAL:
    def test_roundtrip_via_json(self):
        record = WALRecord(
            7, [("t", 1, {"x": 1}), ("t", (1, 2), TOMBSTONE)]
        )
        restored = WALRecord.from_json(record.to_json())
        assert restored.commit_ts == 7
        assert restored.writes[0] == ("t", 1, {"x": 1})
        assert restored.writes[1][1] == (1, 2)
        assert restored.writes[1][2] is TOMBSTONE

    def test_corrupt_record(self):
        with pytest.raises(WALError):
            WALRecord.from_json('{"nope": 1}')

    def test_file_persistence_and_load(self, tmp_path):
        path = str(tmp_path / "test.wal")
        log = WriteAheadLog(path)
        log.append(WALRecord(1, [("t", 1, {"x": 1})]))
        log.append(WALRecord(2, [("t", 1, TOMBSTONE)]))
        log.close()
        loaded = WriteAheadLog.load(path)
        assert len(loaded) == 2
        assert loaded.last_commit_ts() == 2

    def test_append_encodes_before_it_touches_anything(self, tmp_path):
        path = str(tmp_path / "test.wal")
        log = WriteAheadLog(path)
        log.append(WALRecord(1, [("t", 1, {"x": 1})]))
        for bad in ({"x": {1, 2}}, {"x": {(1, 2): 3}}, "not a tuple"):
            with pytest.raises(PersistenceError):
                log.append(WALRecord(2, [("t", 2, bad)]))
        assert len(log) == 1 and log.last_commit_ts() == 1
        log.close()
        assert len(WriteAheadLog.load(path)) == 1
        # a memory-only log never encodes, so it keeps live values
        memory = WriteAheadLog()
        memory.append(WALRecord(1, [("t", 1, {"x": {1, 2}})]))
        assert len(memory) == 1

    def test_load_drops_a_torn_tail_and_cuts_the_file_back(self, tmp_path):
        path = tmp_path / "test.wal"
        log = WriteAheadLog(str(path))
        log.append(WALRecord(1, [("t", 1, {"x": 1})]))
        log.append(WALRecord(2, [("t", 2, {"x": 2})]))
        log.close()
        good = path.read_bytes()
        path.write_bytes(good + b'{"ts": 3, "writes": [{"tab')
        loaded = WriteAheadLog.load(str(path))
        assert [r.commit_ts for r in loaded.records()] == [1, 2]
        assert loaded.torn_bytes == 26
        assert path.read_bytes() == good
        # a whole record that lost only its newline is kept, and the
        # next append still starts on a line boundary
        path.write_bytes(good[:-1])
        loaded = WriteAheadLog.load(str(path))
        assert len(loaded) == 2 and loaded.torn_bytes == 0
        assert path.read_bytes() == good
        # an undecodable *whole* line is corruption, wherever it sits:
        # it may have been acknowledged, and only it can precede a record
        first, second = good.splitlines(keepends=True)
        for corrupt in (first + b'{"ts": 9, "wr\n' + second,
                        good + b'{"ts": 9, "wr\n'):
            path.write_bytes(corrupt)
            with pytest.raises(WALError):
                WriteAheadLog.load(str(path))
            assert path.read_bytes() == corrupt  # and nothing is cut

    def test_schema_records_replay_ddl_in_commit_order(self):
        engine = StorageEngine()
        engine.create_table("t", key_name=("a", "b"), partition_by=2)
        engine.create_index("t", "x", kind="sorted")
        engine.apply_commit(
            1, [("t", (1, 2), {"x": 1})],
            schemas={"t": table_schema(engine, "t")},
        )
        engine.drop_index("t", "x")
        engine.create_index("t", "y")
        engine.apply_commit(2, [], schemas={"t": table_schema(engine, "t")})
        engine.apply_commit(3, [("old", 1, {"z": 1})])  # no schema: bare
        engine.apply_commit(4, [], schemas={"old": None})  # dropped
        recovered = StorageEngine.recover(engine.wal)
        assert recovered.table_names() == ["t"]
        assert table_schema(recovered, "t") == table_schema(engine, "t")
        assert recovered.table("t").key_name == ("a", "b")
        assert recovered.table("t").indexes.attrs() == ["y"]
        assert recovered.table("t").read((1, 2), 99) == {"x": 1}

    def test_recovery_replays_committed_state(self, tmp_path):
        path = str(tmp_path / "engine.wal")
        engine = StorageEngine(wal_path=path)
        engine.create_table("t")
        engine.apply_commit(1, [("t", 1, {"x": 1}), ("t", 2, {"x": 2})])
        engine.apply_commit(2, [("t", 1, TOMBSTONE)])
        engine.wal.close()
        recovered = StorageEngine.recover(WriteAheadLog.load(path))
        assert recovered.table("t").read(2, 99) == {"x": 2}
        assert recovered.table("t").read(1, 99) is TOMBSTONE
        assert recovered.table("t").stats.row_count == 1


class TestIndexes:
    def test_hash_index(self):
        index = HashIndex("age")
        index.update(1, TOMBSTONE, {"age": 47})
        index.update(2, TOMBSTONE, {"age": 47})
        index.update(3, TOMBSTONE, {"age": 25})
        assert index.lookup(47) == {1, 2}
        index.update(1, {"age": 47}, {"age": 48})
        assert index.lookup(47) == {2}
        assert index.lookup(48) == {1}
        index.update(2, {"age": 47}, TOMBSTONE)
        assert index.lookup(47) == set()

    def test_hash_index_ignores_undefined_attr(self):
        index = HashIndex("age")
        index.update(1, TOMBSTONE, {"name": "x"})
        assert index.lookup(None) == set()

    def test_sorted_index_range(self):
        index = SortedIndex("age")
        for key, age in [(1, 47), (2, 25), (3, 62), (4, 47)]:
            index.update(key, TOMBSTONE, {"age": age})
        assert set(index.range(lo=30)) == {1, 4, 3}
        assert set(index.range(lo=47, hi=47)) == {1, 4}
        assert set(index.range(hi=47, hi_open=True)) == {2}
        assert list(index.range(lo=100)) == []
        assert index.min_value() == 25 and index.max_value() == 62

    def test_sorted_index_update_and_delete(self):
        index = SortedIndex("age")
        index.update(1, TOMBSTONE, {"age": 10})
        index.update(1, {"age": 10}, {"age": 99})
        assert set(index.range(lo=50)) == {1}
        index.update(1, {"age": 99}, TOMBSTONE)
        assert list(index.range()) == []

    def test_engine_backfills_new_index(self):
        engine = StorageEngine()
        engine.create_table("t")
        engine.apply_commit(1, [("t", 1, {"age": 47}), ("t", 2, {"age": 25})])
        index = engine.create_index("t", "age", kind="hash")
        assert index.lookup(47) == {1}


class TestStatistics:
    def test_incremental_counts(self):
        engine = StorageEngine()
        engine.create_table("t")
        engine.apply_commit(1, [("t", 1, {"age": 47}), ("t", 2, {"age": 25})])
        stats = engine.table("t").stats
        assert stats.row_count == 2
        assert stats.attr("age").n_distinct == 2
        engine.apply_commit(2, [("t", 1, TOMBSTONE)])
        assert stats.row_count == 1
        assert stats.attr("age").n_distinct == 1

    def test_selectivities(self):
        engine = StorageEngine()
        engine.create_table("t")
        writes = [("t", i, {"age": 20 + (i % 10)}) for i in range(100)]
        engine.apply_commit(1, writes)
        age = engine.table("t").stats.attr("age")
        assert age.selectivity_eq(20) == pytest.approx(0.1)
        assert age.selectivity_eq(999) == pytest.approx(1 / 10)
        assert 0.4 < age.selectivity_range(20, 24) < 0.7
        assert age.selectivity_range(None, 19) == 0.0

    def test_nan_first_does_not_pin_range_estimates(self):
        """The bounds exclude NaN, so the order rows arrive in cannot
        turn every range estimate into 1.0."""
        values = [float("nan")] + [float(i) for i in range(100)]
        estimates = []
        for order in (values, values[::-1]):
            db = fql.connect("nan-order", default=False)
            db["t"] = {i: {"x": value} for i, value in enumerate(order)}
            estimates.append(
                estimate_selectivity(parse_predicate("x >= 90"), db.t)
            )
            db.close()
        assert estimates[0] == estimates[1]
        assert estimates[0] < 0.2

    def test_range_over_another_value_family_takes_the_default(self):
        """A string bound against numeric bounds cannot be interpolated;
        the estimate falls back instead of raising."""
        engine = StorageEngine()
        engine.create_table("t")
        engine.apply_commit(1, [("t", 1, {"a": 5}), ("t", 2, {"a": "zz"})])
        a = engine.table("t").stats.attr("a")
        assert a.selectivity_range("m", None) == pytest.approx(1 / 3)
        assert a.selectivity_range(None, 3) == 0.0


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        engine = StorageEngine()
        engine.create_table("t", key_name="cid")
        engine.create_table("r", key_name=("cid", "pid"))
        engine.apply_commit(1, [("t", 1, {"x": 1}), ("r", (1, 2), {"d": "a"})])
        engine.create_index("t", "x", kind="sorted")
        path = str(tmp_path / "ckpt.json")
        save_checkpoint(engine, path, clock=1)
        restored, clock = load_checkpoint(path)
        assert clock == 1
        assert restored.table("t").read(1, 99) == {"x": 1}
        assert restored.table("r").read((1, 2), 99) == {"d": "a"}
        assert restored.table("r").key_name == ("cid", "pid")
        assert restored.table("t").indexes.get("x").kind == "sorted"

    def test_unwritable_values_and_malformed_files_raise_typed(self, tmp_path):
        engine = StorageEngine()
        engine.create_table("t")
        engine.apply_commit(1, [("t", 1, {"x": {1, 2}})])
        path = tmp_path / "ckpt.json"
        with pytest.raises(PersistenceError):
            save_checkpoint(engine, str(path), clock=1)
        assert not path.exists()  # refused before the file was touched
        path.write_text('{"ts": 1, "tables": {"t": {"rows": [[1, {}]]}}}')
        with pytest.raises(PersistenceError):
            load_checkpoint(str(path))  # no schema member

    def test_engine_errors(self):
        engine = StorageEngine()
        engine.create_table("t")
        with pytest.raises(StorageError):
            engine.create_table("t")
        with pytest.raises(UnknownRelationError):
            engine.drop_table("nope")
        with pytest.raises(UnknownRelationError):
            engine.table("nope")
