"""Storage substrate: segments and the versions held snapshots keep,
WAL, indexes, statistics, checkpoints."""

import errno
import gc
import io
import json
import math
import os
import shutil
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro as fql
from repro._util import TOMBSTONE
from repro.errors import (
    PersistenceError,
    StorageError,
    UnknownRelationError,
    WALError,
)
from repro.optimizer.cardinality import estimate_selectivity
from repro.partition import hash_partition
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
from repro.storage.image import (
    PIECE_VALUES,
    dumps,
    encode_pieces,
    encode_record,
    table_schema,
)
from repro.storage.versioned import fold_batch


def _commit(table, key, data, ts, horizon=-1):
    """One write committed alone, with *horizon* the newest held
    snapshot: applied, then folded into the statistics."""
    batch = {}
    table.apply([key], [data], ts, batch, horizon)
    fold_batch(batch)


class TestVersionedTable:
    def test_read_your_snapshot(self):
        t = VersionedTable("t")
        _commit(t, 1, {"x": 1}, ts=10, horizon=5)  # keeps the absence
        _commit(t, 1, {"x": 2}, ts=20, horizon=15)
        assert t.read(1, 10) == {"x": 1}
        assert t.read(1, 15) == {"x": 1}
        assert t.read(1, 20) == {"x": 2}
        assert t.read(1, 9) is TOMBSTONE
        # with no snapshot held nothing is kept: an older read is refused
        u = VersionedTable("u")
        _commit(u, 1, {"x": 1}, ts=10)
        _commit(u, 1, {"x": 2}, ts=20)
        assert u.read(1, 20) == {"x": 2}
        with pytest.raises(StorageError):
            u.read(1, 15)

    def test_tombstones(self):
        t = VersionedTable("t")
        _commit(t, 1, {"x": 1}, ts=10)
        _commit(t, 1, TOMBSTONE, ts=20, horizon=15)
        assert t.read(1, 15) == {"x": 1}
        assert t.read(1, 25) is TOMBSTONE
        assert list(t.keys_at(25)) == []
        assert list(t.keys_at(15)) == [1]
        assert t.latest_ts(1) == 20  # kept for the conflict test

    def test_latest_ts_drives_conflicts(self):
        t = VersionedTable("t")
        assert t.latest_ts(1) == 0
        _commit(t, 1, {"x": 1}, ts=10)
        assert t.latest_ts(1) == 10

    def test_monotonicity_enforced(self):
        t = VersionedTable("t")
        _commit(t, 1, {"x": 1}, ts=10)
        with pytest.raises(StorageError):
            _commit(t, 1, {"x": 2}, ts=5)

    def test_same_ts_overwrites(self):
        t = VersionedTable("t")
        _commit(t, 1, {"x": 1}, ts=10)
        _commit(t, 1, {"x": 2}, ts=10)
        assert t.read(1, 10) == {"x": 2}
        assert t.version_count() == 1

    def test_vacuum(self):
        """Reclaim needs no call: a replaced version no held snapshot
        reads is not kept, and a kept one goes with its snapshot."""
        t = VersionedTable("t")
        _commit(t, 1, {"x": 10}, ts=10)
        _commit(t, 1, {"x": 20}, ts=20)  # nothing held: @10 is not kept
        assert t.version_count() == 1
        _commit(t, 1, {"x": 30}, ts=30, horizon=25)  # a snapshot at 25
        assert t.version_count() == 2
        assert t.read(1, 25) == {"x": 20}
        assert t.read(1, 35) == {"x": 30}
        t.trim(30)  # every holder is at or past 30
        assert t.version_count() == 1
        assert t.read(1, 30) == {"x": 30}

    def test_vacuum_collapses_deleted_chains(self):
        """A deleted key kept for a snapshot disappears, stamp and all,
        once no held snapshot predates the delete."""
        t = VersionedTable("t")
        _commit(t, 1, {"x": 1}, ts=10)
        _commit(t, 1, TOMBSTONE, ts=20, horizon=15)
        assert t.version_count() == 1
        t.trim(20)
        assert t.version_count() == 0
        assert t.latest_ts(1) == 0


class TestRetention:
    """What the store keeps, as counts: the newest rows are one dict of
    scalar rows, and a replaced version lives only while a registered
    snapshot reads it (DESIGN.md §4)."""

    def test_a_load_adds_no_collector_tracked_object_per_row(self):
        rows = {i: {"v": i, "s": f"s{i % 7}"} for i in range(10_000)}
        db = fql.connect("tracked", default=False)
        db.create_table("t")
        gc.collect()
        before = len(gc.get_objects())
        db["t"] = rows
        added = len(gc.get_objects()) - before
        assert added / len(rows) <= 0.01, added
        db.close()

    @staticmethod
    def _churn(db, updates=3000, keys=50):
        for i in range(updates):
            db.t[i % keys] = {"v": i}

    def test_updates_with_no_open_snapshot_keep_only_the_live_rows(self):
        db = fql.connect("churn", default=False)
        db["t"] = {k: {"v": -1} for k in range(50)}
        self._churn(db)
        assert db.engine.version_count() == 50
        db.close()

    def test_an_open_snapshot_keeps_one_version_per_key_it_reads(self):
        db = fql.connect("churn-held", default=False)
        db["t"] = {k: {"v": -1} for k in range(50)}
        reader = db.manager.begin(activate=False)
        self._churn(db)
        assert db.engine.version_count() == 50 + 50
        reader.attach()
        assert {k: t("v") for k, t in db.t.items()} == dict.fromkeys(range(50), -1)
        reader.rollback()
        assert db.engine.version_count() == 50
        assert {k: t("v") for k, t in db.t.items()} == {
            k: 2950 + k for k in range(50)
        }
        db.close()


class TestWAL:
    def test_roundtrip_via_json(self):
        record = WALRecord(
            7, [("t", 1, {"x": 1}), ("t", (1, 2), TOMBSTONE)]
        )
        restored = WALRecord.from_json(record.to_json())
        assert restored.commit_ts == 7
        assert restored.writes == {"t": ([1], [{"x": 1}], [(1, 2)])}

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

    def test_a_record_failing_on_its_last_row_leaves_nothing(self, tmp_path):
        path = tmp_path / "test.wal"
        log = WriteAheadLog(str(path))
        log.append(WALRecord(1, [("t", 1, {"x": 1})]))
        before = path.read_bytes()
        writes = [("t", k, {"x": k}) for k in range(4_999)]
        writes.append(("t", 4_999, {"x": {1, 2}}))  # a set: not JSON
        with pytest.raises(PersistenceError):
            log.append(WALRecord(2, writes))
        assert path.read_bytes() == before
        assert [r.commit_ts for r in log.records()] == [1]
        log.close()

    def test_a_failed_fsync_cuts_the_record_back_off(self, tmp_path, monkeypatch):
        path = tmp_path / "test.wal"
        log = WriteAheadLog(str(path))
        log.append(WALRecord(1, [("t", 1, {"x": 1})]))
        log.close()
        log.reopen()  # the length to cut back to is read when the file opens
        before = path.read_bytes()
        monkeypatch.setattr(os, "fsync", _fail)
        with pytest.raises(WALError):
            log.append(WALRecord(2, [("t", 2, {"x": 2})]))
        monkeypatch.undo()
        assert path.read_bytes() == before and len(log) == 1
        log.append(WALRecord(3, [("t", 3, {"x": 3})]))
        log.close()
        assert [r.commit_ts for r in WriteAheadLog.load(str(path)).records()] == [
            1, 3
        ]

    def test_a_log_it_cannot_cut_back_refuses_appends(self, tmp_path, monkeypatch):
        log = WriteAheadLog(str(tmp_path / "test.wal"))
        monkeypatch.setattr(os, "fsync", _fail)
        monkeypatch.setattr(os, "ftruncate", _fail)
        with pytest.raises(WALError):
            log.append(WALRecord(1, [("t", 1, {"x": 1})]))
        monkeypatch.undo()
        with pytest.raises(WALError, match="closed"):
            log.append(WALRecord(2, [("t", 2, {"x": 2})]))
        assert len(log) == 0
        log.close()

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


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _spelled(record):
    """A record's blocks with every row as its items in order, values
    by ``repr`` (NaN equals itself, -0.0 differs from 0.0, 1 from 1.0)."""
    return {
        table: (keys, [repr(list(row.items())) for row in rows], deleted)
        for table, (keys, rows, deleted) in record.writes.items()
    }


class TestBlockCodec:
    """A record carries one block per table; every carrier reads it back."""

    def _roundtrip(self, record):
        line = record.to_json()
        restored = WALRecord.from_json(line)
        assert restored.commit_ts == record.commit_ts
        assert restored.schemas == record.schemas
        assert _spelled(restored) == _spelled(record)
        assert restored.to_json() == line  # re-encoding is byte-identical
        return restored

    def test_multi_table_records_and_tombstones(self):
        record = WALRecord(3, {
            "a": {1: {"x": 1}, 2: TOMBSTONE, 3: {"x": 3}},
            "b": {"k": TOMBSTONE},
        }, {"c": None})
        restored = self._roundtrip(record)
        assert restored.writes == {
            "a": ([1, 3], [{"x": 1}, {"x": 3}], [2]),
            "b": ([], [], ["k"]),
        }
        payload = encode_record(record)
        assert payload["blocks"]["a"]["deleted"] == [2]
        assert "deleted" not in encode_record(WALRecord(1, {"a": {1: {}}}))["blocks"]["a"]

    def test_rows_changing_shape_mid_block_keep_their_order(self):
        rows = [{"a": 1, "b": 2}, {"b": 2, "a": 1}, {}, {}, {"a": 1},
                {"a": 1, "b": 2}, {"ñ": 0, "": 1}]
        record = WALRecord(1, [("t", i, row) for i, row in enumerate(rows)])
        restored = self._roundtrip(record)
        assert [list(row) for row in restored.writes["t"].rows] == [
            list(row) for row in rows
        ]
        runs = encode_record(record)["blocks"]["t"]["runs"]
        assert [run[0] for run in runs] == [1, 1, 2, 1, 1, 1]

    def test_names_go_as_json_writes_a_dicts(self):
        """As an image writes them (``json.dumps`` of the row), so every
        carrier reads the same names back."""
        row = {1: "int", None: 0, 2.5: "float", True: "bool", "s": 1}
        restored = WALRecord.from_json(WALRecord(1, [("t", 1, row)]).to_json())
        assert restored.writes["t"].rows == [json.loads(json.dumps(row))]

    def test_tuple_and_composite_keys(self):
        keys = [(1, "x"), ((1, 2), "y"), ("z",), 7, "s"]
        record = WALRecord(1, {"t": {k: {"v": i} for i, k in enumerate(keys)}})
        record.writes["t"].deleted.append((9, (8, 7)))
        restored = self._roundtrip(record)
        assert restored.writes["t"].keys == keys
        assert restored.writes["t"].deleted == [(9, (8, 7))]

    def test_json_plain_hostile_values(self):
        row = {"neg_zero": -0.0, "big": 2**63, "nan": float("nan"),
               "text": "ñ日本\u2028", "nested": [[1, None], {"a": [True]}],
               "map": {"deep": {"er": [-0.0]}}}
        restored = self._roundtrip(WALRecord(1, [("t", 1, row)]))
        got = restored.writes["t"].rows[0]
        assert math.copysign(1.0, got["neg_zero"]) == -1.0
        assert got["big"] == 2**63 and isinstance(got["big"], int)
        assert math.isnan(got["nan"])
        assert got["text"] == row["text"]
        assert got["nested"] == row["nested"] and got["map"] == row["map"]

    @pytest.mark.parametrize("bad", [
        {"x": {1, 2}},                  # a value JSON refuses
        {frozenset(): "set attribute"},  # a name JSON refuses
        {("x", 1): "tuple attribute"},  # so is a tuple
        "not a tuple",
    ])
    def test_a_refused_value_leaves_the_file_as_it_was(self, bad, tmp_path):
        path = tmp_path / "test.wal"
        log = WriteAheadLog(str(path))
        log.append(WALRecord(1, [("t", 1, {"x": 1})]))
        before = path.read_bytes()
        writes = [("t", k, {"x": k}) for k in range(2 * PIECE_VALUES)]
        with pytest.raises(PersistenceError):
            log.append(WALRecord(2, writes + [("t", -1, bad)]))
        assert path.read_bytes() == before and len(log) == 1
        log.close()

    @pytest.mark.parametrize("damage", [
        lambda b: b["keys"].append(99),        # a key with no row
        lambda b: b["values"].append(1),       # a value past the runs
        lambda b: b["runs"][0].__setitem__(0, 3),  # a run past the values
    ])
    def test_a_block_whose_parts_disagree_is_corrupt(self, damage):
        payload = encode_record(WALRecord(1, [("t", 1, {"x": 1}), ("t", 2, {"x": 2})]))
        damage(payload["blocks"]["t"])
        with pytest.raises(WALError):
            WALRecord.from_json(dumps(payload))

    def test_a_log_of_row_form_records_still_opens(self, tmp_path):
        """A log written before blocks (one dict per row) reopens, and
        new commits append blocks to it."""
        path = os.fspath(tmp_path / "old.wal")
        shutil.copy(os.path.join(FIXTURES, "row_form.wal"), path)
        db = fql.connect("old-log", wal_path=path, default=False)
        customers = {k: dict(v.items()) for k, v in db.customers.items()}
        assert customers == {
            1: {"name": "ann", "age": 30, "state": "NY"},
            2: {"name": "bo", "age": 41, "state": "TX"},
            4: {"name": "di", "age": 23, "state": "TX"},
        }
        pairs = {k: dict(v.items()) for k, v in db.pairs.items()}
        assert pairs == {(2, "b"): {"n": 2.5, "note": "ñ日"},
                         (3, "c"): {"n": -0.0, "big": 2**63}}
        table = db.engine.table("customers")
        assert table.key_name == "cid" and table.indexes.attrs() == ["age"]
        # key 3, deleted at 7, is gone: no snapshot was held to keep it
        assert table.layout() == {
            0: {1: [(2, {"name": "ann", "age": 30, "state": "NY"})]},
            1: {2: [(6, {"name": "bo", "age": 41, "state": "TX"})],
                4: [(8, {"name": "di", "age": 23, "state": "TX"})]},
        }
        db.customers[5] = {"name": "ed", "age": 60, "state": "NY"}
        layout = {n: db.engine.table(n).layout() for n in ("customers", "pairs")}
        db.close()
        with open(path, "rb") as f:
            assert b'"blocks"' in f.read().splitlines()[-1]
        again = fql.connect("old-log", wal_path=path, default=False)
        assert {n: again.engine.table(n).layout() for n in layout} == layout
        again.close()


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

    def test_a_checkpoint_is_one_record_line(self, tmp_path):
        """The file is one WAL line: every table's catalog entry and one
        block of its live rows, an empty table and a tuple-keyed one
        among them; it opens as a one-record log too."""
        engine = StorageEngine()
        engine.create_table("r", key_name=("cid", "pid"))
        engine.create_table("empty", key_name="eid")
        engine.apply_commit(1, [("r", (1, 2), {"d": "a"}), ("r", (3, 4), {"d": "b"})])
        engine.apply_commit(2, [("r", (1, 2), TOMBSTONE)])
        path = str(tmp_path / "ckpt")
        save_checkpoint(engine, path, clock=2)
        [record] = WriteAheadLog.load(path).records()
        assert record.commit_ts == 2
        assert record.schemas == {n: table_schema(engine, n) for n in ("r", "empty")}
        assert record.writes == {"r": ([(3, 4)], [{"d": "b"}], []),
                                 "empty": ([], [], [])}
        restored, clock = load_checkpoint(path)
        assert clock == 2 and restored.table_names() == ["r", "empty"]
        assert list(restored.table("r").scan_at(2)) == [((3, 4), {"d": "b"})]
        assert restored.table("r").key_name == ("cid", "pid")
        assert restored.table("empty").count_at(2) == 0
        assert table_schema(restored, "empty") == table_schema(engine, "empty")

    @pytest.mark.parametrize("failing", ["write", "fsync"])
    def test_a_failed_write_keeps_the_previous_checkpoint(self, tmp_path, failing):
        """The new file is written aside and renamed over the old one:
        a write that fails after its first piece, or an ``fsync`` that
        fails, leaves the previous checkpoint as it was and nothing
        else behind."""
        engine = StorageEngine()
        engine.create_table("t")
        engine.apply_commit(1, [("t", i, {"x": i}) for i in range(2 * PIECE_VALUES)])
        path = tmp_path / "ckpt"
        save_checkpoint(engine, str(path), clock=1)
        before = path.read_bytes()
        engine.apply_commit(2, [("t", 0, {"x": "new"})])

        class Torn(io.FileIO):  # unbuffered: every piece is one write
            def write(self, piece):
                if self.tell():
                    raise OSError(errno.EIO, "injected I/O error")
                return super().write(piece)

        if failing == "write":
            patch = mock.patch("repro.storage.persist.open", Torn, create=True)
        else:
            patch = mock.patch.object(os, "fsync", _fail)
        with patch, pytest.raises(PersistenceError):
            save_checkpoint(engine, str(path), clock=2)
        assert os.listdir(tmp_path) == ["ckpt"] and path.read_bytes() == before
        restored, clock = load_checkpoint(str(path))
        assert clock == 1 and restored.table("t").read(0, 1) == {"x": 0}
        save_checkpoint(engine, str(path), clock=2)  # and the next one lands
        assert load_checkpoint(str(path))[0].table("t").read(0, 2) == {"x": "new"}

    def test_an_image_form_checkpoint_still_loads(self, tmp_path):
        """``fixtures/image_form.ckpt`` was written when a checkpoint was
        an image (``{"ts", "tables"}``, one ``[key, data]`` pair a row).
        It loads to the rows, placement and catalog that a checkpoint
        of the same history writes now."""
        old, clock = load_checkpoint(os.path.join(FIXTURES, "image_form.ckpt"))
        db = fql.connect("image-form", default=False)
        db.create_table("customers", {
            1: {"name": "ann", "age": 30, "state": "NY"},
            2: {"name": "bo", "age": 41, "state": "TX"},
            3: {"name": "cy", "age": 35, "state": "CA"},
        }, key_name="cid", partition_by=hash_partition("state", 2))
        db.create_index("customers", "age", kind="sorted")
        db.create_table("pairs", {(2, "b"): {"n": 2.5, "note": "ñ日"}},
                        key_name=("i", "k"))
        db.create_table("empty", {}, key_name="eid")
        db.pairs[(3, "c")] = {"n": -0.0, "big": 2**63, 1: "int name"}
        db.customers[2]["state"] = "NY"
        del db.customers[3]
        db.customers[4] = {"name": "di", "age": 23, "state": "TX"}
        db.checkpoint(str(tmp_path / "now.ckpt"))
        new, now = load_checkpoint(str(tmp_path / "now.ckpt"))
        assert clock == now == 10
        assert old.table_names() == new.table_names() == ["customers", "pairs", "empty"]
        for name in old.table_names():
            assert table_schema(old, name) == table_schema(new, name)
            assert repr(old.table(name).layout()) == repr(new.table(name).layout())
        assert old.table("customers").layout() == {
            0: {1: [(10, {"name": "ann", "age": 30, "state": "NY"})],
                2: [(10, {"name": "bo", "age": 41, "state": "NY"})]},
            1: {4: [(10, {"name": "di", "age": 23, "state": "TX"})]},
        }
        assert old.table("pairs").read((3, "c"), 10) == {
            "n": -0.0, "big": 2**63, "1": "int name"}
        assert table_schema(old, "customers")["indexes"] == [
            {"attr": "age", "kind": "sorted"}]

    def test_engine_errors(self):
        engine = StorageEngine()
        engine.create_table("t")
        with pytest.raises(StorageError):
            engine.create_table("t")
        with pytest.raises(UnknownRelationError):
            engine.drop_table("nope")
        with pytest.raises(UnknownRelationError):
            engine.table("nope")


def _fail(*_args):
    raise OSError(errno.EIO, "injected I/O error")


_json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),  # NaN and the infinities included: json writes them
    st.text(max_size=4),  # non-ASCII included: json escapes it
)

_records = st.builds(
    WALRecord,
    st.integers(1, 2**40),
    st.lists(
        st.tuples(
            st.sampled_from(["t", "tëst"]),
            st.one_of(
                st.integers(),
                st.text(max_size=3),
                st.tuples(st.integers(), st.text(max_size=2)),
            ),
            st.one_of(
                st.just(TOMBSTONE),
                st.dictionaries(st.text(max_size=3), _json_values, max_size=3),
            ),
        ),
        max_size=7,
    ),
    st.one_of(
        st.none(),
        st.just({}),
        st.dictionaries(
            st.sampled_from(["t", "tëst"]),
            st.one_of(st.none(), st.just({"key_name": ["a", "b"]})),
            max_size=2,
        ),
    ),
)


@settings(max_examples=200, deadline=None)
@given(_records)
def test_a_record_in_pieces_is_its_line_byte_for_byte(record):
    """Tuple keys, tombstones, non-ASCII text, rows changing shape,
    schemas and empty writes: the pieces concatenate to the one-dict
    encoding at any piece size; a record is cut exactly when its blocks'
    lists (keys, runs, values, deletes) hold more than one piece, and
    then no piece encodes a list longer than one piece or a whole dict."""
    payload = encode_record(record)
    line = dumps(payload)
    held = sum(len(part) for b in payload["blocks"].values() for part in b.values())
    for size in (1, 2, 1024):
        encoded = []

        def spy(value):
            encoded.append(value)
            return dumps(value)

        with mock.patch("repro.storage.image.PIECE_VALUES", size), \
                mock.patch("repro.storage.image.dumps", spy):
            pieces = list(encode_pieces(record))
        assert "".join(pieces) == line
        assert (len(pieces) > 1) == (held > size)
        if held > size:
            assert all(len(v) <= size for v in encoded if isinstance(v, list))
            assert not any(v for v in encoded if isinstance(v, dict))
    assert record.to_json() == line


def test_a_delete_only_record_is_cut_too():
    record = WALRecord(1, {"t": {(k, "k"): TOMBSTONE for k in range(9)}})
    with mock.patch("repro.storage.image.PIECE_VALUES", 4):
        pieces = list(encode_pieces(record))
    assert "".join(pieces) == record.to_json() and len(pieces) > 3
