"""Zone-map unit tests (DESIGN.md §13).

A segment's statistics double as its zone map. Covers their
bound-tracking lattice (:class:`AttrStatistics` /
:class:`TableStatistics`), the conservative may-analysis
(:func:`zone_may_match`), maintenance on commit, accumulate-only
soundness after DML, narrowing by a re-partition, and the resource-meter
counts that certify segments were actually skipped.
"""

import math
import re

import pytest

import repro as fql
from repro._util import TOMBSTONE
from repro.exec import explain, using_exec_mode
from repro.obs.resources import metered
from repro.partition import hash_partition, range_partition
from repro.predicates import parse_predicate
from repro.storage.stats import AttrStatistics, TableStatistics, zone_may_match


def _zone(*rows):
    zone = TableStatistics()
    for row in rows:
        zone.on_write(TOMBSTONE, row)
    return zone


def _segments(db, name="events"):
    """Each segment's statistics, in partition order."""
    table = db.engine.table(name)
    return [segment.stats for segment in table.segments]


def _zones(db):
    """Zone-map segments (skipped, scanned) by every query so far."""
    totals = db.stats()["resources"]["totals"]
    return totals["zone_segments_skipped"], totals["zone_segments_scanned"]


def _may(zone, source):
    return zone_may_match(zone, parse_predicate(source))


# -- AttrStatistics bound tracking ------------------------------------------


class TestAttrZone:
    """The bounds half of :class:`AttrStatistics`."""

    def test_numeric_bounds(self):
        az = AttrStatistics()
        for v in (5, 2.5, 9, -1):
            az.add(v)
        assert (az.num_min, az.num_max) == (-1, 9)
        assert az.str_min is None and not az.other

    def test_string_bounds_separate_from_numeric(self):
        az = AttrStatistics()
        az.add("mango")
        az.add(7)
        az.add("apple")
        assert (az.str_min, az.str_max) == ("apple", "mango")
        assert (az.num_min, az.num_max) == (7, 7)
        assert not az.other  # mixed types are fine, not opaque

    def test_bool_unifies_with_numeric(self):
        az = AttrStatistics()
        az.add(True)
        az.add(5)
        assert (az.num_min, az.num_max) == (1, 5)
        assert not az.other

    def test_none_sets_other(self):
        az = AttrStatistics()
        az.add(None)
        assert az.other and az.num_min is None

    def test_nan_sets_other_not_bounds(self):
        az = AttrStatistics()
        az.add(float("nan"))
        assert az.num_min is None and az.num_max is None
        assert az.other  # NaN is incomparable: ranges become inconclusive

    def test_container_sets_other(self):
        az = AttrStatistics()
        az.add([1, 2])
        assert az.other


class TestZoneMap:
    """:class:`TableStatistics` read as a segment's zone map."""

    def test_per_attr_zones_and_row_count(self):
        zone = _zone({"a": 1, "b": "x"}, {"a": 3})
        assert zone.row_count == 2
        assert zone.attrs["a"].num_max == 3
        assert zone.attrs["b"].defined == 1

    def test_non_dict_rows_make_zone_opaque(self):
        zone = _zone({"a": 1}, "not-a-dict")
        assert zone.opaque
        assert _may(zone, "a > 100")  # opaque: never skip


# -- zone_may_match ----------------------------------------------------------


class TestMayMatch:
    ZONE = _zone(
        {"age": 20, "state": "CA", "amount": 1.5},
        {"age": 60, "state": "NY"},
    )

    @pytest.mark.parametrize(
        "source,expected",
        [
            ("age == 40", True),
            ("age == 5", False),
            ("age == 61", False),
            ("age < 20", False),
            ("age < 21", True),
            ("age <= 20", True),
            ("age <= 19", False),
            ("age > 60", False),
            ("age > 59", True),
            ("age >= 60", True),
            ("age >= 61", False),
            ("age != 999", True),  # != is always inconclusive
            ("40 < age", True),  # flipped literal-first comparison
            ("age between 30 and 50", True),
            ("age between 61 and 70", False),
            ("age between 0 and 19", False),
            ("age in [5, 40]", True),
            ("age in [5, 6]", False),
            ("age not in [5, 6]", True),  # negated membership: scan
            ("state == 'CA'", True),
            ("state == 'AA'", False),
            ("state == 'ZZ'", False),
            ("missing == 1", False),  # attr never defined: cannot match
            ("missing != 1", False),  # ditto: no version defines it at all
            ("age == 40 and state == 'ZZ'", False),
            ("age == 40 or state == 'ZZ'", True),
            ("age == 5 or state == 'ZZ'", False),
            ("not (age > 100)", True),  # Not: inconclusive
            ("age == None", True),  # None parses as a name: inconclusive
            ("__key__ == 3", True),  # zones cover attrs, not keys
        ],
    )
    def test_verdicts(self, source, expected):
        assert _may(self.ZONE, source) is expected

    def test_bool_constant_tests_numeric_bounds(self):
        zone = _zone({"flag": 0}, {"flag": 1})
        assert _may(zone, "flag == True")
        assert not _may(_zone({"flag": 5}), "flag == True")

    def test_other_flag_disables_skipping_for_that_attr(self):
        zone = _zone({"age": 20}, {"age": None})
        assert _may(zone, "age == 999")  # could hide behind `other`

    def test_nan_zone_is_inconclusive(self):
        zone = _zone({"score": float("nan")})
        assert _may(zone, "score > 10")

    def test_none_zone_is_none_and_empty(self):
        assert zone_may_match(None, parse_predicate("age > 1"))
        empty = TableStatistics()
        assert not zone_may_match(empty, parse_predicate("age > 1"))

    def test_opaque_lambda_is_inconclusive(self):
        from repro.predicates.ast import FuncCall  # noqa: F401  (exists)

        # anything the analysis cannot see through must return True —
        # probe via a predicate shape the walker does not handle
        pred = parse_predicate("age + 1 > 100")
        assert zone_may_match(self.ZONE, pred)


# -- engine maintenance and soundness ---------------------------------------


def _events_db(name):
    db = fql.connect(name, default=False)
    db.create_table(
        "events",
        rows={i: {"seq": i, "ts": 100 + i} for i in range(400)},
        partition_by=range_partition("seq", [100, 200, 300]),
    )
    return db


class TestEngineMaintenance:
    def test_zone_maps_exist_per_segment(self):
        db = _events_db("zm-exist")
        zones = _segments(db)
        assert len(zones) == 4
        assert [z.attrs["ts"].num_min for z in zones] == [100, 200, 300, 400]
        db.close()

    def test_commit_widens_zone(self):
        db = _events_db("zm-widen")
        db.events[1000] = {"seq": 50, "ts": 9_999}
        zone = _segments(db)[0]
        assert zone.attrs["ts"].num_max == 9_999
        db.close()

    def test_post_dml_staleness_is_sound_not_tight(self):
        """Updating a row out of a zone's range leaves the old bound in
        place (accumulate-only): the segment still scans for the old
        value — conservative, never wrong — and query results stay
        exact either way."""
        db = _events_db("zm-stale")
        db.events[150]["ts"] = 5  # moves ts out of segment 1's [200, 299]
        zone = _segments(db)[1]
        assert zone.attrs["ts"].num_min == 5  # widened down
        assert zone.attrs["ts"].num_max == 299  # old bound retained
        got = dict(fql.filter(db.events, "ts == 5").items())
        assert set(got) == {150}
        db.close()

    def test_rebuild_covers_all_versions(self):
        """A re-shard replays every version a held snapshot reads into
        the new segments, so their bounds cover that reader too."""
        db = _events_db("zm-rebuild")
        db.events[0]["ts"] = -7
        reader = db.manager.begin(activate=False)  # reads ts = -7
        db.events[0]["ts"] = 150
        db.partition_table("events", range_partition("seq", [100, 300]))
        reader.attach()
        assert db.events(0)("ts") == -7
        reader.commit()
        zone = _segments(db)[0]
        assert zone.attrs["ts"].num_min == -7  # an old version observed
        assert zone.attrs["ts"].num_max == 199
        assert zone.row_count == 100  # counts follow the latest state
        db.close()

    def test_partition_table_rebuilds_zones(self):
        db = fql.connect("zm-repart", default=False)
        db["events"] = {i: {"seq": i, "ts": 100 + i} for i in range(400)}
        assert len(_segments(db)) == 1
        db.partition_table("events", range_partition("seq", [200]))
        zones = _segments(db)
        assert len(zones) == 2
        assert zones[1].attrs["ts"].num_min == 300
        db.close()


class TestExecutorSkipping:
    def test_counters_prove_segments_skipped(self):
        db = _events_db("zm-count")
        expr = fql.filter(db.events, "ts >= 450")
        got = dict(expr.items())
        assert set(got) == set(range(350, 400))
        assert _zones(db) == (3, 1)
        db.close()

    def test_open_transaction_falls_back_to_row_scan(self):
        db = _events_db("zm-txn")
        with db.transaction():
            db.events[1000] = {"seq": 399, "ts": 451}
            got = dict(fql.filter(db.events, "ts >= 450").items())
            assert set(got) == set(range(350, 400)) | {1000}
            assert _zones(db) == (0, 0)  # no skipping
        db.close()

    def test_skipping_respects_nan_rows(self):
        """A NaN value poisons the attr zone (other=True), so a filter
        over that attribute scans the segment instead of skipping —
        soundness over tightness."""
        db = fql.connect("zm-nan", default=False)
        db.create_table(
            "m",
            rows={
                0: {"seq": 0, "v": float("nan")},
                1: {"seq": 1, "v": 2.0},
                2: {"seq": 100, "v": 3.0},
            },
            partition_by=range_partition("seq", [50]),
        )
        got = dict(fql.filter(db.m, "v > 100").items())
        assert got == {}
        # segment 0 holds the NaN: must have been scanned, not skipped
        assert _zones(db)[1] >= 1
        db.close()


def test_substring_in_never_skips_as_element_in():
    """``s in 'abc'`` is substring matching: the characters of the
    string bound nothing about which rows match, so no segment is
    skipped on them."""
    db = fql.connect("zm-substring", default=False)
    db["t"] = {1: {"s": "ab"}, 2: {"s": "ab"}}
    expr = fql.filter(db.t, "s in $c", {"c": "abc"})
    assert sorted(expr.keys()) == [1, 2]
    with using_exec_mode("naive"):
        assert sorted(expr.keys()) == [1, 2]
    pred = parse_predicate("s in $c").bind({"c": "abc"})
    assert zone_may_match(_segments(db, "t")[0], pred)
    db.close()


def test_explain_reports_zone_verdicts():
    db = _events_db("zm-explain")
    text = explain(fql.filter(db.events, "ts >= 450"))
    assert "== batching ==" in text
    assert "zone maps" in text
    assert "3 skipped" in text
    db.close()


_ZONE_LINE = re.compile(
    r"zone maps 't': scan (\d+)/(\d+) segments \((\d+) skipped\)"
)


@pytest.mark.parametrize(
    "scheme",
    [None, hash_partition("p", 4), range_partition("v", [100, 200, 300])],
    ids=["flat", "hash", "range"],
)
@pytest.mark.parametrize(
    "source", ["p == 1", "v >= 350", "p == 1 and v < 150", "v > 1000"]
)
def test_explain_zone_counts_are_the_scans(scheme, source):
    """Explain tests zone maps on the segments the scan reaches, not on
    every segment: its counts are the meter's for a run now."""
    db = fql.connect("zm-explain-meter", default=False)
    db.create_table(
        "t", rows={i: {"p": i % 4, "v": i} for i in range(400)},
        partition_by=scheme,
    )
    expr = fql.filter(db.t, source)
    with using_exec_mode("batch"):
        scanned, reached, skipped = map(
            int, _ZONE_LINE.search(explain(expr)).groups()
        )
        with metered(db.engine) as meter:
            got = dict(expr.items())
    assert scanned + skipped == reached
    assert (scanned, skipped) == (
        meter.zone_segments_scanned, meter.zone_segments_skipped
    )
    with using_exec_mode("naive"):
        assert got == dict(expr.items())
    db.close()


def test_vacuum_then_rebuild_narrows_zones():
    """Bounds only widen at commit, though no snapshot holds the version
    with the out-of-range value; a re-partition rebuilds the segments'
    statistics from the versions held, and the segment is skipped
    again."""
    db = _events_db("zm-vacuum")
    db.events[0]["ts"] = -7  # out of segment 0's [100, 199] ...
    db.events[0]["ts"] = 150  # ... and back: -7 lives on in a dead version
    expr = fql.filter(db.events, "ts < 0")
    assert dict(expr.items()) == {}
    assert _zones(db) == (3, 1)  # the bound still says -7
    assert db.engine.version_count() == 400  # nothing was kept for -7
    db.partition_table("events", range_partition("seq", [100, 200, 300]))
    assert _segments(db)[0].attrs["ts"].num_min == 101
    assert dict(expr.items()) == {}
    assert _zones(db) == (3 + 4, 1)  # now all four segments skip
    db.close()


def test_math_isnan_guard():
    # regression guard for AttrStatistics.add(): NaN != NaN is load-bearing
    assert math.isnan(float("nan"))
