"""A free-standing relation is a one-segment table (DESIGN.md §4).

``relation(...)`` owns one flat :class:`~repro.storage.table.Table`:
reads see its newest state, and each write lands at once at the next
stamp of the relation's own counter. A seeded history of every write
costume — ``[k] = row``, ``[k][a] = v``, ``del [k][a]``, ``del [k]``,
``add``, ``insert``, a nested relation as a value — interleaved with
``fql.copy`` and ``difference`` keeps the relation equal to a dict
model, batched equal to naive, and a lazy and an eager maintained view
over it equal to a recompute, under ``REPRO_IVM`` on and off.
"""

import random

import pytest

from zoo import canon_value, ordered

import repro as fql
from repro.exec import using_exec_mode
from repro.ivm import maintained_view, using_ivm_mode


def _model_value(value):
    return canon_value(fql.TupleFunction(value) if isinstance(value, dict) else value)


def _counts(stats):
    return stats.row_count, {
        name: (a.defined, a.values) for name, a in stats.attrs.items() if a.defined
    }


def _same_as_model(rel, model):
    assert [(k, canon_value(v)) for k, v in rel.items()] == [
        (k, _model_value(v)) for k, v in model.items()
    ]
    assert list(rel.keys()) == list(model)
    assert len(rel) == len(model)
    # statistics that fold writes late count what a rebuild counts
    segment = rel.table().segments[0]
    assert _counts(segment.stats) == _counts(segment._rebuilt_stats())


_QUERIES = {
    "scan": lambda r: r,
    "filter": lambda r: fql.filter(r, "v >= 4"),
    "group": lambda r: fql.group_and_aggregate(
        by=["p"], n=fql.Count(), total=fql.Sum("v"), input=r
    ),
    "order": lambda r: fql.order_by(fql.filter(r, "v >= 0"), "v"),
}


def _naive(expr):
    with using_exec_mode("naive"):
        return ordered(expr)


def _row(rng):
    row = {"p": rng.randrange(3), "v": rng.randrange(8)}
    if rng.random() < 0.2:
        del row["v"]  # an attribute a row does not define
    return row


@pytest.mark.parametrize("ivm", ["on", "off"])
@pytest.mark.parametrize("seed", range(6))
def test_a_seeded_history_over_a_free_relation(seed, ivm):
    rng = random.Random(seed)
    with using_ivm_mode(ivm):
        model = {i: _row(rng) for i in range(8)}
        rel = fql.relation(dict(model), name="t")
        views = [
            (maintained_view(build(rel), eager=eager), build)
            for build in (_QUERIES["filter"], _QUERIES["group"])
            for eager in (False, True)
        ]
        snapshot, snapshot_model = fql.copy(rel), dict(model)
        for _step in range(30):
            action = rng.choice([
                "set", "set", "set_attr", "del_attr", "del", "add",
                "insert", "nested", "copy", "difference",
            ])
            live = sorted(k for k in model if isinstance(k, int))
            rows = [k for k in live if isinstance(model[k], dict)]
            if action == "set" or not rows:
                key = rng.randrange(16)
                model[key] = _row(rng)
                rel[key] = dict(model[key])
            elif action == "set_attr":
                key = rng.choice(rows)
                model[key] = {**model[key], "v": rng.randrange(8)}
                rel[key]["v"] = model[key]["v"]
            elif action == "del_attr":
                key = rng.choice(rows)
                if "v" in model[key]:
                    model[key] = {a: x for a, x in model[key].items() if a != "v"}
                    del rel[key]["v"]
            elif action == "del":
                key = rng.choice(live)
                del model[key]
                del rel[key]
            elif action == "add":
                row = _row(rng)
                key = rel.add(dict(row))
                assert key == max(live, default=0) + 1
                model[key] = row
            elif action == "insert":
                key = rng.randrange(40, 80)
                if key in model:
                    with pytest.raises(fql.errors.DuplicateKeyError):
                        rel.insert(key, _row(rng))
                else:
                    model[key] = _row(rng)
                    rel.insert(key, dict(model[key]))
            elif action == "nested":
                key = rng.randrange(16)
                inner = {0: {"v": rng.randrange(8)}}
                model[key] = fql.relation(inner)
                rel[key] = fql.relation(dict(inner))
            elif action == "copy":
                snapshot, snapshot_model = fql.copy(rel), dict(model)
                _same_as_model(snapshot, model)
            else:
                diff = fql.difference(snapshot, rel)
                assert set(diff("added").keys()) == set(model) - set(snapshot_model)
                assert set(diff("removed").keys()) == (
                    set(snapshot_model) - set(model)
                )
                changed = {
                    k for k in set(model) & set(snapshot_model)
                    if _model_value(model[k]) != _model_value(snapshot_model[k])
                }
                assert set(diff("changed").keys()) == changed
            _same_as_model(rel, model)
            for name, build in _QUERIES.items():
                assert ordered(build(rel)) == _naive(build(rel)), name
            for view, build in views:  # maintenance keeps no order
                assert dict(ordered(view)) == dict(_naive(build(rel)))


def test_an_overwritten_key_holds_one_version():
    rel = fql.relation({1: {"v": 0}, 2: {"v": 0}})
    for i in range(1000):
        rel[1] = {"v": i}
        rel[2]["v"] = i
    assert rel.table().version_count() == 2
    assert len(rel.table().segments[0]._unfolded[0]) <= 2
    assert rel._version == 2001
    del rel[2]
    assert rel.table().version_count() == 1
    assert dict(rel(1).items()) == {"v": 999}


def test_a_bulk_build_is_one_stamp_and_builds_no_image_until_read():
    rel = fql.relation({i: {"v": i} for i in range(100)}, extra={"v": -1})
    assert rel._version == 1
    segment = rel.table().segments[0]
    assert segment._image is None
    members = dict(fql.group(rel, by="v").items())
    assert all(m.table().segments[0]._image is None for m in members.values())
    assert len(list(fql.filter(rel, "v > 50").keys())) == 49
    assert segment._image is not None


@pytest.mark.parametrize("eager", [False, True])
def test_a_predicate_assert_reaches_a_maintained_view(eager):
    # an asserted pair is a write like any other: it moves the relation's
    # counter and lands in its change log
    left = fql.relation({1: {"x": 1}, 2: {"x": 2}})
    right = fql.relation({10: {"y": 1}, 20: {"y": 2}})
    likes = fql.fdm.relationship_predicate(
        "likes", {"a": left, "b": right}, [(1, 10)]
    )
    view = maintained_view(
        fql.restrict_to_keys(likes, [(1, 10), (2, 20)]), eager=eager
    )
    assert sorted(view.keys()) == [(1, 10)]
    likes.assert_related(2, 20)
    assert sorted(view.keys()) == [(1, 10), (2, 20)]
