"""A seeded history fuzzer checked against a snapshot-isolation model.

One thread interleaves detached transactions on one durable database:
begin, point reads, scans and queries inside a transaction and outside
one, writes and deletes (in a transaction, or as a one-statement
autocommit), commit, rollback, re-partitioning, close and reopen from
the WAL, a checkpoint taken with sessions open and restored beside the
database, and writes to a free-standing relation. The steps are the
history of ``tests/test_one_table.py`` (insert, update, delete,
reinsert, reopen) spread over several open snapshots.

Every read is checked against a model of the committed states:

* a transaction sees the state at its start stamp plus its own writes;
* a read outside a transaction sees the newest state, and the naive,
  batched and offloaded executors return it in one order; it also
  reads a lazy and an eager maintained group view over ``t`` (attached
  again after each reopen), which hold the newest state's groups;
* a commit aborts (first-committer-wins) exactly when the model says a
  key it writes was written by a commit after its snapshot, and every
  writing commit, re-partition included, takes the next stamp;
* a database restored from a checkpoint holds the newest state at the
  newest stamp, in the scan order of the database it was taken from,
  and every query answers alike over it in the naive and batched
  executors;
* a free-standing relation enumerates in insertion order, a delete
  taking its key out (Python dict order).

``HISTORY_SEED`` moves the base seed and ``HISTORY_SEEDS`` /
``HISTORY_STEPS`` the budget (``make history`` runs a longer one). A
failure names the seed and the last steps.
"""

import os
import random

import pytest

import repro
from repro import fql
from repro.compile import set_offload_mode, using_offload_mode
from repro.errors import TransactionConflictError
from repro.exec import set_exec_mode, using_exec_mode
from repro.partition import hash_partition

BASE_SEED = int(os.environ.get("HISTORY_SEED", "20261019"))
SEEDS = int(os.environ.get("HISTORY_SEEDS", "6"))
STEPS = int(os.environ.get("HISTORY_STEPS", "160"))
KEYS = 12
MAX_OPEN = 3


@pytest.fixture(autouse=True)
def _reset_modes():
    set_exec_mode(None)
    set_offload_mode(None)
    yield
    set_exec_mode(None)
    set_offload_mode(None)


class Model:
    """The committed states of table ``t``, one per stamp."""

    def __init__(self, clock, rows):
        self.clock = clock
        self.states = {clock: dict(rows)}
        #: key → stamp of the newest commit that wrote or deleted it
        self.written = {}

    def newest(self):
        return self.states[self.clock]

    def commit(self, writes):
        """Apply ``{key: row or None}`` at the next stamp."""
        state = dict(self.newest())
        for key, row in writes.items():
            if row is None:
                state.pop(key, None)
            else:
                state[key] = row
            self.written[key] = self.clock + 1
        self.tick(state)

    def tick(self, state=None):
        """A commit that changes no row (a schema change)."""
        state = dict(self.newest() if state is None else state)
        self.clock += 1
        self.states[self.clock] = state


class Session:
    """One detached transaction and what the model expects it to see."""

    def __init__(self, txn, start):
        self.txn = txn
        self.start = start
        self.buffer = {}  # key → row, or None for a delete

    def view(self, model):
        state = dict(model.states[self.start])
        for key, row in self.buffer.items():
            if row is None:
                state.pop(key, None)
            else:
                state[key] = row
        return state


def _row(rng):
    row = {"p": rng.randrange(3), "v": rng.randrange(8)}
    if rng.random() < 0.3:
        row["s"] = rng.choice([None, "a", "b", 1.5])
    return row


def _pairs(relation, query):
    return [(k, dict(v.items())) for k, v in query(relation).items()]


_QUERIES = {
    "scan": lambda t: t,
    "filter": lambda t: fql.filter(t, "v >= 4"),
    "group": lambda t: fql.group_and_aggregate(
        by=["p"], total=fql.Sum("v"), input=t
    ),
}


def _expected(state, name):
    if name == "scan":
        return dict(state)
    if name == "filter":
        return {k: r for k, r in state.items() if r["v"] >= 4}
    totals = {}
    for row in state.values():
        totals[row["p"]] = totals.get(row["p"], 0) + row["v"]
    return {p: {"p": p, "total": total} for p, total in totals.items()}


def _attach_views(db):
    for view in ("lazy", "eager"):
        db.create_maintained_view(
            view, _QUERIES["group"](db.t), eager=view == "eager"
        )


def _check_reads(db, state, rng, outside):
    """Point reads, a scan, a count and one query against *state*; out
    of a transaction, the maintained views too."""
    t = db.t
    for key in rng.sample(range(KEYS), 3):
        assert t.defined_at(key) == (key in state), key
        if key in state:
            assert dict(t(key).items()) == state[key], key
    assert {k: dict(v.items()) for k, v in t.items()} == state
    assert len(t) == len(state)
    assert sorted(t.keys()) == sorted(state)
    name = rng.choice(sorted(_QUERIES))
    with using_exec_mode("batch"):
        batched = _pairs(t, _QUERIES[name])
    assert dict(batched) == _expected(state, name), name
    if outside:
        # one store, so every executor enumerates it in one order
        with using_exec_mode("naive"):
            assert _pairs(t, _QUERIES[name]) == batched, name
        with using_exec_mode("batch"), using_offload_mode("force"):
            assert _pairs(t, _QUERIES[name]) == batched, name
        for view in ("lazy", "eager"):
            assert dict(_pairs(db(view), _QUERIES["scan"])) == (
                _expected(state, "group")
            ), view


def _run(seed, tmp_path):
    rng = random.Random(seed)
    path = str(tmp_path / f"history-{seed}.wal")
    name = f"history-{seed}"
    db = repro.connect(name, wal_path=path)
    initial = {k: _row(rng) for k in range(0, KEYS, 2)}
    db.create_table("t", rows=initial)
    _attach_views(db)
    model = Model(db.manager.now(), initial)
    sessions = []
    free = repro.relation({}, name="f")
    free_model = {}
    partitioned = False
    log = []

    def pick_session():
        """An open session, or None for a transaction-free statement."""
        if sessions and rng.random() < 0.6:
            return rng.choice(sessions)
        return None

    def run_in(session, fn):
        if session is None:
            return fn()
        session.txn.attach()
        try:
            return fn()
        finally:
            session.txn.detach()

    def step(i):
        nonlocal db, partitioned
        action = rng.random()
        if action < 0.08 and len(sessions) < MAX_OPEN:
            txn = db.manager.begin(activate=False)
            sessions.append(Session(txn, model.clock))
            log.append(f"{i}: begin #{len(sessions) - 1} @{model.clock}")
        elif action < 0.16 and sessions:
            session = sessions.pop(rng.randrange(len(sessions)))
            conflict = any(
                model.written.get(k, 0) > session.start for k in session.buffer
            )
            log.append(
                f"{i}: commit @{session.start} {session.buffer} "
                f"(conflict={conflict})"
            )
            if conflict:
                with pytest.raises(TransactionConflictError):
                    db.manager.commit(session.txn)
            else:
                db.manager.commit(session.txn)
                if session.buffer:
                    model.commit(session.buffer)
        elif action < 0.20 and sessions:
            session = sessions.pop(rng.randrange(len(sessions)))
            log.append(f"{i}: rollback @{session.start}")
            db.manager.abort(session.txn)
        elif action < 0.45:
            session = pick_session()
            key, row = rng.randrange(KEYS), _row(rng)
            log.append(f"{i}: write {key}={row} in {session and session.start}")

            def write():
                db.t[key] = row

            run_in(session, write)
            if session is None:
                model.commit({key: row})
            else:
                session.buffer[key] = row
        elif action < 0.57:
            session = pick_session()
            visible = session.view(model) if session else model.newest()
            if not visible:
                return
            key = rng.choice(sorted(visible))
            log.append(f"{i}: delete {key} in {session and session.start}")

            def delete():
                del db.t[key]

            run_in(session, delete)
            if session is None:
                model.commit({key: None})
            else:
                session.buffer[key] = None
        elif action < 0.80:
            session = pick_session()
            log.append(f"{i}: read in {session and session.start}")
            state = session.view(model) if session else model.newest()
            run_in(
                session,
                lambda: _check_reads(db, state, rng, outside=session is None),
            )
        elif action < 0.83:
            partitioned = not partitioned
            scheme = hash_partition("p", 2) if partitioned else None
            log.append(f"{i}: partition {scheme}")
            db.partition_table("t", scheme)
            model.tick()
        elif action < 0.86:
            log.append(f"{i}: close and reopen ({len(sessions)} rolled back)")
            for session in sessions:
                db.manager.abort(session.txn)
            sessions.clear()
            db.close()
            db = repro.connect(name, wal_path=path)
            _attach_views(db)
        elif action < 0.89:
            log.append(f"{i}: checkpoint and restore ({len(sessions)} open)")
            checkpoint = str(tmp_path / f"{name}.ckpt")
            db.checkpoint(checkpoint)
            restored = repro.FunctionalDatabase.restore(checkpoint, f"{name}-r")
            try:
                assert restored.manager.now() == model.clock
                scan = _QUERIES["scan"]
                assert _pairs(restored.t, scan) == _pairs(db.t, scan)
                for query in sorted(_QUERIES):
                    for mode in ("batch", "naive"):
                        with using_exec_mode(mode):
                            assert dict(_pairs(restored.t, _QUERIES[query])) == (
                                _expected(model.newest(), query)
                            ), (query, mode)
            finally:
                restored.close()
        else:
            key = rng.randrange(KEYS)
            if key in free_model and rng.random() < 0.4:
                log.append(f"{i}: free delete {key}")
                del free[key]
                del free_model[key]
            else:
                row = _row(rng)
                log.append(f"{i}: free write {key}={row}")
                free[key] = row
                free_model[key] = row
            expected = list(free_model.items())
            for mode in ("batch", "naive"):
                with using_exec_mode(mode):
                    assert _pairs(free, _QUERIES["scan"]) == expected, mode
            assert len(free) == len(free_model)
        assert db.manager.now() == model.clock

    try:
        for i in range(STEPS):
            step(i)
        for session in sessions:  # a last look through every snapshot
            state = session.view(model)
            run_in(session, lambda: _check_reads(db, state, rng, False))  # noqa: B023
        _check_reads(db, model.newest(), rng, outside=True)
    except Exception as exc:
        raise AssertionError(
            f"history seed {seed} (HISTORY_SEED={seed} HISTORY_SEEDS=1 "
            f"reproduces) failed after:\n  " + "\n  ".join(log[-12:])
        ) from exc
    finally:
        db.close()


@pytest.mark.parametrize("offset", range(SEEDS))
def test_history_matches_the_snapshot_isolation_model(offset, tmp_path):
    _run(BASE_SEED + offset, tmp_path)
