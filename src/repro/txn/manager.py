"""Snapshot-isolated transactions over the storage engine (Fig. 11).

Semantics:

* ``begin()`` takes a snapshot: the transaction reads the newest versions
  committed at or before its start stamp, plus its own buffered writes.
* Writers never block readers; readers never block anyone.
* Commit is **first-committer-wins**: if any written key gained a newer
  committed version since the snapshot, the transaction aborts with
  :class:`TransactionConflictError` (classic write-write SI validation).
* Aborts discard the buffer — nothing ever reached the engine or the WAL.

Fig. 10's footnote distinguishes transaction-level from statement-level
snapshots: operations outside an explicit transaction run in an implicit
per-statement transaction (see :meth:`TransactionManager.autocommit`).

Interleaving: the *current* transaction is tracked per thread as a stack.
``pause()``/``resume()`` let a benchmark (or an application juggling two
units of work) interleave transactions on one thread — which is also how
the Fig. 11 contention benchmark drives conflicting writers
deterministically.

Network sessions (DESIGN.md §11) need the converse: one transaction that
*outlives* any particular thread, because consecutive round trips of the
same client connection may be served by different threads.
``detach()``/``attach()`` move a transaction off and onto the calling
thread's stack explicitly; a detached transaction stays active (its
snapshot still pins the vacuum watermark) but is current nowhere until
re-attached.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro._util import TOMBSTONE
from repro.errors import (
    FencedLeaderError,
    PersistenceError,
    TransactionConflictError,
    TransactionStateError,
    WALError,
)
from repro.storage.engine import StorageEngine
from repro.storage.image import WALRecord, table_schema

__all__ = ["Transaction", "TransactionManager"]

ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"


class Transaction:
    """One unit of snapshot-isolated work."""

    _ids = iter(range(1, 2**62))
    _ids_lock = threading.Lock()

    def __init__(self, manager: "TransactionManager", start_ts: int):
        self.manager = manager
        with Transaction._ids_lock:
            self.txn_id = next(Transaction._ids)
        self.start_ts = start_ts
        self.state = ACTIVE
        #: (table, key) → row dict or TOMBSTONE, in write order
        self.writes: dict[tuple[str, Any], Any] = {}
        #: Monotonic count of write/delete calls. Unlike
        #: ``len(writes)`` it moves when a buffered key is
        #: *overwritten*, so snapshot-mirror caches keyed on it can
        #: never serve a stale pre-overwrite read.
        self.write_seq = 0

    # -- buffered access ---------------------------------------------------------

    def get_write(self, table: str, key: Any) -> Any:
        """Buffered value for (table, key): row, TOMBSTONE, or _NO_WRITE."""
        return self.writes.get((table, key), _NO_WRITE)

    def write(self, table: str, key: Any, data: Any) -> None:
        self._check_active("write")
        self.writes[(table, key)] = data
        self.write_seq += 1

    def delete(self, table: str, key: Any) -> None:
        self._check_active("delete")
        self.writes[(table, key)] = TOMBSTONE
        self.write_seq += 1

    def written_keys(self, table: str) -> Iterator[tuple[Any, Any]]:
        for (t, key), data in self.writes.items():
            if t == table:
                yield key, data

    def _check_active(self, what: str) -> None:
        if self.state != ACTIVE:
            raise TransactionStateError(
                f"cannot {what} in a {self.state} transaction"
            )

    # -- lifecycle costumes ---------------------------------------------------------

    def commit(self) -> None:
        self.manager.commit(self)

    def rollback(self) -> None:
        self.manager.abort(self)

    def pause(self) -> None:
        """Deactivate without finishing (for interleaving)."""
        self.manager._deactivate(self)

    def resume(self) -> None:
        """Reactivate a paused transaction on this thread."""
        self._check_active("resume")
        self.manager._activate(self)

    def detach(self) -> "Transaction":
        """Remove this transaction from whichever thread stack holds it.

        The transaction stays active — buffered writes and the snapshot
        survive — but it is *current* on no thread until :meth:`attach`
        runs. This is the session handoff primitive: a server parks the
        transaction between round trips and re-attaches it on whichever
        thread serves the next request.
        """
        self.manager._deactivate(self)
        return self

    def attach(self) -> "Transaction":
        """Make this transaction current on the calling thread."""
        self._check_active("attach")
        self.manager._activate(self)
        return self

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc_type is None and self.state == ACTIVE:
            self.commit()
        elif self.state == ACTIVE:
            self.rollback()
        return False

    def __repr__(self) -> str:
        return (
            f"<Txn {self.txn_id} @{self.start_ts} {self.state}: "
            f"{len(self.writes)} writes>"
        )


_NO_WRITE = object()


class TransactionManager:
    """Orders commits, validates conflicts, tracks per-thread currency."""

    def __init__(self, engine: StorageEngine):
        self.engine = engine
        self._lock = threading.RLock()
        self._clock = engine.wal.last_commit_ts()
        self._active: dict[int, Transaction] = {}
        self._local = threading.local()
        self.commits = 0
        self.aborts = 0
        #: Set by :meth:`fence` after a failover promoted a follower:
        #: a fenced (demoted) leader aborts every writing commit with
        #: :class:`FencedLeaderError` so the old timeline cannot fork.
        self.fenced = False
        self.fence_token: int | None = None

    # -- clock ----------------------------------------------------------------------

    def now(self) -> int:
        """The newest committed stamp (what autocommit readers see)."""
        return self._clock

    # -- lifecycle ---------------------------------------------------------------------

    def begin(self, activate: bool = True) -> Transaction:
        with self._lock:
            txn = Transaction(self, start_ts=self._clock)
            self._active[txn.txn_id] = txn
        if activate:
            self._activate(txn)
        return txn

    def fence(self, token: int | None = None) -> None:
        """Demote this database: reject every future writing commit.

        *token* is the promoted follower's fencing epoch, kept for
        diagnostics; read-only transactions keep working (a demoted
        leader is still a consistent, if frozen, snapshot).
        """
        with self._lock:
            self.fenced = True
            self.fence_token = token

    def _refuse_writes_if_fenced(self, what: str) -> None:
        """The fence gate; call under the commit lock. fence() must win
        against any commit it did not observe completing — a write
        slipping through after fence() returned would fork the
        timeline."""
        if self.fenced:
            raise FencedLeaderError(
                f"{what} rejected: this database was fenced by failover "
                f"token {self.fence_token!r} and no longer accepts writes"
            )

    def commit(self, txn: Transaction) -> int:
        """Validate and durably apply *txn*; returns its commit stamp
        (the unchanged clock for a read-only transaction)."""
        txn._check_active("commit")
        with self._lock:
            try:
                if txn.writes:
                    self._refuse_writes_if_fenced(
                        f"transaction {txn.txn_id}"
                    )
                for (table_name, key) in txn.writes:
                    table = self.engine.table(table_name)
                    if table.latest_ts(key) > txn.start_ts:
                        raise TransactionConflictError(
                            txn.txn_id, key=key, table=table_name
                        )
            except (FencedLeaderError, TransactionConflictError):
                self._finish(txn, ABORTED)
                self.aborts += 1
                raise
            if txn.writes:
                # pre-apply budget checkpoint: a metered DML statement
                # whose deadline expired aborts cleanly *here* — once
                # apply_commit starts writing version chains the commit
                # must run to completion, so this is the last safe gate
                from repro.obs.resources import active_meter

                meter = active_meter()
                if meter is not None and meter._armed:
                    reason = meter.exceeded()
                    if reason is not None:
                        self._finish(txn, ABORTED)
                        self.aborts += 1
                        meter.kill(reason)
            if txn.writes:
                # Apply at clock+1 and publish the new clock only after
                # the version chains are fully written: concurrent
                # autocommit readers sample `now()` without taking this
                # lock, and must never adopt a snapshot whose commit is
                # still mid-application (a torn read).
                commit_at = self._clock + 1
                try:
                    self.engine.apply_commit(
                        commit_at,
                        [(t, k, data) for (t, k), data in txn.writes.items()],
                    )
                except (PersistenceError, WALError):
                    # the log refused the record before the file, the
                    # retained records or a version chain changed
                    self._finish(txn, ABORTED)
                    self.aborts += 1
                    raise
                self._clock = commit_at
            self._finish(txn, COMMITTED)
            self.commits += 1
            commit_ts = self._clock
        if txn.writes:
            self._after_commit(commit_ts)
        return commit_ts

    def commit_schema(self, name: str, change: Callable[[], Any]) -> None:
        """Run the catalog *change* to table *name* and log it as a
        commit with no row writes.

        A schema change takes the next stamp like any commit, under the
        commit lock and behind the fence gate, so recovery and followers
        replay DDL and DML in the one order they happened in. The record
        carries the table's whole new catalog entry (``None`` once it is
        dropped). The catalog stays *logged, not versioned*: no read
        consults the stamp (DESIGN.md §4).
        """
        with self._lock:
            self._refuse_writes_if_fenced(f"schema change to {name!r}")
            self.engine.wal.check_open()
            change()
            commit_at = self._clock + 1
            self.engine.wal.append(
                WALRecord(commit_at, [], {name: table_schema(self.engine, name)})
            )
            self._clock = commit_at
        self._after_commit(commit_at)

    def _after_commit(self, commit_ts: int) -> None:
        """Post-commit hooks: outside the lock (eager view upkeep must
        not serialize other committers) and after _finish (views must
        read the post-commit state, not the gone transaction buffer)."""
        from repro.obs.trace import span

        with span("commit.hooks", commit_ts=commit_ts):
            registry = getattr(self.engine, "view_registry", None)
            if registry is not None:
                registry.notify_commit(commit_ts)
            # WAL shipping rides the same post-commit hook: the hub
            # reads the new suffix via records_since and pushes it to
            # every attached follower (DESIGN.md §12)
            hub = getattr(self.engine, "replication_hub", None)
            if hub is not None:
                hub.on_commit(commit_ts)

    def abort(self, txn: Transaction) -> None:
        txn._check_active("rollback")
        with self._lock:
            self._finish(txn, ABORTED)
            self.aborts += 1

    def _finish(self, txn: Transaction, state: str) -> None:
        txn.state = state
        self._active.pop(txn.txn_id, None)
        self._deactivate(txn)

    # -- per-thread currency ---------------------------------------------------------------

    def _stack(self) -> list[Transaction]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _activate(self, txn: Transaction) -> None:
        stack = self._stack()
        if txn not in stack:  # attach is idempotent per thread
            stack.append(txn)

    def _deactivate(self, txn: Transaction) -> None:
        stack = self._stack()
        if txn in stack:
            stack.remove(txn)

    def current(self) -> Transaction | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- statement-level snapshots (Fig. 10 footnote) -----------------------------------------

    @contextmanager
    def autocommit(self) -> Iterator[Transaction]:
        """An implicit single-statement transaction, used when a DML
        costume runs with no explicit transaction active."""
        txn = self.begin(activate=True)
        try:
            yield txn
            if txn.state == ACTIVE:
                self.commit(txn)
        except BaseException:
            # the statement or its commit failed: never leave it current
            if txn.state == ACTIVE:
                self.abort(txn)
            raise

    # -- maintenance ---------------------------------------------------------------------------

    def oldest_active_snapshot(self) -> int:
        with self._lock:
            if not self._active:
                return self._clock
            return min(t.start_ts for t in self._active.values())

    def vacuum(self) -> int:
        """GC versions no active snapshot can see. Under the commit
        lock: a vacuum rewrites chains and rebuilds the statistics
        derived from them, which a commit's apply must not interleave
        with."""
        with self._lock:
            return self.engine.vacuum(self.oldest_active_snapshot())

    def __repr__(self) -> str:
        return (
            f"<TM @{self._clock}: {len(self._active)} active, "
            f"{self.commits} commits, {self.aborts} aborts>"
        )
