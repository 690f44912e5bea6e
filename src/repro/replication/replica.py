"""Follower databases: WAL replay, read barriers, promotion.

A :class:`ReplicaDatabase` is a :class:`~repro.database.
FunctionalDatabase` whose only writer is the leader's WAL stream.
Incoming records replay through ``engine.apply_commit`` — the *same*
path recovery uses — so the follower's version chains, partition
layout, secondary indexes, statistics, and its own WAL come out
identical to the leader's, and the IVM changelog sees every delta
(maintained views and SUBSCRIBE stay live on replicas). Reads answer
at the applied commit stamp: a snapshot begun on a replica pins
``applied_ts`` exactly as a leader snapshot pins the commit clock.

:class:`ReplicationClient` is the pull loop: it connects to the leader
as an ordinary protocol client, attaches with ``REPLICA_HELLO``
(carrying the follower's own applied stamp, so a restarted replica
resumes from its WAL instead of resyncing), applies pushed
``WAL_BATCH`` frames, and acknowledges progress with ``REPLICA_ACK``.
:func:`start_replica` wires the two together.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.database import FunctionalDatabase
from repro.errors import (
    ConnectionClosedError,
    FencedLeaderError,
    ReadOnlyReplicaError,
    ReplicaLagError,
    ReplicationError,
)
from repro.storage.image import decode_records, install_image
from repro.txn.manager import Transaction, TransactionManager

__all__ = [
    "ReplicaDatabase",
    "ReplicaTransactionManager",
    "ReplicationClient",
    "start_replica",
]

#: Longest a read barrier may block waiting for the apply loop.
MAX_CATCHUP_TIMEOUT = 30.0

_LATEST = 2**62

_READ_ONLY = (
    "this database is a read replica: it applies the leader's WAL "
    "stream and accepts no local writes (route DML and DDL to the "
    "leader, or promote() this replica)"
)


class ReplicaTransactionManager(TransactionManager):
    """A transaction manager that refuses local writing commits.

    Read-only transactions work exactly as on a leader (they pin the
    replica's applied stamp as their snapshot); a commit carrying
    buffered writes aborts with :class:`~repro.errors.
    ReadOnlyReplicaError` until :meth:`ReplicaDatabase.promote` clears
    the ``read_only`` flag. Schema changes are refused the same way.
    """

    def __init__(self, engine: Any):
        super().__init__(engine)
        self.read_only = True

    def commit(self, txn: Transaction) -> int:
        """Commit *txn*, rejecting writes while this side is a replica."""
        if self.read_only and txn.writes:
            self.abort(txn)
            raise ReadOnlyReplicaError(_READ_ONLY)
        return super().commit(txn)

    def commit_schema(self, name: str, change: Any) -> None:
        """Log a schema change, refusing it (before the catalog
        changes) while this side is a replica."""
        if self.read_only:
            raise ReadOnlyReplicaError(_READ_ONLY)
        super().commit_schema(name, change)


class ReplicaDatabase(FunctionalDatabase):
    """A read replica fed by a leader's WAL stream.

    The replication attributes below are declared at class level
    because a database function routes unknown public attribute
    assignments through ``__setitem__`` (``DB.x = f`` stores a
    relation); a class-level default makes ``self.epoch = ...`` plain
    object state instead.
    """

    _manager_cls = ReplicaTransactionManager

    #: The newest fencing epoch this replica has witnessed. A promoted
    #: replica mints ``epoch + 1`` and from then on rejects batches
    #: from any lower (stale) epoch.
    epoch = 1
    #: The leader's commit clock as of the last received frame — what
    #: bounded-staleness reads measure lag against.
    leader_ts = 0
    #: The leader wall clock (``commit_wall``) carried on the newest
    #: applied WAL batch — the anchor for seconds-based lag.
    leader_wall = 0.0
    #: Age of the newest applied batch, computed *on apply* as this
    #: host's clock minus the shipped ``commit_wall``.
    apply_age_seconds = 0.0
    #: The pull loop feeding this replica (None when fed manually,
    #: e.g. in tests driving apply_wal_batch directly).
    replication: "ReplicationClient | None" = None
    batches_applied = 0
    records_applied = 0
    snapshots_loaded = 0

    def __init__(self, name: str = "replica", wal_path: str | None = None):
        super().__init__(name=name, wal_path=wal_path)
        self.epoch = 1
        self.leader_ts = self._manager.now()
        self._apply_lock = threading.Lock()
        self._applied_cond = threading.Condition()
        #: The stamp up to which an apply has *fully* finished —
        #: tables swapped, counters bumped. Read barriers wait on this
        #: rather than the commit clock, which must publish earlier
        #: (readers need clock-before-swap ordering mid-snapshot).
        self._ready_ts = self._manager.now()
        self.replication = None
        self.batches_applied = 0
        self.records_applied = 0
        self.snapshots_loaded = 0
        self.leader_wall = 0.0
        self.apply_age_seconds = 0.0
        # seconds-based lag rides the engine so the metrics registry's
        # gauge (wired per engine, not per database) can reach it
        self._engine.replica_lag_seconds_fn = self.lag_seconds

    # -- apply path --------------------------------------------------------------

    def applied_ts(self) -> int:
        """The newest leader commit stamp this replica has applied —
        every read here answers at (or, pinned by a transaction,
        before) this stamp."""
        return self._manager.now()

    def lag(self) -> int:
        """Commits the replica is known to be behind the leader."""
        return max(0, self.leader_ts - self.applied_ts())

    def lag_seconds(self) -> float:
        """Seconds this replica trails the leader's commit stream.

        Caught up, this is the apply age of the newest batch (ship →
        apply latency, typically milliseconds). While commits are
        known pending, the clock keeps running against the last
        applied batch's leader wall stamp — an upper bound in the
        ``seconds_behind_master`` tradition, growing until the apply
        loop catches up. Both sides use the *follower's* clock against
        the leader-shipped ``commit_wall``, so host clock skew shifts
        the number but a stalled apply loop always grows it.
        """
        if self.lag() <= 0 or not self.leader_wall:
            return self.apply_age_seconds
        return max(
            self.apply_age_seconds, time.time() - self.leader_wall
        )

    def apply_wal_batch(
        self,
        records: list[Any],
        leader_ts: int,
        epoch: int,
        trace: dict[str, Any] | None = None,
        commit_wall: float | None = None,
    ) -> int:
        """Replay one shipped batch; returns the records applied.

        Fencing first: a batch from an epoch older than this replica's
        is a demoted leader still talking and is rejected outright —
        checked under the apply lock, so a batch that raced
        ``promote()`` to it cannot apply old-timeline records after
        the epoch moved. Records at or below ``applied_ts`` are
        skipped (re-delivery after a reconnect is harmless), the rest
        replay through ``engine.apply_commit`` — appending to the
        replica's own WAL, then the record's schema changes, version
        chains, indexes, statistics, and the IVM changelog — before the
        applied clock is published and eager views sync. Readers
        sampling the clock concurrently therefore never see a
        half-applied commit. Finally this
        replica's own replication hub (if sub-replicas attached to
        it) ships the fresh suffix onward — cascading fan-out.
        """
        from repro.obs.trace import resume

        applied = 0
        # *trace* is the leader-minted context carried on the push
        # frame; resuming it stitches this apply into the originating
        # query's span tree (a no-op span when the frame is untraced)
        apply_span = resume(
            trace, "replica.apply", replica=self._name, records=len(records)
        )
        with apply_span, self._apply_lock:
            if epoch < self.epoch:
                raise FencedLeaderError(
                    f"WAL batch carries fencing epoch {epoch}, this "
                    f"replica is at {self.epoch}: a stale leader is "
                    "still shipping"
                )
            self.epoch = max(self.epoch, int(epoch))
            for record in records:
                if record.commit_ts <= self.applied_ts():
                    continue  # duplicate delivery after a reconnect
                self._engine.apply_commit(
                    record.commit_ts, record.writes, record.schemas
                )
                if record.schemas:
                    self._sync_stored()
                with self._manager._lock:
                    self._manager._clock = record.commit_ts
                applied += 1
                self.records_applied += 1
                # eager maintained views (and their subscription
                # pushes) sync on the apply thread, exactly as the
                # committing thread pays maintenance on the leader
                registry = getattr(self._engine, "view_registry", None)
                if registry is not None:
                    registry.notify_commit(record.commit_ts)
            self.leader_ts = max(self.leader_ts, int(leader_ts))
            self.batches_applied += 1
            if commit_wall:
                # the seconds-lag anchor (satellite of the HEALTH
                # surface): age is computed here, on apply, against
                # the leader wall clock the batch carried
                self.leader_wall = max(self.leader_wall, float(commit_wall))
                self.apply_age_seconds = max(
                    0.0, time.time() - float(commit_wall)
                )
        if applied:
            hub = getattr(self._engine, "replication_hub", None)
            if hub is not None:
                hub.on_commit(self.applied_ts())
        with self._applied_cond:
            self._ready_ts = max(self._ready_ts, self.applied_ts())
            self._applied_cond.notify_all()
        return applied

    def apply_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Rebuild from a full leader copy (initial sync, or the WAL
        floor passed this replica's watermark).

        Existing tables are dropped — a snapshot is authoritative —
        and every row lands under the snapshot's single commit stamp,
        mirroring checkpoint restore. The replica's *own* WAL is
        truncated and re-seeded with one record carrying the whole
        snapshot: a durable replica restarted later replays the full
        state, not just the post-snapshot suffix. Maintained views are
        rebuilt afterwards — the snapshot bypassed the changelog, so
        their old snapshots (and their subscribers' mirrors, via the
        resync push) would otherwise silently miss its rows.
        """
        with self._apply_lock:
            ts = int(snapshot["ts"])
            # stage the whole rebuild aside, then swap references:
            # concurrent readers (this replica keeps serving during a
            # resync) see either the complete old state or the
            # complete new one, never dropped tables or partial loads
            staging = install_image(snapshot, name=self._engine.name)
            # clock first (old tables serve stale-but-complete reads
            # at the new stamp), then one reference swap: each table
            # carries its own statistics and indexes, and the offload
            # mirror rebuilds for any table object it did not scan
            with self._manager._lock:
                self._manager._clock = ts
            self._engine.tables = staging.tables
            self._sync_stored()
            if self._engine.plan_cache is not None:
                self._engine.plan_cache.clear()
            # the old WAL describes a state that no longer exists;
            # replaying it before the seed record on restart would
            # resurrect rows the snapshot deleted
            self._engine.wal.truncate()
            for seed in staging.wal.records():
                self._engine.wal.append(seed)
            self.leader_ts = max(self.leader_ts, ts)
            self.snapshots_loaded += 1
        from repro.obs.events import emit

        emit(
            self._engine,
            "snapshot_sync",
            ts=ts,
            tables=len(snapshot.get("tables", {})),
        )
        registry = getattr(self._engine, "view_registry", None)
        if registry is not None:
            for view in registry.views():
                try:
                    view.refresh(incremental=False)
                except Exception:
                    pass  # surfaces at the view's next read instead
        hub = getattr(self._engine, "replication_hub", None)
        if hub is not None:
            # sub-replicas below the new WAL floor get a wal_resync
            # push and re-handshake into their own snapshot sync
            hub.on_commit(self.applied_ts())
        with self._applied_cond:
            self._ready_ts = max(self._ready_ts, self.applied_ts())
            self._applied_cond.notify_all()

    # -- read barriers (staleness modes) ------------------------------------------

    def ensure_read_at(
        self,
        min_ts: int | None = None,
        max_lag: int | None = None,
        timeout: float = 2.0,
    ) -> int:
        """Block until this replica is fresh enough to serve a read.

        *min_ts* is the read-your-writes barrier: the client's last
        known commit stamp must be applied here. *max_lag* is the
        bounded-staleness barrier: the replica may trail the leader's
        clock (as last reported by the stream) by at most that many
        commits — and because a broken stream freezes the known leader
        clock exactly when staleness grows, a replica whose pull loop
        is disconnected refuses the bound outright rather than
        vacuously satisfying it. If the apply loop does not catch up
        within *timeout* seconds the read **bounces** with
        :class:`~repro.errors.ReplicaLagError` and the client retries
        it on the leader. Returns the applied stamp the read runs at.
        """
        if not self._manager.read_only:
            # promoted: this node is the leader and serves its own
            # commits by definition — barriers are no-ops here, like
            # on any other leader (local commits do not move _ready_ts)
            return self.applied_ts()
        timeout = max(0.0, min(float(timeout), MAX_CATCHUP_TIMEOUT))
        deadline = time.monotonic() + timeout
        with self._applied_cond:
            while True:
                # the fully-applied stamp, not the raw clock: the
                # barrier must not release mid-apply (the clock
                # publishes before the snapshot table swap completes)
                applied = self._ready_ts
                required = 0
                if min_ts is not None:
                    required = max(required, int(min_ts))
                satisfied = True
                if max_lag is not None:
                    required = max(
                        required, self.leader_ts - max(0, int(max_lag))
                    )
                    if (
                        self.replication is not None
                        and not self.replication.connected
                    ):
                        satisfied = False  # cannot certify the bound
                if applied < required:
                    satisfied = False
                if satisfied:
                    return applied
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ReplicaLagError(required, applied, timeout)
                self._applied_cond.wait(remaining)

    # -- failover ----------------------------------------------------------------

    def promote(self) -> int:
        """Manual failover: stop following, start accepting writes.

        Mints and returns the new fencing epoch (old leader's + 1).
        Hand that token to the demoted leader's ``fence()`` so its
        writes are rejected; this replica additionally rejects any
        still-arriving batch from the stale epoch, closing both sides
        of a split brain. The replica's WAL is a byte-for-byte copy of
        everything it applied, so the promoted timeline continues the
        leader's exactly.
        """
        client, self.replication = self.replication, None
        if client is not None:
            client.stop()
        with self._apply_lock:
            self.epoch += 1
            self._manager.read_only = False
            hub = getattr(self._engine, "replication_hub", None)
            if hub is not None:
                hub.epoch = self.epoch
            epoch = self.epoch
        from repro.obs.events import emit

        emit(
            self._engine,
            "promote",
            epoch=epoch,
            applied_ts=self.applied_ts(),
        )
        return epoch

    @property
    def read_only(self) -> bool:
        """True until :meth:`promote` turns this replica into a leader."""
        return self._manager.read_only

    # -- introspection -------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Leader stats plus a ``replication`` section describing this
        side's role, applied/leader stamps, lag, and epoch. A mid-tier
        replica with sub-replicas attached keeps its own hub's
        per-follower rows under ``"hub"`` instead of hiding them."""
        stats = super().stats()
        hub_stats = stats.get("replication")  # this node's own hub
        stats["replication"] = {
            "hub": hub_stats,
            "role": "replica" if self.read_only else "promoted-leader",
            "epoch": self.epoch,
            "applied_ts": self.applied_ts(),
            "leader_ts": self.leader_ts,
            "lag": self.lag(),
            "lag_seconds": self.lag_seconds(),
            "batches_applied": self.batches_applied,
            "records_applied": self.records_applied,
            "snapshots_loaded": self.snapshots_loaded,
            "connected": (
                self.replication is not None
                and self.replication.connected
            ),
        }
        return stats

    def close(self) -> None:
        """Stop the pull loop, then close like any database."""
        client, self.replication = self.replication, None
        if client is not None:
            client.stop()
        super().close()


class ReplicationClient:
    """The follower's pull loop: one connection, applied on one thread.

    Reconnects with backoff on connection loss (a restarted leader or
    a network blip), re-handshaking with the replica's own applied
    stamp so only the missing WAL suffix ships again. Stops for good
    on a fencing refusal — a follower of a stale leader must not
    resurrect its timeline.
    """

    def __init__(
        self,
        db: ReplicaDatabase,
        host: str = "127.0.0.1",
        port: int = 7878,
        poll_interval: float = 0.5,
        reconnect_backoff: float = 0.2,
        ack_every: int = 1,
    ):
        self.db = db
        self.host = host
        self.port = port
        self.poll_interval = poll_interval
        self.reconnect_backoff = reconnect_backoff
        self.ack_every = max(1, int(ack_every))
        self.connected = False
        self.last_error: str | None = None
        self._stop = threading.Event()
        self._client: Any = None
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=f"repro-replica:{port}"
        )

    def start(self) -> "ReplicationClient":
        """Begin streaming on a background thread."""
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop streaming and wait for the apply thread to exit."""
        self._stop.set()
        client, self._client = self._client, None
        if client is not None:
            try:
                client.close()
            except Exception:
                pass
        if self._thread.is_alive():
            self._thread.join(timeout=5)

    # -- the loop -----------------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self._stream_once()
            except FencedLeaderError as exc:
                # the leader we follow is stale; following it further
                # would fork history — stop for good
                self.last_error = str(exc)
                break
            except Exception as exc:
                self.last_error = f"{type(exc).__name__}: {exc}"
                self.connected = False
                if not self._stop.is_set():
                    time.sleep(self.reconnect_backoff)

    def _stream_once(self) -> None:
        """One connection's lifetime: handshake, then apply pushes."""
        from repro.client import RemoteDatabase

        client = RemoteDatabase(self.host, self.port)
        self._client = client
        try:
            hello = client._call(
                {
                    "verb": "replica_hello",
                    "since": self.db.applied_ts(),
                    "epoch": self.db.epoch,
                }
            )
            self.connected = True
            self.last_error = None
            if hello["mode"] == "snapshot":
                self.db.apply_snapshot(hello["snapshot"])
                self.db.apply_wal_batch(
                    [], hello["leader_ts"], hello["epoch"]
                )
            else:
                self.db.apply_wal_batch(
                    decode_records(hello.get("records", [])),
                    hello["leader_ts"],
                    hello["epoch"],
                )
            client._call(
                {
                    "verb": "replica_ack",
                    "applied_ts": self.db.applied_ts(),
                    "lag_seconds": self.db.lag_seconds(),
                }
            )
            pending_acks = 0
            while not self._stop.is_set():
                events = client.poll(timeout=self.poll_interval)
                if client._closed:
                    raise ConnectionClosedError("leader connection lost")
                applied_any = False
                for event in events:
                    kind = event.get("event")
                    if kind == "wal_batch":
                        self.db.apply_wal_batch(
                            decode_records(event.get("records", [])),
                            event.get("leader_ts", 0),
                            event.get("epoch", self.db.epoch),
                            trace=event.get("trace"),
                            commit_wall=event.get("commit_wall"),
                        )
                        applied_any = True
                    elif kind == "wal_resync":
                        # leader truncated under us: re-handshake and
                        # take the snapshot path
                        raise ReplicationError(
                            "leader WAL truncated past our watermark"
                        )
                if applied_any:
                    pending_acks += 1
                    if pending_acks >= self.ack_every:
                        client._call(
                            {
                                "verb": "replica_ack",
                                "applied_ts": self.db.applied_ts(),
                                "lag_seconds": self.db.lag_seconds(),
                            }
                        )
                        pending_acks = 0
        finally:
            self.connected = False
            self._client = None
            try:
                client.close()
            except Exception:
                pass

    def status(self) -> dict[str, Any]:
        """Connection state for dashboards and ops tooling."""
        return {
            "leader": f"{self.host}:{self.port}",
            "connected": self.connected,
            "stopped": self._stop.is_set(),
            "last_error": self.last_error,
        }

    def __repr__(self) -> str:
        state = "connected" if self.connected else "disconnected"
        return f"<ReplicationClient {self.host}:{self.port} {state}>"


def start_replica(
    host: str = "127.0.0.1",
    port: int = 7878,
    name: str = "replica",
    wal_path: str | None = None,
    poll_interval: float = 0.5,
) -> ReplicaDatabase:
    """Open a read replica of the leader served at ``host:port``.

    Returns a :class:`ReplicaDatabase` already streaming: query it
    in-process, or ``repro.server.serve(replica, port=...)`` it so
    remote clients can route reads here. With *wal_path* set the
    replica is durable — restarted with the same path it replays its
    own WAL copy and re-attaches with only the missing suffix to
    fetch::

        leader = repro.connect(name="primary")
        srv = repro.server.serve(leader, port=7878)
        replica = repro.replication.start_replica(port=7878)
    """
    db = ReplicaDatabase(name=name, wal_path=wal_path)
    db.replication = ReplicationClient(
        db, host, port, poll_interval=poll_interval
    ).start()
    return db
