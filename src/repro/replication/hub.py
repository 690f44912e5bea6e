"""Leader-side log shipping: the replication hub (DESIGN.md §12).

One :class:`ReplicationHub` per served database, created lazily by
:func:`hub_for` when the first ``REPLICA_HELLO`` arrives. The hub keeps
one :class:`ReplicaPeer` per attached follower session and ships WAL
suffixes through the same per-connection writer queue that carries
subscription pushes, so a stalled follower can never tear a frame or
stall a committer beyond the bounded enqueue.

Shipping is driven by the commit path itself: the transaction manager
calls :meth:`ReplicationHub.on_commit` right after the view-registry
notification (outside the commit lock), and the hub pushes
``WAL_BATCH`` frames covering everything a peer has not been sent yet.
Because the logical clock only moves on commits, there is nothing to
heartbeat between them — a follower that has applied the last shipped
stamp *is* current.

Frames carry records exactly as :mod:`repro.storage.image` writes them
to the WAL file (schema changes included), and a snapshot is the one
record a checkpoint file holds, so replication has no codec of its own.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro._util import attached
from repro.errors import FencedLeaderError, PersistenceError, ReplicationError
from repro.obs.events import emit
from repro.obs.trace import current_context, span
from repro.storage.image import dumps, encode_record, encode_records, engine_record

__all__ = ["ReplicaPeer", "ReplicationHub", "hub_for", "snapshot_payload"]

#: Records per WAL_BATCH push frame; a long backlog ships as several
#: ordered frames instead of one unbounded one.
BATCH_RECORDS = 256


def snapshot_payload(db: Any) -> dict[str, Any]:
    """*db*'s latest committed state as one encoded record, as a
    checkpoint file holds it. The scan's stamp is held in the manager's
    snapshot registry, so a commit that lands mid-copy keeps every
    version the copy reads."""
    with db.manager.snapshot() as ts:
        return encode_record(engine_record(db.engine, ts))


class ReplicaPeer:
    """The hub's view of one attached follower session."""

    __slots__ = (
        "session_id", "send", "sent_ts", "acked_ts", "attached_at",
        "last_ack_at", "lag_seconds", "lock",
    )

    def __init__(self, session_id: int, send: Callable, sent_ts: int):
        self.session_id = session_id
        self.send = send
        #: Newest WAL stamp pushed to this peer (ship-once cursor).
        self.sent_ts = sent_ts
        #: Newest stamp the peer reported applied (REPLICA_ACK).
        self.acked_ts = sent_ts
        self.attached_at = time.monotonic()
        self.last_ack_at = self.attached_at
        #: Seconds-based lag the peer self-reported on its last ack —
        #: computed follower-side from the commit wall-clock shipped
        #: on each WAL_BATCH, so it measures real apply age, not RTT.
        self.lag_seconds = 0.0
        #: Serializes shipping to this one peer. Per-peer, not
        #: hub-wide: a follower stalled inside its bounded push wait
        #: must not block shipping to healthy peers or park other
        #: committers behind a global lock.
        self.lock = threading.Lock()


class ReplicationHub:
    """Ships the WAL of one leader database to attached followers."""

    def __init__(self, db: Any):
        self.db = db
        #: The fencing epoch this leader believes it owns. Promoted
        #: followers mint ``epoch + 1``; batches always carry the
        #: epoch so a promoted follower rejects a stale stream. (The
        #: class-level probe sidesteps the database function's
        #: ``__getattr__``, which resolves unknown names as relations.)
        self.epoch = int(db.epoch) if hasattr(type(db), "epoch") else 1
        self._lock = threading.Lock()
        self._peers: dict[int, ReplicaPeer] = {}
        self.snapshots_sent = 0
        self.batches_sent = 0
        self.records_sent = 0

    # -- attach / detach ---------------------------------------------------------

    def hello(
        self,
        session_id: int,
        since: int,
        peer_epoch: int,
        send: Callable[[dict[str, Any]], None],
    ) -> dict[str, Any]:
        """Attach one follower session; returns the REPLICA_HELLO result.

        ``mode`` is ``"stream"`` when the WAL still holds everything
        after *since* (the backlog rides in the response, later commits
        arrive as pushes) or ``"snapshot"`` when history below the WAL
        floor is gone and the follower must rebuild from the full copy.
        Mode decision, backlog capture, and registration happen under
        one lock, so a racing commit is either in the backlog or in a
        later push, never lost between them; the expensive payload
        encoding (and the snapshot scan) run after release — any
        overlap they create with concurrent pushes is deduped by the
        follower's applied stamp.
        """
        if peer_epoch > self.epoch:
            raise FencedLeaderError(
                f"this leader is at fencing epoch {self.epoch}, the "
                f"follower has seen epoch {peer_epoch}: a newer leader "
                "was promoted, refusing to serve a stale timeline"
            )
        leader_ts = self.db.manager.now()
        if since > leader_ts:
            raise ReplicationError(
                f"follower claims commit ts {since}, leader is at "
                f"{leader_ts}: histories have diverged, wipe the "
                "follower and resync"
            )
        with self._lock:
            backlog = self.db.engine.wal.records_since(since)
            if backlog is None:
                # commits from here on push normally; the snapshot
                # built below covers at least everything up to now
                peer = ReplicaPeer(session_id, send, leader_ts)
            else:
                # only the first chunk rides in the response (one
                # frame must stay bounded); the rest ships as ordered
                # pushes right after registration
                backlog = backlog[:BATCH_RECORDS]
                peer = ReplicaPeer(
                    session_id,
                    send,
                    backlog[-1].commit_ts if backlog else since,
                )
            self._peers[session_id] = peer
        result: dict[str, Any] = {
            "epoch": self.epoch,
            "leader_ts": leader_ts,
            "server": self.db._name,
        }
        if backlog is None:
            snapshot = self._shippable(
                session_id, "a snapshot", lambda: snapshot_payload(self.db)
            )
            with peer.lock:
                peer.sent_ts = max(peer.sent_ts, snapshot["ts"])
            result["mode"] = "snapshot"
            result["snapshot"] = snapshot
            self.snapshots_sent += 1
            emit(
                self.db.engine,
                "snapshot_served",
                session=session_id,
                ts=snapshot["ts"],
            )
        else:
            result["mode"] = "stream"
            result["records"] = self._shippable(
                session_id, "the WAL backlog", lambda: encode_records(backlog)
            )
            self.records_sent += len(backlog)
            # backlog beyond the first chunk: push it now, as ordered
            # WAL_BATCH frames queued behind this response
            self._ship_to_peer(session_id, peer, leader_ts)
        return result

    def detach(self, session_id: int) -> None:
        """Forget one follower (its session closed or re-synced)."""
        with self._lock:
            self._peers.pop(session_id, None)

    def _shippable(
        self, session_id: int, what: str, build: Callable[[], Any]
    ) -> Any:
        """``build()`` (encoded records) checked against the one
        value rule before a frame is queued. A memory-only leader never
        encoded its records at commit, so a row JSON cannot hold
        surfaces here: the peer is detached, a ``replication_error``
        event says why, and :class:`ReplicationError` is raised — a
        repr is never shipped in place of the row."""
        try:
            payload = build()
            dumps(payload)
            return payload
        except PersistenceError as exc:
            self.detach(session_id)
            error = ReplicationError(f"cannot ship {what}: {exc}")
            emit(
                self.db.engine,
                "replication_error",
                session=session_id,
                error=f"ReplicationError: {error}",
            )
            raise error from exc

    # -- shipping ----------------------------------------------------------------

    def on_commit(self, commit_ts: int) -> None:
        """Ship the new WAL suffix to every attached follower.

        Runs on the committing thread, outside the commit lock. The
        hub lock only snapshots the peer list; shipping itself holds
        each peer's own lock, so the per-peer ``sent_ts`` cursor still
        makes every record ship at most once while a follower stalled
        in its bounded push wait cannot delay healthy peers or park
        other committers behind a hub-wide lock. (Racing commits may
        interleave two peers' batches; followers dedupe by stamp.)
        """
        with self._lock:
            peers = list(self._peers.items())
        # caught-up peers share one cursor, so the encoded payload for
        # a given record span is memoized across them: one JSON-ready
        # encoding per commit, not one per follower
        encoded: dict[tuple[int, int], list[dict[str, Any]]] = {}
        for session_id, peer in peers:
            self._ship_to_peer(session_id, peer, commit_ts, encoded)

    def _ship_to_peer(
        self,
        session_id: int,
        peer: ReplicaPeer,
        leader_ts: int,
        encoded: dict | None = None,
    ) -> None:
        """Push everything past *peer*'s cursor as bounded batches.

        Shared by the commit hook and the post-HELLO backlog drain;
        the per-peer lock plus the ``sent_ts`` cursor make each record
        ship at most once per peer whichever path gets there first.
        """
        wal = self.db.engine.wal
        if encoded is None:
            encoded = {}
        # captured here, on the committing (or handshaking) thread: the
        # push frame carries the trace context so the follower's apply
        # joins the same span tree across the wire
        ctx = current_context()
        with peer.lock, span("replication.ship", session=session_id):
            records = wal.records_since(peer.sent_ts)
            if records is None:
                # the WAL was truncated under this peer: it must
                # re-handshake and take a snapshot
                self._push(
                    session_id,
                    peer,
                    {"push": "wal_resync", "epoch": self.epoch},
                )
                self.detach(session_id)
                return
            for start in range(0, len(records), BATCH_RECORDS):
                batch = records[start:start + BATCH_RECORDS]
                span_key = (batch[0].commit_ts, batch[-1].commit_ts)
                if span_key not in encoded:
                    try:
                        encoded[span_key] = self._shippable(
                            session_id,
                            f"WAL records {span_key[0]}..{span_key[1]}",
                            lambda: encode_records(batch),
                        )
                    except ReplicationError:
                        return  # the commit stands; only this peer goes
                payload = {
                    "push": "wal_batch",
                    "epoch": self.epoch,
                    "leader_ts": leader_ts,
                    # the leader's wall clock at ship time (shipping
                    # rides the commit path, so this is commit time to
                    # within queueing): followers subtract it from
                    # their own clock on apply for seconds-based lag
                    "commit_wall": time.time(),
                    "records": encoded[span_key],
                }
                if ctx is not None:
                    payload["trace"] = ctx
                sent = self._push(session_id, peer, payload)
                if not sent:
                    break
                peer.sent_ts = batch[-1].commit_ts
                self.batches_sent += 1
                self.records_sent += len(batch)

    def _push(
        self, session_id: int, peer: ReplicaPeer, payload: dict[str, Any]
    ) -> bool:
        """Enqueue one push on the peer's connection; a dead or
        saturated outbound path drops the peer (it will reconnect and
        catch up from its own WAL)."""
        try:
            peer.send(payload)
            return True
        except Exception:
            self.detach(session_id)
            return False

    # -- acknowledgement / introspection ------------------------------------------

    def ack(
        self,
        session_id: int,
        applied_ts: int,
        lag_seconds: float | None = None,
    ) -> dict[str, Any]:
        """Record a follower's applied watermark; returns current lag.

        *lag_seconds* is the follower's self-measured apply age (its
        clock minus the ``commit_wall`` shipped on the batch it last
        applied) — the leader only stores and re-exports it, so clock
        skew between the two hosts stays the follower's problem.
        """
        leader_ts = self.db.manager.now()
        with self._lock:
            peer = self._peers.get(session_id)
            if peer is None:
                raise ReplicationError(
                    f"session {session_id} is not an attached replica "
                    "(send REPLICA_HELLO first)"
                )
            peer.acked_ts = max(peer.acked_ts, int(applied_ts))
            peer.last_ack_at = time.monotonic()
            if lag_seconds is not None:
                peer.lag_seconds = max(0.0, float(lag_seconds))
            return {
                "leader_ts": leader_ts,
                "lag": max(0, leader_ts - peer.acked_ts),
                "epoch": self.epoch,
            }

    def stats(self) -> dict[str, Any]:
        """Hub counters plus one row per attached follower."""
        leader_ts = self.db.manager.now()
        with self._lock:
            return {
                "role": "leader",
                "epoch": self.epoch,
                "leader_ts": leader_ts,
                "snapshots_sent": self.snapshots_sent,
                "batches_sent": self.batches_sent,
                "records_sent": self.records_sent,
                "replicas": [
                    {
                        "session": peer.session_id,
                        "sent_ts": peer.sent_ts,
                        "acked_ts": peer.acked_ts,
                        "lag": max(0, leader_ts - peer.acked_ts),
                        "lag_seconds": peer.lag_seconds,
                    }
                    for peer in self._peers.values()
                ],
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._peers)

    def __repr__(self) -> str:
        return (
            f"<ReplicationHub epoch={self.epoch} "
            f"{len(self)} followers>"
        )


def hub_for(db: Any) -> ReplicationHub:
    """The database's hub, created (and wired to the commit path via
    ``engine.replication_hub``) on first use. Creation is serialized:
    two followers handshaking at once on a thread-per-connection server
    must not each build a hub and orphan one registration (only
    ``engine.replication_hub`` is ever shipped to by the commit path)."""
    return attached(
        db.engine, "replication_hub", lambda: ReplicationHub(db)
    )
