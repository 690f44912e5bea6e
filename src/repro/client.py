"""``repro.client`` — the network face of the functional database.

:func:`connect` opens a :class:`RemoteDatabase`: a synchronous client
speaking the length-prefixed JSON protocol of :mod:`repro.server`
(DESIGN.md §11). Queries ship as FQL expression text evaluated against
the server's database (``db`` in the expression namespace), parameters
bind server-side to finished predicate syntax trees (injection-safe end
to end), SQL SELECTs run against a snapshot-consistent relational
mirror, and transactions span round trips with first-committer-wins
conflicts raising the same :class:`~repro.errors.
TransactionConflictError` a local commit would::

    import repro.client

    with repro.client.connect(port=7878) as db:
        rows = db.fql("filter(db('customers'), 'age > $min', params)",
                      params={"min": 40})
        db.begin()
        db.set_attr("customers", 1, "age", 48)
        db.commit()

Live subscriptions register a maintained view server-side; per-commit
deltas arrive as push frames, drained by :meth:`RemoteDatabase.poll`
(or implicitly whenever a response is read) and folded into the
subscription's local snapshot mirror by
:meth:`RemoteSubscription.apply`.

**Read routing** (DESIGN.md §12): pass ``replicas=[port, ...]`` and
read-only FQL/SQL fans out round-robin to follower servers while DML,
transactions, EXPLAIN, STATS, and subscriptions stay on the leader.
The client tracks its ``last_commit_ts`` from DML/COMMIT responses and
sends it as the ``min_ts`` read barrier (read-your-writes); an
optional ``staleness_bound`` adds a bounded-staleness ``max_lag``. A
follower that cannot catch up in time bounces the read with
:class:`~repro.errors.ReplicaLagError` and the client transparently
retries it on the leader::

    with repro.client.connect(port=7878, replicas=[7879, 7880]) as db:
        db.set_attr("customers", 1, "age", 48)        # → leader
        rows = db.fql("filter(db('customers'), 'age > 40')")  # → replica,
        # guaranteed to see the write above (min_ts barrier)
"""

from __future__ import annotations

import itertools
import select
import socket
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator

from repro._util import MISSING
from repro.errors import ConnectionClosedError, ReplicaLagError
from repro.server import protocol

__all__ = ["RemoteDatabase", "RemoteSubscription", "connect"]


class RemoteSubscription:
    """A live view subscription plus its client-side snapshot mirror."""

    def __init__(self, client: "RemoteDatabase", sid: int, name: str,
                 snapshot: dict, incremental: bool):
        self.client = client
        self.sid = sid
        self.name = name
        #: Local mirror of the server-side maintained view, kept
        #: current by :meth:`apply`.
        self.snapshot = dict(snapshot)
        self.incremental = incremental
        self.events_seen = 0

    def apply(self, events: list[dict[str, Any]]) -> int:
        """Fold pushed delta events into the local mirror.

        :meth:`RemoteDatabase.poll` already routes every event to its
        subscription, so callers rarely need this directly; it stays
        public (and idempotent — re-applying a delta sets the same
        state) for replaying saved event streams. Events belonging to
        other subscriptions are ignored; returns the number applied.
        """
        applied = 0
        for event in events:
            if event.get("sid") != self.sid:
                continue
            applied += 1
            self.events_seen += 1
            if event["event"] == "resync":
                self.snapshot = dict(event["snapshot"])
                continue
            for change in event["changes"]:
                if change["new"] is None and change["deleted"]:
                    self.snapshot.pop(change["key"], None)
                else:
                    self.snapshot[change["key"]] = change["new"]
        return applied

    def wait(self, timeout: float = 5.0) -> list[dict[str, Any]]:
        """Poll until at least one event for this subscription arrives
        (or *timeout* elapses). Every polled event is routed to its own
        subscription's mirror; this subscription's events are returned.
        """
        deadline = time.monotonic() + timeout
        mine: list[dict[str, Any]] = []
        while not mine:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            events = self.client.poll(timeout=remaining)
            mine = [e for e in events if e.get("sid") == self.sid]
        return mine

    def unsubscribe(self) -> None:
        """Tear this subscription down server-side."""
        self.client.unsubscribe(self.sid)


class RemoteDatabase:
    """A synchronous client connection to a :mod:`repro.server`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7878,
        connect_timeout: float = 10.0,
        replicas: list[Any] | None = None,
        read_mode: str | None = None,
        read_your_writes: bool = True,
        staleness_bound: int | None = None,
        catchup_timeout: float = 2.0,
    ):
        self._sock = socket.create_connection(
            (host, port), timeout=connect_timeout
        )
        self._ids = itertools.count(1)
        self._lock = threading.RLock()
        self._pushes: deque[dict[str, Any]] = deque()
        self._subs: dict[int, RemoteSubscription] = {}
        self._closed = False
        #: Read routing (DESIGN.md §12): follower addresses, lazily
        #: opened connections, and the staleness policy.
        self._replica_addrs = [
            _replica_addr(spec, host) for spec in (replicas or [])
        ]
        self._replica_conns: list["RemoteDatabase" | None] = [
            None for _ in self._replica_addrs
        ]
        #: Per-replica cooldown deadline (monotonic seconds): a
        #: follower that bounced or dropped is skipped until then, so
        #: a persistently lagging replica costs one stalled read per
        #: cooldown window instead of one per read.
        self._replica_down_until = [0.0 for _ in self._replica_addrs]
        self.replica_cooldown = 5.0
        self._rr = 0
        self.read_mode = read_mode or (
            "replica" if self._replica_addrs else "leader"
        )
        self.read_your_writes = read_your_writes
        self.staleness_bound = staleness_bound
        self.catchup_timeout = catchup_timeout
        #: Newest commit stamp this client produced (DML/COMMIT
        #: responses) — the ``min_ts`` read-your-writes token.
        self.last_commit_ts = 0
        self._txn_open = False
        self.leader_reads = 0
        self.replica_reads = 0
        self.replica_bounces = 0
        try:
            # the handshake stays under connect_timeout: an overloaded
            # server that neither admits nor refuses within it surfaces
            # as a timeout here, not as an indefinite hang
            self.server_info = self._call({"verb": "hello"})
        except BaseException:
            self._closed = True
            self._sock.close()
            raise
        self._sock.settimeout(None)

    # -- read routing (DESIGN.md §12) --------------------------------------------

    def _routed_read(self, payload: dict[str, Any]) -> Any:
        """Send one read-only request to a follower when policy allows.

        Inside an open transaction every read goes to the leader (only
        it sees the buffered writes). Otherwise the request gains the
        session's freshness barriers (``min_ts`` from read-your-writes,
        ``max_lag`` from the staleness bound) and round-robins across
        the replica pool; a lag bounce or a dead follower falls back to
        the leader, which is always current and always correct.
        """
        if (
            not self._replica_addrs
            or self.read_mode == "leader"
            or self._txn_open
        ):
            self.leader_reads += 1
            return self._call(payload)
        routed = dict(payload)
        if self.read_your_writes and self.last_commit_ts:
            routed["min_ts"] = self.last_commit_ts
        if self.staleness_bound is not None:
            routed["max_lag"] = self.staleness_bound
        routed["catchup_timeout"] = self.catchup_timeout
        for _attempt in range(len(self._replica_addrs)):
            index = self._rr % len(self._replica_addrs)
            self._rr += 1
            if time.monotonic() < self._replica_down_until[index]:
                continue  # cooling down after a bounce or drop
            try:
                conn = self.replica_connection(index)
            except OSError:
                self._replica_down_until[index] = (
                    time.monotonic() + self.replica_cooldown
                )
                continue  # follower down: try the next one
            try:
                result = conn._call(dict(routed))
                self.replica_reads += 1
                self._replica_down_until[index] = 0.0
                return result
            except ReplicaLagError:
                # the follower cannot catch up in time: bounce to the
                # leader rather than serve (or wait on) stale data,
                # and skip this follower until the cooldown passes
                self.replica_bounces += 1
                self._replica_down_until[index] = (
                    time.monotonic() + self.replica_cooldown
                )
                break
            except (ConnectionClosedError, OSError):
                self._replica_conns[index] = None
                self._replica_down_until[index] = (
                    time.monotonic() + self.replica_cooldown
                )
                continue
        self.leader_reads += 1
        return self._call(payload)

    def replica_connection(self, index: int) -> "RemoteDatabase":
        """The plain connection to replica *index* (opened lazily).

        Exposed for advanced use — e.g. subscribing to a maintained
        view on a specific follower so its IVM deltas are pushed from
        there instead of the leader.
        """
        conn = self._replica_conns[index]
        if conn is None or conn._closed:
            replica_host, replica_port = self._replica_addrs[index]
            conn = RemoteDatabase(replica_host, replica_port)
            self._replica_conns[index] = conn
        return conn

    # -- plumbing ----------------------------------------------------------------

    def _call(self, payload: dict[str, Any]) -> Any:
        """One request/response round trip; buffers interleaved pushes.

        This is where traces begin: under ``REPRO_TRACE`` head-based
        sampling the client mints the trace id and ships it in the
        request envelope's optional ``trace`` field, so the server's
        session span — and everything below it, down to a replica's
        WAL apply — joins the same tree as this client-side span.
        """
        from repro.obs.trace import current_context, maybe_trace

        with maybe_trace(f"client.{payload.get('verb', 'call')}"):
            ctx = current_context()
            if ctx is not None:
                payload["trace"] = ctx
            with self._lock:
                if self._closed:
                    raise ConnectionClosedError("client is closed")
                request_id = next(self._ids)
                payload["id"] = request_id
                protocol.send_frame(self._sock, payload)
                while True:
                    frame = protocol.recv_frame(self._sock)
                    if frame is None:
                        self._closed = True
                        raise ConnectionClosedError(
                            "server closed the connection"
                        )
                    if "push" in frame:
                        self._pushes.append(self._decode_push(frame))
                        continue
                    if frame.get("id") is None and not frame.get("ok", True):
                        # connection-fatal refusal (admission shedding)
                        self._closed = True
                        protocol.raise_remote(frame.get("error") or {})
                    if frame.get("id") != request_id:
                        continue  # stale frame from an aborted exchange
                    if frame.get("ok"):
                        return frame.get("result")
                    protocol.raise_remote(frame.get("error") or {})

    @staticmethod
    def _decode_push(frame: dict[str, Any]) -> dict[str, Any]:
        """One push frame → one event dict (subscription deltas decode
        here; WAL-shipping frames pass through raw for the replication
        client to decode with its own codec)."""
        event: dict[str, Any] = {
            "event": frame["push"],
            "sid": frame.get("sid"),
            "name": frame.get("name"),
        }
        if frame["push"] in ("wal_batch", "wal_resync"):
            event.update(
                {
                    "records": frame.get("records", []),
                    "leader_ts": frame.get("leader_ts", 0),
                    "epoch": frame.get("epoch", 0),
                    # leader commit wall-clock: the replica's apply
                    # loop turns this into seconds-based lag
                    "commit_wall": frame.get("commit_wall"),
                    # trace context of the committing request, so a
                    # replica's apply span joins the same trace
                    "trace": frame.get("trace"),
                }
            )
            return event
        if frame["push"] == "resync":
            event["snapshot"] = protocol.decode_value(
                frame.get("snapshot")
            )
            return event
        changes = []
        for key, old, new in frame.get("changes", ()):
            old_v = protocol.decode_value(old)
            new_v = protocol.decode_value(new)
            changes.append(
                {
                    "key": protocol.decode_key(key),
                    "old": None if old_v is MISSING else old_v,
                    "new": None if new_v is MISSING else new_v,
                    "inserted": old_v is MISSING,
                    "deleted": new_v is MISSING,
                }
            )
        event["changes"] = changes
        return event

    # -- queries -----------------------------------------------------------------

    def fql(
        self,
        expr: str,
        params: dict[str, Any] | None = None,
        max_rows: int | None = None,
        deadline_ms: float | None = None,
    ) -> Any:
        """Evaluate an FQL expression server-side; returns plain data
        (relations decode to ``{key: row}`` dicts). Routed to a read
        replica when one is configured and policy allows. *deadline_ms*
        caps this one statement's server-side wall clock — past it the
        query is cooperatively killed with the retryable
        :class:`~repro.errors.ResourceExhaustedError`."""
        payload: dict[str, Any] = {
            "verb": "fql",
            "expr": expr,
            "params": params or {},
            "max_rows": max_rows,
        }
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        return protocol.decode_value(self._routed_read(payload))

    query = fql  # spelled both ways

    def sql(
        self,
        sql: str,
        params: list[Any] | None = None,
        deadline_ms: float | None = None,
    ) -> dict[str, Any]:
        """Run a SELECT; returns ``{"columns": [...], "rows": [...]}``
        with NULLs as ``None``. Routed to a read replica when one is
        configured and policy allows. *deadline_ms* works as in
        :meth:`fql`."""
        payload: dict[str, Any] = {
            "verb": "sql", "sql": sql, "params": params or [],
        }
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        result = self._routed_read(payload)
        result["rows"] = [
            [protocol.decode_value(v) for v in row]
            for row in result["rows"]
        ]
        return result

    def explain(self, expr: str | None = None,
                params: dict[str, Any] | None = None) -> str:
        """EXPLAIN an expression — or, with no argument, the session's
        previous FQL statement (plan reuse: the server re-explains the
        expression it already holds)."""
        payload: dict[str, Any] = {"verb": "explain"}
        if expr is not None:
            payload["expr"] = expr
            payload["params"] = params or {}
        return self._call(payload)["explain"]

    def stats(self) -> dict[str, Any]:
        """The leader's introspection dict (STATS verb) — database,
        session, server, and replication sections; the field reference
        lives in docs/operations.md."""
        return self._call({"verb": "stats"})

    def metrics(self) -> str:
        """The server's Prometheus text exposition (METRICS verb) —
        database-engine and server-admission series in one scrapeable
        page; the reference table lives in docs/observability.md."""
        return self._call({"verb": "metrics"})["text"]

    def health(self) -> dict[str, Any]:
        """The server's cluster-health snapshot (HEALTH verb): role,
        epoch, commit clock, WAL floor/size, replication lag in
        commits and seconds, admission-queue depth, and the newest
        lifecycle events. Works against leaders and replicas alike —
        poll each member to see the whole cluster."""
        return self._call({"verb": "health"})

    def workload(
        self, fingerprint: str | None = None
    ) -> dict[str, Any]:
        """The server's workload profile (WORKLOAD verb): one row per
        query-class fingerprint with calls, rows, p50/p95 latency, and
        the current plan hash, plus recent plan-change events. Pass a
        *fingerprint* to also get its last-good vs current plan diff."""
        payload: dict[str, Any] = {"verb": "workload"}
        if fingerprint is not None:
            payload["fingerprint"] = fingerprint
        return self._call(payload)

    def top(self, limit: int | None = None) -> dict[str, Any]:
        """The server's resource-accounting rollup (TOP verb):
        cumulative totals, queries/killed counts, the meters of
        queries live right now, per-session and per-workload-
        fingerprint consumption, and the current ``top_consumer``
        fingerprint. *limit* caps the live-query list."""
        payload: dict[str, Any] = {"verb": "top"}
        if limit is not None:
            payload["limit"] = limit
        return self._call(payload)

    def set_budgets(
        self,
        max_rows_scanned: int | None = None,
        max_result_rows: int | None = None,
        deadline_ms: float | None = None,
    ) -> dict[str, Any]:
        """Install per-session resource budgets (re-HELLO).

        Every later statement on this session is checked against them
        cooperatively at batch boundaries; an exceeded budget raises
        :class:`~repro.errors.ResourceExhaustedError` and the session
        keeps working. Calling with no arguments clears the overrides
        back to the server's environment defaults. Returns the budgets
        now in force."""
        budgets: dict[str, Any] = {}
        if max_rows_scanned is not None:
            budgets["max_rows_scanned"] = max_rows_scanned
        if max_result_rows is not None:
            budgets["max_result_rows"] = max_result_rows
        if deadline_ms is not None:
            budgets["deadline_ms"] = deadline_ms
        result = self._call({"verb": "hello", "budgets": budgets})
        return result.get("budgets", {})

    def ping(self) -> bool:
        """Round-trip liveness probe against the leader."""
        return bool(self._call({"verb": "ping"}).get("pong"))

    # -- DML ---------------------------------------------------------------------

    def insert(self, table: str, key: Any, row: dict[str, Any]) -> Any:
        """Insert *row* under *key* (leader only); returns the key."""
        self._dml("insert", table, key=key, row=row)
        return key

    def add(self, table: str, row: dict[str, Any]) -> Any:
        """Insert under a server-assigned auto key; returns the key."""
        result = self._dml("add", table, row=row)
        return protocol.decode_key(result["key"])

    def update(self, table: str, key: Any, row: dict[str, Any]) -> None:
        """Replace the row under *key* (upsert semantics)."""
        self._dml("update", table, key=key, row=row)

    def set_attr(self, table: str, key: Any, attr: str, value: Any) -> None:
        """Set one attribute of the row under *key*."""
        self._dml("set", table, key=key, attr=attr, value=value)

    def delete(self, table: str, key: Any) -> None:
        """Delete the row under *key*."""
        self._dml("delete", table, key=key)

    def _dml(self, op: str, table: str, **fields: Any) -> dict[str, Any]:
        """Ship one mutation to the leader (writes never touch a
        replica) and remember its commit stamp for read-your-writes."""
        payload: dict[str, Any] = {"verb": "dml", "op": op, "table": table}
        if "key" in fields:
            payload["key"] = protocol.encode_key(fields["key"])
        if "row" in fields:
            payload["row"] = protocol.encode_value(fields["row"])
        if "attr" in fields:
            payload["attr"] = fields["attr"]
        if "value" in fields:
            payload["value"] = protocol.encode_value(fields["value"])
        result = self._call(payload)
        if not self._txn_open:
            self.last_commit_ts = max(
                self.last_commit_ts, int(result.get("commit_ts") or 0)
            )
        return result

    # -- transactions ------------------------------------------------------------

    def begin(self) -> dict[str, Any]:
        """Open a snapshot-isolated transaction spanning round trips.

        While it is open every read routes to the leader — only the
        leader sees the transaction's buffered writes."""
        result = self._call({"verb": "begin"})
        self._txn_open = True
        return result

    def commit(self) -> dict[str, Any]:
        """First-committer-wins validation happens here; a conflict
        raises :class:`~repro.errors.TransactionConflictError`. The
        returned commit stamp becomes the read-your-writes token."""
        try:
            result = self._call({"verb": "commit"})
        finally:
            self._txn_open = False
        self.last_commit_ts = max(
            self.last_commit_ts, int(result.get("commit_ts") or 0)
        )
        return result

    def rollback(self) -> dict[str, Any]:
        """Abort the open transaction; nothing reached the engine."""
        try:
            return self._call({"verb": "rollback"})
        finally:
            self._txn_open = False

    @contextmanager
    def transaction(self) -> Iterator["RemoteDatabase"]:
        """``with db.transaction():`` — commit on success, roll back on
        error (conflicts propagate after the implicit rollback)."""
        self.begin()
        try:
            yield self
        except BaseException:
            try:
                self.rollback()
            except Exception:
                pass
            raise
        else:
            self.commit()

    # -- failover (DESIGN.md §12) -------------------------------------------------

    def promote(self, replica: int = 0) -> int:
        """Manually fail over to replica *replica*.

        Sends PROMOTE to the follower (it stops streaming, starts
        accepting writes, and mints a fencing epoch), then re-points
        this client's *leader* connection at it, so subsequent DML and
        transactions land on the new leader. Returns the fencing token
        — hand it to :meth:`fence` on a connection to the old leader if
        that process is still alive.

        Subscriptions were registered on the *old* leader's session
        and die with it: the swap drops them locally (their mirrors
        stop updating), and callers re-``subscribe`` on the new
        leader. Pushes already buffered on either connection are
        preserved and drain through the next :meth:`poll`.
        """
        if not self._replica_addrs:
            raise ValueError(
                "promote() requires a configured replica pool"
            )
        conn = self.replica_connection(replica)
        result = conn._call({"verb": "promote"})
        epoch = int(result["epoch"])
        # the promoted follower is the leader now: swap connections so
        # writes route there, and retire it from the read pool
        with self._lock:
            old_leader, self._sock = self._sock, conn._sock
            self._pushes.extend(conn._pushes)
            conn._pushes.clear()
            self._subs.clear()  # bound to the old leader's session
            self._replica_addrs.pop(replica)
            self._replica_conns.pop(replica)
            self._replica_down_until.pop(replica)
            conn._closed = True  # the socket now belongs to this client
        try:
            old_leader.close()
        except OSError:
            pass
        return epoch

    def fence(self, token: int | None = None) -> dict[str, Any]:
        """Demote the server this client is connected to (the *old*
        leader) with the fencing *token* minted by ``promote()``; its
        writing commits abort from then on."""
        return self._call({"verb": "fence", "token": token})

    # -- subscriptions -----------------------------------------------------------

    def subscribe(
        self,
        expr: str,
        params: dict[str, Any] | None = None,
        name: str | None = None,
        max_rows: int | None = None,
    ) -> RemoteSubscription:
        """Register a server-side maintained view over *expr* and
        stream its per-commit deltas to this connection."""
        result = self._call(
            {
                "verb": "subscribe",
                "expr": expr,
                "params": params or {},
                "name": name,
                "max_rows": max_rows,
            }
        )
        subscription = RemoteSubscription(
            self,
            result["sid"],
            result["name"],
            protocol.decode_value(result["snapshot"]),
            bool(result.get("incremental")),
        )
        self._subs[subscription.sid] = subscription
        return subscription

    def unsubscribe(self, sid: int) -> None:
        """Drop subscription *sid* locally and server-side."""
        self._subs.pop(sid, None)
        self._call({"verb": "unsubscribe", "sid": sid})

    def poll(self, timeout: float = 0.0) -> list[dict[str, Any]]:
        """Drain pushed subscription events (buffered + on the wire).

        Waits up to *timeout* seconds for the first wire event, then
        keeps draining whatever is immediately readable. Every event is
        folded into its own subscription's mirror before the whole
        batch is returned — no subscription's deltas are lost because a
        different one polled."""
        with self._lock:
            events = list(self._pushes)
            self._pushes.clear()
            deadline = time.monotonic() + timeout
            while not self._closed:
                wait = 0.0 if events else max(0.0, deadline - time.monotonic())
                readable, _w, _x = select.select([self._sock], [], [], wait)
                if not readable:
                    break
                frame = protocol.recv_frame(self._sock)
                if frame is None:
                    self._closed = True
                    break
                if "push" in frame:
                    events.append(self._decode_push(frame))
                # non-push frames outside a call have no owner; drop
            for event in events:
                subscription = self._subs.get(event.get("sid"))
                if subscription is not None:
                    subscription.apply([event])
            return events

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Send BYE and release the leader and replica sockets
        (idempotent)."""
        if self._closed:
            return
        try:
            with self._lock:
                request_id = next(self._ids)
                protocol.send_frame(
                    self._sock, {"verb": "bye", "id": request_id}
                )
        except OSError:
            pass
        finally:
            self._closed = True
            self._subs.clear()
            for conn in self._replica_conns:
                if conn is not None and not conn._closed:
                    conn.close()
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "RemoteDatabase":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        peer = self._sock.getpeername() if not self._closed else "closed"
        return f"<RemoteDatabase {peer}>"


def _replica_addr(spec: Any, default_host: str) -> tuple[str, int]:
    """Normalize one replica address: a port, ``(host, port)``, or
    ``"host:port"`` string."""
    if isinstance(spec, int):
        return (default_host, spec)
    if isinstance(spec, str) and ":" in spec:
        replica_host, _, replica_port = spec.rpartition(":")
        return (replica_host, int(replica_port))
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        return (str(spec[0]), int(spec[1]))
    raise ValueError(f"unintelligible replica address {spec!r}")


def connect(
    host: str = "127.0.0.1",
    port: int = 7878,
    connect_timeout: float = 10.0,
    replicas: list[Any] | None = None,
    read_mode: str | None = None,
    read_your_writes: bool = True,
    staleness_bound: int | None = None,
    catchup_timeout: float = 2.0,
) -> RemoteDatabase:
    """Open a client connection to a running :mod:`repro.server`.

    ``host:port`` is the leader. *replicas* lists follower servers
    (ports, ``(host, port)`` pairs, or ``"host:port"`` strings);
    read-only FQL/SQL then round-robins across them under the
    read-your-writes barrier (on by default) and the optional
    bounded-staleness *staleness_bound*, while writes, transactions,
    and subscriptions stay on the leader. *catchup_timeout* bounds how
    long a follower may block catching up before the read bounces to
    the leader. ``read_mode="leader"`` keeps every request on the
    leader without dropping the pool.
    """
    return RemoteDatabase(
        host,
        port,
        connect_timeout=connect_timeout,
        replicas=replicas,
        read_mode=read_mode,
        read_your_writes=read_your_writes,
        staleness_bound=staleness_bound,
        catchup_timeout=catchup_timeout,
    )
