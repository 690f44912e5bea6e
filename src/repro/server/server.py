"""The concurrent database server (DESIGN.md §11).

Thread-per-connection over a *bounded admission pipeline*: the accept
loop pushes raw connections into a fixed-size queue, and a dispatcher
admits them into session threads only while free session slots exist.
Overload therefore degrades in two graceful steps — first arrivals
queue (clients see latency), then, when even the queue is full, they
are refused with a typed ``ServerBusyError`` frame (clients see a
retryable error). The server process never falls over from admission
pressure.

Each session thread serves its connection's requests strictly in order;
the session's open transaction is detached between requests, so the
snapshot (and first-committer-wins validation) spans round trips
regardless of which thread runs them. The session thread writes its own
replies; subscription pushes originate on *other* sessions' committing
threads and reach the socket through a push thread that runs while the
connection has something to push. Both write under one per-connection
lock.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.server import protocol
from repro.server.session import Session

__all__ = ["ReproServer", "serve"]

#: Poison pill for the dispatcher queue.
_STOP = object()

#: Upper bound on enqueuing one subscription push. The committing
#: thread pays this at most once per stalled subscriber: a timed-out
#: enqueue closes the subscription.
_PUSH_TIMEOUT = 5.0

#: Push frames buffered per connection before pushes start timing out.
_OUTBOUND_QUEUE = 128


class _ConnectionWriter:
    """The outbound path of one connection: replies and pushes.

    The session thread writes its own replies (:meth:`send_response`).
    Pushes come from *other* sessions' committing threads, so they are
    enqueued with a bounded wait and written by a push thread, started
    by a push when none runs (a subscription's delta or a follower's
    WAL batch) and stopped by :meth:`idle` when the last subscription
    goes: a connection with nothing to push runs on its session thread
    alone. Both writers take one lock per frame, so no frame is ever
    interleaved or torn, and a subscriber that stops reading costs a
    committer at most ``_PUSH_TIMEOUT`` — only a push thread, or the
    session thread on its own client's behalf, ever blocks on the
    stalled socket.
    """

    _STOP = object()

    def __init__(self, conn: socket.socket):
        self._conn = conn
        self._write = threading.Lock()  # one frame at a time
        self._queue: queue.Queue = queue.Queue(maxsize=_OUTBOUND_QUEUE)
        self._start = threading.Lock()
        self._thread: threading.Thread | None = None
        self._retired: threading.Thread | None = None  # flushing to its stop
        self.dead = False

    def _send(self, payload: dict[str, Any]) -> None:
        try:
            with self._write:
                protocol.send_frame(self._conn, payload)
        except Exception:
            # the stream is unusable (peer gone, or a partial frame):
            # kill the whole connection so the reader exits too —
            # serving on a torn stream would feed the client garbage
            # lengths
            self.dead = True
            try:
                self._conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            raise OSError("connection writer is dead") from None

    def _drain(self, retired: threading.Thread | None) -> None:
        if retired is not None:
            retired.join()  # it writes the pushes queued before its stop
        while True:
            payload = self._queue.get()
            if payload is self._STOP:
                return
            try:
                self._send(payload)
            except OSError:
                return

    def send_response(self, payload: dict[str, Any]) -> None:
        """Write a reply; blocks the session's own thread only."""
        if self.dead:
            raise OSError("connection writer is dead")
        self._send(payload)

    def send_push(self, payload: dict[str, Any]) -> None:
        """Enqueue a push with a bounded wait (commit-path safety)."""
        if self.dead:
            raise OSError("connection writer is dead")
        self._queue.put(payload, timeout=_PUSH_TIMEOUT)
        # checked after the put, under the lock idle() stops under: the
        # push is ahead of a stop, or a new thread takes it after one
        with self._start:
            if self._thread is None and not self.dead:
                self._thread = threading.Thread(
                    target=self._drain, args=(self._retired,), daemon=True,
                    name="repro-conn-writer",
                )
                self._thread.start()

    def idle(self) -> None:
        """Nothing is left to push: the push thread stops once it has
        written what is queued (a later push starts another)."""
        with self._start:
            if self._thread is None:
                return
            try:
                self._queue.put_nowait(self._STOP)
            except queue.Full:
                return  # a stalled subscriber: close() unsticks it
            self._retired, self._thread = self._thread, None

    def close(self) -> None:
        """Refuse further pushes; stop the push thread, flushing what
        it can."""
        with self._start:
            self.dead = True
            thread = self._thread
        if thread is None:
            return
        # graceful first (flush queued pushes), then force: a writer
        # wedged on a stalled peer is unstuck by the socket shutdown
        try:
            self._queue.put_nowait(self._STOP)
        except queue.Full:
            pass
        thread.join(timeout=2)
        if thread.is_alive():
            try:
                self._conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            thread.join(timeout=2)


class ReproServer:
    """A concurrent server for one :class:`FunctionalDatabase`."""

    def __init__(
        self,
        db: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sessions: int = 32,
        admission_queue: int = 64,
    ):
        self.db = db
        self._listener = socket.create_server(
            (host, port), backlog=max(max_sessions, 8)
        )
        self.host, self.port = self._listener.getsockname()[:2]
        self.max_sessions = max_sessions
        self._admission: queue.Queue = queue.Queue(maxsize=admission_queue)
        self._slots = threading.BoundedSemaphore(max_sessions)
        self._running = threading.Event()
        self._lock = threading.Lock()
        self._sessions: dict[int, tuple[Session, socket.socket]] = {}
        self._next_session = itertools.count(1)
        self._threads: list[threading.Thread] = []
        # admission counters (surfaced through STATS)
        self.accepted = 0
        self.rejected_busy = 0
        self.requests_served = 0
        #: The server's own metrics registry (METRICS verb): request
        #: latency plus admission gauges. The db engine's registry is
        #: separate — one server may front a db another process owns.
        self.metrics = MetricsRegistry()
        self._request_latency = self.metrics.histogram(
            "server_request_latency_seconds",
            "Wall time spent inside session dispatch per request",
        )
        self.metrics.gauge(
            "server_active_sessions",
            "Connections currently holding a session slot",
            fn=lambda: len(self._sessions),
        )
        self.metrics.gauge(
            "server_session_slot_occupancy",
            "Fraction of session slots in use",
            fn=lambda: len(self._sessions) / self.max_sessions
            if self.max_sessions
            else 0.0,
        )
        self.metrics.gauge(
            "server_admission_queue_depth",
            "Connections waiting for a session slot",
            fn=self._admission.qsize,
        )
        self.metrics.gauge(
            "server_accepted_total",
            "Connections accepted by the listener",
            fn=lambda: self.accepted,
        )
        self.metrics.gauge(
            "server_rejected_busy_total",
            "Connections shed with ServerBusyError (queue full)",
            fn=lambda: self.rejected_busy,
        )
        self.metrics.gauge(
            "server_requests_total",
            "Requests served across all sessions",
            fn=lambda: self.requests_served,
        )

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "ReproServer":
        """Launch the accept and dispatch threads (idempotent)."""
        if self._running.is_set():
            return self
        self._running.set()
        for target, label in (
            (self._accept_loop, "accept"),
            (self._dispatch_loop, "dispatch"),
        ):
            thread = threading.Thread(
                target=target,
                daemon=True,
                name=f"repro-server-{label}:{self.port}",
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Stop accepting, unblock everything, close live connections."""
        if not self._running.is_set():
            return
        self._running.clear()
        # Wake a blocked accept(): closing the listening fd from another
        # thread does not reliably interrupt accept() on Linux, but a
        # no-op connection always does.
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=1
            ):
                pass
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._admission.put(_STOP)
        with self._lock:
            live = list(self._sessions.values())
        for _session, conn in live:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads.clear()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.stop()
        return False

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Admission-pipeline counters plus, when this database ships
        its WAL, the replication hub's per-follower rows (see
        docs/operations.md for the field reference)."""
        with self._lock:
            active = len(self._sessions)
        hub = getattr(self.db.engine, "replication_hub", None)
        return {
            "host": self.host,
            "port": self.port,
            "max_sessions": self.max_sessions,
            "active_sessions": active,
            "queued": self._admission.qsize(),
            "accepted": self.accepted,
            "rejected_busy": self.rejected_busy,
            "requests": self.requests_served,
            "replication": hub.stats() if hub is not None else None,
        }

    # -- admission pipeline ------------------------------------------------------

    def _accept_loop(self) -> None:
        while self._running.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            self.accepted += 1
            try:
                self._admission.put_nowait(conn)
            except queue.Full:
                # beyond-capacity shedding: a typed, retryable refusal.
                # The refusal names the fingerprint currently consuming
                # the most rows, so a shed client (and the event log)
                # can see *why* the server is saturated, not just that
                # it is.
                self.rejected_busy += 1
                from repro.obs.events import emit
                from repro.obs.resources import resources_for

                try:
                    top_consumer = resources_for(self.db.engine).top_consumer()
                except Exception:
                    top_consumer = None
                emit(
                    self.db.engine,
                    "shed",
                    queue_depth=self._admission.maxsize,
                    sessions=self.max_sessions,
                    rejected_total=self.rejected_busy,
                    top_consumer=top_consumer,
                )
                message = (
                    "admission queue full "
                    f"({self._admission.maxsize} waiting, "
                    f"{self.max_sessions} sessions); retry later"
                )
                if top_consumer is not None:
                    message += f"; top consumer: {top_consumer}"
                try:
                    protocol.send_frame(
                        conn,
                        {
                            "id": None,
                            "ok": False,
                            "error": {
                                "type": "ServerBusyError",
                                "message": message,
                            },
                        },
                    )
                except OSError:
                    pass
                _close_quietly(conn)

    def _dispatch_loop(self) -> None:
        while True:
            conn = self._admission.get()
            if conn is _STOP:
                break
            # Backpressure: queued connections wait here for a slot
            # instead of spawning unbounded threads. The wait polls so
            # stop() never leaves the dispatcher parked on a semaphore.
            admitted = False
            while self._running.is_set():
                if self._slots.acquire(timeout=0.2):
                    admitted = True
                    break
            if not admitted:
                _close_quietly(conn)
                continue
            if not self._running.is_set():
                self._slots.release()
                _close_quietly(conn)
                continue
            session_id = next(self._next_session)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn, session_id),
                daemon=True,
                name=f"repro-session-{session_id}",
            )
            thread.start()

    # -- one connection ----------------------------------------------------------

    def _serve_connection(self, conn: socket.socket, session_id: int) -> None:
        session = Session(self.db, session_id, server=self)
        writer = _ConnectionWriter(conn)
        session.send_push, session.pushes_idle = writer.send_push, writer.idle
        with self._lock:
            self._sessions[session_id] = (session, conn)
        try:
            while self._running.is_set() and not writer.dead:
                try:
                    request = protocol.recv_frame(conn)
                except Exception:
                    break  # torn frame / reset: the connection is gone
                if request is None:
                    break
                t0 = time.perf_counter()
                response = session.handle(request)
                self._request_latency.observe(time.perf_counter() - t0)
                response["id"] = request.get("id")
                self.requests_served += 1
                try:
                    writer.send_response(response)
                except OSError:
                    break
                if session.closing:
                    break
        finally:
            with self._lock:
                self._sessions.pop(session_id, None)
            session.close()
            writer.close()
            _close_quietly(conn)
            self._slots.release()


def _close_quietly(conn: socket.socket) -> None:
    try:
        conn.close()
    except OSError:
        pass


def serve(
    db: Any,
    port: int = 0,
    host: str = "127.0.0.1",
    max_sessions: int = 32,
    admission_queue: int = 64,
) -> ReproServer:
    """Start serving *db* on ``host:port`` (0 picks a free port).

    Returns the running :class:`ReproServer`; use it as a context
    manager (or call :meth:`ReproServer.stop`) to shut down::

        with repro.server.serve(db, port=7878) as srv:
            ...  # clients connect to srv.port
    """
    return ReproServer(
        db,
        host=host,
        port=port,
        max_sessions=max_sessions,
        admission_queue=admission_queue,
    ).start()
