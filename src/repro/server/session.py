"""One client's conversation with the database (DESIGN.md §11).

A :class:`Session` owns everything per-connection: the optional open
transaction (detached from any thread between round trips and attached
to whichever thread serves the next request), the FQL evaluation
namespace, the last statement for ``EXPLAIN`` reuse, and the live
subscriptions. It is transport-agnostic — the server hands it decoded
request dicts and sends back the response dicts it returns — so tests
can drive a session without a socket.

The FQL surface over the wire is the expression language itself,
serialized as text (the FuncADL shape: ship the functional expression,
not a bespoke grammar). Expressions evaluate in a closed namespace —
the FQL operators, the session's database as ``db``, the request's
``params``, and a whitelist of pure builtins. A pre-compile AST walk
rejects every underscore-prefixed name and attribute, so the expression
language cannot reach dunder machinery; injection-unsafe string
concatenation stays impossible for *data* because predicate parameters
bind to finished syntax trees exactly as in-process (paper
contribution 10).
"""

from __future__ import annotations

import ast
import builtins
import functools
import itertools
from typing import Any, Callable

from repro.errors import (
    OperatorError,
    ProtocolError,
    SchemaError,
    TransactionStateError,
)
from repro.fdm.databases import DatabaseFunction
from repro.fdm.functions import FDMFunction
from repro.obs.resources import metered
from repro.obs.trace import resume
from repro.server import protocol
from repro.storage.relation import StoredRelationFunction

__all__ = ["Session", "Subscription", "compile_fql", "fql_namespace"]

#: Pure builtins an FQL expression may call.
_SAFE_BUILTINS = (
    "abs", "all", "any", "bool", "dict", "divmod", "enumerate", "float",
    "frozenset", "int", "len", "list", "max", "min", "range", "repr",
    "reversed", "round", "set", "sorted", "str", "sum", "tuple", "zip",
)


#: Distinct FQL texts whose compiled code the process keeps (LRU).
FQL_CACHE_SIZE = 512


def compile_fql(text: str):
    """Parse, harden, and compile one FQL expression, once per
    distinct text (parameters stay parameters: they bind at ``eval``).

    Rejects statements (the wire carries expressions; DML has its own
    verb), every underscore-prefixed name or attribute (no reaching
    into interpreter internals), and syntax errors — all as
    :class:`OperatorError` so the client sees an FQL-typed failure.
    Rejected text is never cached, so it raises on every call.
    """
    if not isinstance(text, str):
        raise ProtocolError("FQL statement must be a string")
    return _compile_fql(text)


@functools.lru_cache(maxsize=FQL_CACHE_SIZE)
def _compile_fql(text: str):
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise OperatorError(f"FQL syntax error: {exc.msg}") from exc
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            raise OperatorError(
                f"FQL expressions may not access {node.attr!r}"
            )
        if isinstance(node, ast.Name) and node.id.startswith("_"):
            raise OperatorError(
                f"FQL expressions may not reference {node.id!r}"
            )
    return compile(tree, "<fql>", "eval")


class DatabaseView(DatabaseFunction):
    """The query-surface face of the served database.

    FQL expressions evaluate against *this*, never the raw
    :class:`FunctionalDatabase`: relations resolve exactly as
    in-process (``db('customers')``, ``db.customers``, database-level
    operators), but the administration and lifecycle surface —
    ``close()``, ``checkpoint()``, ``engine``, ``manager``, index DDL,
    re-partitioning — does not exist on the view, so a remote
    expression cannot take the database down or bypass the verb layer.
    Data-plane mutation stays possible only through the DML verb.
    """

    def __init__(self, db: Any):
        super().__init__(name=db._name)
        self._db = db

    @property
    def domain(self) -> Any:
        """The served database's relation-name domain, unchanged."""
        return self._db.domain

    @property
    def _version(self) -> int:
        # plan-cache fingerprints treat the view as a versioned leaf:
        # the commit clock moves on every commit and stays monotonic
        # across a replica snapshot resync (WAL length does not)
        return self._db.manager.now()

    def _apply(self, key: Any) -> Any:
        return self._db._apply(key)

    def defined_at(self, *args: Any) -> bool:
        """Delegate relation-name membership to the served database."""
        return self._db.defined_at(*args)

    def keys(self):
        """Enumerate the served database's relation names."""
        return self._db.keys()

    def __len__(self) -> int:
        return len(self._db)


def _max_rows(request: dict[str, Any]) -> int | None:
    """The request's ``max_rows`` page cap, checked before any work."""
    value = request.get("max_rows")
    if value is not None and (type(value) is not int or value < 0):
        raise ProtocolError("'max_rows' must be a non-negative integer")
    return value


def fql_namespace(db: Any) -> dict[str, Any]:
    """The closed evaluation namespace for one session."""
    from repro import fql as fql_module
    from repro.ivm import maintained_view

    namespace: dict[str, Any] = {
        name: getattr(fql_module, name) for name in fql_module.__all__
    }
    namespace.update(
        {name: getattr(builtins, name) for name in _SAFE_BUILTINS}
    )
    namespace["fql"] = fql_module
    namespace["maintained_view"] = maintained_view
    namespace["db"] = DatabaseView(db)
    return namespace


class Subscription:
    """One live view subscription: a maintained view plus its push path.

    The delta listener fires on *whichever session thread commits* —
    the committer pays the maintenance, every subscriber gets the
    per-commit delta pushed without re-running the view. The listener
    must therefore never touch this session's transaction state; it
    only serializes and sends.
    """

    def __init__(
        self,
        sid: int,
        name: str,
        view: Any,
        send: Callable[[dict[str, Any]], None],
    ):
        self.sid = sid
        self.name = name
        self.view = view
        self._send = send
        self.pushes = 0
        view.add_delta_listener(self._on_delta)

    def _on_delta(self, delta: Any) -> None:
        if self.view is None:
            return  # already torn down
        if delta is None:
            # non-incremental rebuild: the client must resync from the
            # full snapshot (rare by design; the push test pins zero)
            payload = {
                "push": "resync",
                "sid": self.sid,
                "name": self.name,
                "snapshot": protocol.encode_value(self.view._snapshot),
            }
        else:
            payload = {
                "push": "delta",
                "sid": self.sid,
                "name": self.name,
                "changes": protocol.encode_delta(delta),
            }
        self.pushes += 1
        try:
            self._send(payload)
        except Exception:
            # a subscriber that cannot be written (stalled socket, torn
            # connection) must not stall the committing thread again:
            # drop the subscription, keep the commit path alive
            self.close()

    def close(self) -> None:
        """Detach from the view; later deltas no longer reach this
        subscriber (idempotent)."""
        if self.view is not None:
            self.view.remove_delta_listener(self._on_delta)
            self.view = None


class Session:
    """Server-side state for one client connection."""

    def __init__(self, db: Any, session_id: int, server: Any = None):
        self.db = db
        self.session_id = session_id
        self.server = server
        #: The open transaction, detached whenever no request is in
        #: flight. One snapshot-isolated transaction spans any number
        #: of network round trips; first-committer-wins validation
        #: happens at COMMIT and surfaces as a typed protocol error.
        self.txn: Any = None
        self.subscriptions: dict[int, Subscription] = {}
        self._next_sid = itertools.count(1)
        self._namespace = fql_namespace(db)
        #: Last evaluated FQL statement ``(text, expression)`` — lets a
        #: bare EXPLAIN reuse the session's previous query (and its
        #: cached plan) instead of shipping the text twice.
        self._last_fql: tuple[str, Any] | None = None
        #: Per-session resource-budget overrides, set by HELLO
        #: (``max_rows_scanned``, ``max_result_rows``, ``deadline_ms``);
        #: they beat the ``REPRO_*`` env defaults, and a per-frame
        #: ``deadline_ms`` beats them in turn.
        self.budgets: dict[str, float] = {}
        self.requests = 0
        self.closing = False
        #: Transport hooks installed by the server: enqueue one push
        #: frame (the connection's push thread writes it under the lock
        #: its replies take; the enqueue itself is bounded), and tell
        #: the connection its last subscription is gone.
        self.send_push: Callable[[dict[str, Any]], None] = lambda p: None
        self.pushes_idle: Callable[[], None] = lambda: None

    # -- request dispatch --------------------------------------------------------

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Execute one request dict; always returns a response dict.

        A request carrying a sampled ``trace`` context (minted by the
        client under ``REPRO_TRACE``) dispatches under a session span,
        so planning, per-node execution, commit hooks, and WAL shipping
        below it all join the client's trace.
        """
        self.requests += 1
        verb = str(request.get("verb", "")).lower()
        handler = getattr(self, f"_verb_{verb}", None)
        if handler is None or verb.startswith("_"):
            return protocol.error_payload(
                ProtocolError(f"unknown verb {verb!r}")
            )
        with resume(
            request.get("trace"), f"session.{verb}", session=self.session_id
        ):
            if self.txn is not None and self.txn.state == "active":
                self.txn.attach()
            try:
                result = handler(request)
                return {"ok": True, "result": result}
            except Exception as exc:  # typed errors cross the wire
                return protocol.error_payload(exc)
            finally:
                if self.txn is not None and self.txn.state != "active":
                    self.txn = None  # finished under us (conflict abort)
                elif self.txn is not None:
                    # park between round trips: the transaction must not
                    # stay current on this thread (BEGIN just created it
                    # on it) — the next request may run anywhere
                    self.txn.detach()

    def close(self) -> None:
        """Tear down: drop subscriptions and replication attachment,
        roll back any open work."""
        for sub in list(self.subscriptions.values()):
            sub.close()
        self.subscriptions.clear()
        hub = getattr(self.db.engine, "replication_hub", None)
        if hub is not None:
            hub.detach(self.session_id)
        txn, self.txn = self.txn, None
        if txn is not None and txn.state == "active":
            self.db.manager.abort(txn)

    # -- FQL / EXPLAIN -----------------------------------------------------------

    def _eval_fql(self, text: str, params: Any) -> Any:
        """Compile and evaluate one FQL expression in the session's
        closed namespace; remembers it for a bare EXPLAIN."""
        code = compile_fql(text)
        scope = dict(self._namespace)
        scope["params"] = params if isinstance(params, dict) else {}
        expression = eval(code, {"__builtins__": {}}, scope)
        self._last_fql = (text, expression)
        return expression

    def _verb_hello(self, request: dict[str, Any]) -> dict[str, Any]:
        """HELLO: the connection handshake — server name, library
        version, session id, and the visible relation names. An
        optional ``budgets`` dict installs per-session resource-budget
        overrides (``max_rows_scanned``, ``max_result_rows``,
        ``deadline_ms``); re-sending HELLO replaces them, and an empty
        dict clears them back to the environment defaults."""
        import repro

        budgets = request.get("budgets")
        if budgets is not None:
            if not isinstance(budgets, dict):
                raise ProtocolError("HELLO 'budgets' must be a dict")
            parsed: dict[str, float] = {}
            for field in ("max_rows_scanned", "max_result_rows",
                          "deadline_ms"):
                value = budgets.get(field)
                if value is None:
                    continue
                if not isinstance(value, (int, float)) or value <= 0:
                    raise ProtocolError(
                        f"HELLO budget {field!r} must be a positive number"
                    )
                parsed[field] = value
            self.budgets = parsed
        return {
            "server": self.db._name,
            "version": repro.__version__,
            "session": self.session_id,
            "relations": list(self.db.keys()),
            "budgets": dict(self.budgets),
        }

    def _budgeted(self, request: dict[str, Any], verb: str, query: Any = None):
        """The resource-meter context for one read/write verb.

        Budget precedence: the frame's ``deadline_ms``, then this
        session's HELLO overrides, then the ``REPRO_*`` env vars. The
        meter deregisters (and rolls up) in *every* exit path, so a
        budget kill leaves the session and any open transaction intact
        for the next request.
        """
        deadline = request.get("deadline_ms")
        if deadline is not None and (
            not isinstance(deadline, (int, float)) or deadline <= 0
        ):
            raise ProtocolError("'deadline_ms' must be a positive number")
        return metered(
            self.db.engine,
            session_id=self.session_id,
            verb=verb,
            query=query if isinstance(query, str) else None,
            overrides=self.budgets,
            deadline_ms=deadline,
        )

    def _verb_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        """PING: liveness probe; answers ``{"pong": true}``."""
        return {"pong": True}

    def _verb_bye(self, request: dict[str, Any]) -> dict[str, Any]:
        """BYE: orderly shutdown — the server closes after responding."""
        self.closing = True
        return {"bye": True}

    def _read_barrier(self, request: dict[str, Any]) -> None:
        """Apply a read's freshness requirements before executing it.

        ``min_ts`` (read-your-writes) and ``max_lag`` (bounded
        staleness) only bind on a replica — it blocks until its apply
        loop catches up, or bounces with :class:`~repro.errors.
        ReplicaLagError` after ``catchup_timeout`` seconds. A leader is
        always current, so the barrier is a no-op there and clients
        need not know which kind of database answers them.
        """
        min_ts = request.get("min_ts")
        max_lag = request.get("max_lag")
        if min_ts is None and max_lag is None:
            return
        # class-level probe: a database function resolves unknown
        # *instance* attributes as relation names
        if not hasattr(type(self.db), "ensure_read_at"):
            return  # a leader serves its own commits by definition
        timeout = request.get("catchup_timeout")
        self.db.ensure_read_at(
            min_ts=min_ts,
            max_lag=max_lag,
            timeout=2.0 if timeout is None else float(timeout),
        )

    def _verb_fql(self, request: dict[str, Any]) -> Any:
        """FQL: evaluate an expression and return its encoded value
        (relations enumerate into column blocks, ``max_rows`` caps
        them). Honors the replica read barrier."""
        expr = request.get("expr")
        if not isinstance(expr, str):
            raise ProtocolError("FQL verb requires an 'expr' string")
        max_rows = _max_rows(request)
        self._read_barrier(request)
        with self._budgeted(request, "fql", expr) as meter:
            result = self._eval_fql(expr, request.get("params"))
            payload = protocol.encode_value(result, max_rows)
            if isinstance(payload, dict) and payload.get("@") == "relation":
                # result rows are counted at the wire-encode boundary:
                # the enumeration underneath attributed its scans to
                # this meter already, and the encoded row list is the
                # answer actually leaving the server
                meter.add_result_rows(
                    sum(len(block[1]) for block in payload["blocks"])
                )
            return payload

    def _verb_explain(self, request: dict[str, Any]) -> dict[str, Any]:
        """EXPLAIN: render the physical plan of ``expr`` — or, with no
        expression, of the session's previous FQL statement (whose
        cached plan is thereby reused). Runs on the session's budgets:
        a join's probe line pulls its atoms' batches."""
        from repro.exec import explain

        expr = request.get("expr")
        if isinstance(expr, str):
            expression = self._eval_fql(expr, request.get("params"))
            text = expr
        elif self._last_fql is not None:
            text, expression = self._last_fql
        else:
            raise OperatorError(
                "nothing to explain: send 'expr' or run an FQL statement "
                "first"
            )
        if not isinstance(expression, FDMFunction):
            raise OperatorError("EXPLAIN requires an FDM expression")
        with self._budgeted(request, "explain", text):
            return {"expr": text, "explain": explain(expression)}

    # -- SQL -------------------------------------------------------------------

    def _verb_sql(self, request: dict[str, Any]) -> dict[str, Any]:
        """SQL: run a SELECT as a function graph on the FQL pipeline.

        :mod:`repro.server.sql` translates it through the session's
        database view, so it reads through the session's own
        transaction (buffered writes included) and shares the plan
        cache, images, offload, budgets and profiling with FQL — one
        model, two query surfaces. Writes and anything without an exact
        translation are a typed ``SQLExecutionError``. Answers
        ``{"columns": [...], "rows": [[...], ...]}`` with NULL as null.
        """
        from repro.server.sql import Translation

        sql_text = request.get("sql")
        if not isinstance(sql_text, str):
            raise ProtocolError("SQL verb requires a 'sql' string")
        params = request.get("params") or []
        if not isinstance(params, list):
            raise ProtocolError("SQL params must be a positional list")
        self._read_barrier(request)
        query = Translation(self._namespace["db"], sql_text, params)
        with self._budgeted(request, "sql", sql_text) as meter:
            reply = query.reply()
            meter.add_result_rows(len(reply["rows"]))
            return reply

    # -- DML ---------------------------------------------------------------------

    def _verb_dml(self, request: dict[str, Any]) -> dict[str, Any]:
        """Fig. 10's mutation costumes, one verb: insert / add / update
        / set / delete. Runs inside the session transaction when one is
        open (buffered until COMMIT), else as an implicit statement
        transaction — identical to in-process semantics."""
        op = request.get("op")
        table = request.get("table")
        if not isinstance(table, str):
            raise ProtocolError("DML verb requires a 'table' string")
        relation = self.db(table)
        if not isinstance(relation, StoredRelationFunction):
            raise SchemaError(f"{table!r} is not a stored relation")
        key = protocol.decode_key(request.get("key"))
        row = protocol.decode_value(request.get("row"))
        with self._budgeted(request, "dml", f"{op} {table}"):
            # the meter rides the statement: WAL bytes are attributed in
            # WriteAheadLog.append, and an expired deadline aborts at
            # the pre-apply gate in TransactionManager.commit — never
            # mid-apply, so a kill is always transactionally clean
            if op == "insert":
                relation.insert(key, row)
            elif op == "add":
                key = relation.add(row)
            elif op == "update":
                relation[key] = row
            elif op == "set":
                attr = request.get("attr")
                if not isinstance(attr, str):
                    raise ProtocolError("DML 'set' requires an 'attr' string")
                relation(key)[attr] = protocol.decode_value(
                    request.get("value")
                )
            elif op == "delete":
                del relation[key]
            else:
                raise ProtocolError(f"unknown DML op {op!r}")
        return {
            "op": op,
            "table": table,
            "key": protocol.encode_key(key),
            # outside a transaction the statement committed: its stamp
            # is the client's read-your-writes token (inside one, the
            # COMMIT response carries the authoritative stamp)
            "commit_ts": self.db.manager.now(),
        }

    # -- transaction control -----------------------------------------------------

    def _verb_begin(self, request: dict[str, Any]) -> dict[str, Any]:
        """BEGIN: open the session's snapshot-isolated transaction
        (one per session; it spans round trips until COMMIT/ROLLBACK)."""
        if self.txn is not None:
            raise TransactionStateError(
                "this session already has an open transaction"
            )
        self.txn = self.db.manager.begin(activate=True)
        return {"txn": self.txn.txn_id, "snapshot": self.txn.start_ts}

    def _verb_commit(self, request: dict[str, Any]) -> dict[str, Any]:
        """COMMIT: first-committer-wins validation; a conflict crosses
        the wire as ``TransactionConflictError``. The response carries
        the commit stamp — the client's read-your-writes token."""
        if self.txn is None:
            raise TransactionStateError(
                "no transaction is open on this session"
            )
        txn, self.txn = self.txn, None
        commit_ts = self.db.manager.commit(txn)  # conflicts raise
        return {"txn": txn.txn_id, "committed": True, "commit_ts": commit_ts}

    def _verb_rollback(self, request: dict[str, Any]) -> dict[str, Any]:
        """ROLLBACK: abort the session transaction; its buffer never
        reached the engine or the WAL."""
        if self.txn is None:
            raise TransactionStateError(
                "no transaction is open on this session"
            )
        txn, self.txn = self.txn, None
        self.db.manager.abort(txn)
        return {"txn": txn.txn_id, "rolled_back": True}

    # -- STATS -------------------------------------------------------------------

    def _verb_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        """STATS: the database's introspection dict (``db.stats()``)
        plus this session's counters and, when socket-served, the
        server's admission stats (see docs/operations.md for the field
        reference)."""
        stats = self.db.stats()
        stats["session"] = {
            "id": self.session_id,
            "requests": self.requests,
            "transaction_open": self.txn is not None,
            "subscriptions": {
                sub.name: dict(sub.view.maintenance_stats)
                for sub in self.subscriptions.values()
                if sub.view is not None
            },
        }
        if self.server is not None:
            stats["server"] = self.server.stats()
        return stats

    # -- METRICS -----------------------------------------------------------------

    def _verb_metrics(self, request: dict[str, Any]) -> dict[str, Any]:
        """METRICS: Prometheus text exposition format, one scrapeable
        page — the database engine's registry (plan cache, WAL,
        replication lag, resource totals) plus, when socket-served,
        the server's admission registry (request latency histogram,
        slot occupancy, queue depth, shed count). The metric reference
        table lives in docs/observability.md."""
        from repro.obs.metrics import metrics_for

        text = metrics_for(self.db.engine).prometheus()
        if self.server is not None:
            text += self.server.metrics.prometheus()
        return {"text": text}

    # -- HEALTH ------------------------------------------------------------------

    def _verb_health(self, request: dict[str, Any]) -> dict[str, Any]:
        """HEALTH: the one-dict cluster liveness picture — role, epoch,
        commit clock, fencing state, WAL floor/size, replication lag in
        commits and seconds, admission-queue depth, and the newest
        lifecycle events. Answered by leaders and replicas alike, so an
        operator (or ``tools/repro_top.py``) polls every member with
        the same verb; the runbook row lives in docs/operations.md."""
        from repro.obs.health import health_snapshot

        return health_snapshot(self.db, self.server)

    # -- WORKLOAD ----------------------------------------------------------------

    def _verb_workload(self, request: dict[str, Any]) -> dict[str, Any]:
        """WORKLOAD: the workload profile — one row per query-class
        fingerprint (calls, rows, p50/p95 latency, current plan hash,
        plan-change and regression counters, and the class's cost row),
        the same records TOP serves as ``fingerprints``. With a
        ``fingerprint`` field in the request, the response also carries
        ``diff``: that class's last-good vs current physical plan, the
        evidence trail for diagnosing a plan regression (recipe in
        docs/operations.md)."""
        from repro.obs.resources import resources_for

        accounting = resources_for(self.db.engine)
        classes = accounting.classes()
        response: dict[str, Any] = {
            "classes": classes,
            "tracked": len(classes),
        }
        fingerprint = request.get("fingerprint")
        if fingerprint is not None:
            response["diff"] = accounting.plan_diff(str(fingerprint))
        return response

    # -- TOP ---------------------------------------------------------------------

    def _verb_top(self, request: dict[str, Any]) -> dict[str, Any]:
        """TOP: the resource-accounting rollup — cumulative totals,
        queries/killed counts, the meters of queries live right now
        (inspectable mid-flight), per-session consumption rows, and
        ``fingerprints``: the query classes, the same records WORKLOAD
        serves (cost, latency and plan in one row), which is all
        ``tools/repro_top.py`` polls for its class table."""
        from repro.obs.resources import resources_for

        accounting = resources_for(self.db.engine)
        limit = request.get("limit")
        snapshot = accounting.snapshot(
            active_limit=int(limit) if isinstance(limit, (int, float)) else 32
        )
        snapshot["top_consumer"] = accounting.top_consumer()
        return snapshot

    # -- SUBSCRIBE ---------------------------------------------------------------

    def _verb_subscribe(self, request: dict[str, Any]) -> dict[str, Any]:
        """Register a maintained view and stream its per-commit deltas.

        The view goes into the engine's IVM :class:`ViewRegistry` as an
        *eager* view: every commit anywhere on the database syncs it
        through the delta-propagation rules, and the applied delta — not
        the recomputed result — is pushed to this client.
        """
        from repro.ivm import MaintainedView

        if self.txn is not None:
            raise TransactionStateError(
                "cannot subscribe inside an open transaction: the "
                "initial snapshot would be tainted by buffered writes"
            )
        expr = request.get("expr")
        if not isinstance(expr, str):
            raise ProtocolError("SUBSCRIBE requires an 'expr' string")
        max_rows = _max_rows(request)
        expression = self._eval_fql(expr, request.get("params"))
        if not isinstance(expression, FDMFunction):
            raise OperatorError("SUBSCRIBE requires an FDM expression")
        sid = next(self._next_sid)
        name = request.get("name") or f"sub{self.session_id}.{sid}"
        view = MaintainedView(expression, name=str(name), eager=True)
        subscription = Subscription(sid, str(name), view, self._push)
        self.subscriptions[sid] = subscription
        with view._sync_lock:
            # the view is already registered: another session's commit
            # could patch the snapshot dict mid-enumeration otherwise
            snapshot = protocol.encode_value(view, max_rows)
        return {
            "sid": sid,
            "name": subscription.name,
            # views whose graphs resist delta analysis still answer
            # reads, but cannot push: tell the client up front
            "incremental": view._ivm is not None,
            "snapshot": snapshot,
        }

    def _verb_unsubscribe(self, request: dict[str, Any]) -> dict[str, Any]:
        """UNSUBSCRIBE: tear down one subscription by sid; its view
        unregisters from the IVM registry and pushes stop."""
        sid = request.get("sid")
        subscription = self.subscriptions.pop(sid, None)
        if subscription is None:
            raise ProtocolError(f"no subscription with sid {sid!r}")
        subscription.close()
        if not self.subscriptions:
            self.pushes_idle()
        return {"sid": sid, "unsubscribed": True}

    def _push(self, payload: dict[str, Any]) -> None:
        """Enqueue a push frame; raises when the connection's outbound
        path is dead or saturated (the subscription then closes
        itself — see :meth:`Subscription._on_delta`)."""
        self.send_push(payload)

    # -- replication (DESIGN.md §12) ---------------------------------------------

    def _verb_replica_hello(self, request: dict[str, Any]) -> dict[str, Any]:
        """REPLICA_HELLO: attach this session as a WAL-shipping
        follower.

        ``since`` is the follower's applied commit stamp, ``epoch`` the
        newest fencing epoch it has witnessed. The response either
        carries the WAL backlog (``mode: "stream"``) or a full snapshot
        (``mode: "snapshot"``) when the requested history fell below
        the leader's WAL floor; every later commit then arrives as a
        ``WAL_BATCH`` push frame on this connection. Works on any
        database — including a replica, so read fan-out can cascade.
        """
        from repro.replication import hub_for

        hub = hub_for(self.db)
        return hub.hello(
            self.session_id,
            int(request.get("since") or 0),
            int(request.get("epoch") or 0),
            self._push,
        )

    def _verb_replica_ack(self, request: dict[str, Any]) -> dict[str, Any]:
        """REPLICA_ACK: the follower reports its applied stamp; the
        response carries the leader's clock and the resulting lag."""
        from repro.errors import ReplicationError

        hub = getattr(self.db.engine, "replication_hub", None)
        if hub is None:
            raise ReplicationError(
                "this server ships no WAL (no REPLICA_HELLO was seen)"
            )
        lag_seconds = request.get("lag_seconds")
        return hub.ack(
            self.session_id,
            int(request.get("applied_ts") or 0),
            lag_seconds=lag_seconds,
        )

    def _verb_promote(self, request: dict[str, Any]) -> dict[str, Any]:
        """PROMOTE: manual failover — turn a replica into a writable
        leader and mint the fencing epoch the operator must hand to
        the demoted leader's FENCE."""
        from repro.errors import ReplicationError

        if not hasattr(type(self.db), "promote"):
            raise ReplicationError(
                "PROMOTE requires a replica database; this server is "
                "already a leader"
            )
        return {"epoch": self.db.promote(), "promoted": True}

    def _verb_fence(self, request: dict[str, Any]) -> dict[str, Any]:
        """FENCE: demote this (old) leader after a failover — every
        later writing commit aborts with ``FencedLeaderError``. The
        ``token`` is the epoch minted by the promoted replica."""
        token = request.get("token")
        self.db.fence(token)
        return {"fenced": True, "token": token}

    def __repr__(self) -> str:
        return (
            f"<Session {self.session_id}: {self.requests} requests, "
            f"txn={'open' if self.txn else 'none'}, "
            f"{len(self.subscriptions)} subscriptions>"
        )
