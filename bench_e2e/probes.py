"""The traced run: where a request's time goes, layer by layer.

Measured from outside, as the first benchmark of a program must be:
every number here is a timed call from this file into a public
function of one layer, or an exact count read from ``db.stats()``
before and after one pass. Nothing in the program is instrumented.

A traced run does four things for *every* workload, whichever one
``--workload`` names (a layer's cost is a property of the program, and
the driver wants every per-layer metric from every traced run):

1. one set-up, one unmeasured pass and two **untraced** passes — the
   per-class p50s (pooled) and the ``db.stats()`` count deltas (last);
2. one **traced** pass — a span around every op; untraced / traced
   ops/s is the tracing overhead;
3. a **replay** of every tenth op of each class through the layers it
   crosses, one child span per layer, named after the metric it feeds;
4. the same walks again in plain loops until each span name has enough
   samples for a median, plus the probes no op walks (WAL append,
   commit, view sync, mirror sync, reopen).

A metric is the median *self time* of the spans that carry its name,
in calibrated time like everything else (``gauge.py``).
Unlike ``workloads.py`` this file reaches below the stable surface; an
entry point a later change removes makes its metric ``null``, never a
failed run.
"""

from __future__ import annotations

import gc
import importlib
import json
import shutil
import socket
import sys
import traceback
from statistics import median
from typing import Any, Callable

import repro
from repro import fql

from bench_e2e import gauge, gen
from bench_e2e.trace import Tracer, percentile
from bench_e2e.workloads import (KEY_NAMES, PROGRAMS, Program, build_fql,
                                 fql_text, materialize, sql_text)

_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}
#: the traced run visits all four workloads in one process and has to
#: stay well inside the driver's cap for a run: two untraced passes
#: behind each class p50, three reopenings behind each reopen_s
PLAIN_PASSES = 2
REOPENS = 3
_COUNTS = {
    # name: (unit, better)
    "exec.cache.hit_ratio": ("ratio", "higher"),
    "exec.run.rows_scanned_per_result_row": ("count", "lower"),
    "exec.run.kernel_batch_ratio": ("ratio", "higher"),
    "compile.mirror.rows_per_commit": ("count", "lower"),
    "compile.offload.fallback_ratio": ("ratio", "lower"),
    "storage.wal.bytes_per_commit": ("count", "lower"),
    "ivm.fallback_ratio": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
_TIMED = [
    "server.protocol.encode_us_per_row", "server.protocol.encode_group_ms",
    "server.protocol.frame_us",
    "server.session.compile_us", "server.session.eval_us",
    "server.session.handle_point_us", "server.session.handle_filter_ms",
    "server.session.handle_dml_us", "server.session.sql_steady_ms",
    "server.session.sql_after_write_ms",
    "client.roundtrip_ping_us", "client.roundtrip_point_us",
    "client.decode_us_per_row",
    "exec.cache.fingerprint_us", "optimizer.optimize_us", "exec.lower_us",
    "exec.run.filter_ms", "exec.run.group_ms", "exec.run.filter_group_ms",
    "exec.run.topk_ms", "exec.run.join_ms",
    "partition.filter_ms",
    "compile.mirror.sync_ms", "compile.sqlgen.generate_us",
    "compile.offload.query_ms",
    "storage.wal.encode_us", "storage.wal.append_us",
    "txn.commit_us", "txn.commit_durable_us",
    "storage.wal.load_s", "storage.engine.recover_s",
    "ivm.sync_us",
    # end-to-end numbers only some workloads have, so BENCHMARK.json
    # cannot bound them (every workload must report every bounded metric)
    "e2e.embedded_offload_rw.reopen_s", "e2e.served_writes.reopen_s",
    "e2e.served_writes.write_p50_ms", "e2e.served_writes.write_p95_ms",
]


def _time_unit(name: str) -> str:
    return name.removesuffix("_per_row").rsplit("_", 1)[1]


#: every per-layer metric of BENCHMARK.json: name → (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    **{name: (_time_unit(name) + "/row" * name.endswith("_per_row"), "lower")
       for name in _TIMED},
    **{f"class.{w}.{cls}.p50_ms": ("ms", "lower")
       for w, classes in gen.CLASSES.items() for cls in classes},
    **_COUNTS,
}


class Layers:
    """Timed calls into the program's layers, as spans named after the
    metric each feeds. A call whose entry point is gone, or that
    raises, is noted in :attr:`errors` and yields ``None``; the steps
    that needed its result are skipped, the rest of the run goes on."""

    def __init__(self, tracer: Tracer, reps: int):
        self.tracer = tracer
        self.reps = reps
        self.errors: list[str] = []
        #: gauge samples taken beside the probes, to calibrate their spans
        self.speeds: list[tuple[float, float]] = []

    def entry(self, module: str, attr: str) -> Any:
        """``module.attr`` (dotted), or ``None`` once it no longer exists."""
        try:
            target: Any = importlib.import_module(module)
            for part in attr.split("."):
                target = getattr(target, part)
            return target
        except (ImportError, AttributeError) as exc:
            self.errors.append(f"{module}.{attr}: {exc}")
            return None

    def timed(self, name: str, fn: Callable[..., Any] | None, *args: Any,
              units: float = 1.0) -> Any:
        """``fn(*args)`` inside a span called *name*. Skipped when *fn*
        or an argument is ``None``: an earlier step it needs is missing."""
        if fn is None or any(arg is None for arg in args):
            return None
        try:
            with self.tracer.span(name, units=units):
                return fn(*args)
        except Exception:
            self.errors.append(f"{name}: {traceback.format_exc(limit=2)}")
            return None

    def call(self, module: str, attr: str, *args: Any) -> Any:
        """A helper call that feeds no metric (its span is named after
        the entry point)."""
        return self.timed(f"{module}.{attr}", self.entry(module, attr), *args)

    def repeat(self, fn: Callable[..., None], *args: Any, slow: bool = False) -> None:
        """Call a walk or probe until its spans have enough samples for
        a median: ``reps`` times, a third of that for the walks that
        take tens of milliseconds (the time cap)."""
        for _ in range(max(3, self.reps // 3) if slow else self.reps):
            self.speeds.append(gauge.sample())
            fn(*args)

    # -- walks: one op, layer by layer ------------------------------------------

    def _optimized(self, expr: Any) -> Any:
        rules = self.call("repro.exec.run", "pipeline_rules")
        return self.timed("optimizer.optimize_us",
                          self.entry("repro.optimizer", "optimize"), expr, rules)

    def embedded(self, db: Any, cls: str, q: dict) -> None:
        """An ``embedded_batch`` read: graph → fingerprint → optimize →
        lower → drain with the plan warm."""
        expr = build_fql(db, q)
        self.timed("exec.cache.fingerprint_us",
                   self.entry("repro.exec.cache", "fingerprint"), expr)
        self.timed("exec.lower_us", self.entry("repro.exec.lower", "lower"),
                   self._optimized(expr))
        materialize(expr)  # plan it once, so the timed drain finds it cached
        self.timed(f"exec.run.{cls}_ms", materialize, expr)

    def offloaded(self, db: Any, cls: str, q: dict) -> None:
        """An ``embedded_offload_rw`` read on a fresh mirror: graph →
        optimize → SQL text → SQLite + decode."""
        expr = build_fql(db, q)
        materialize(expr)  # syncs the mirror if the last op was a write
        optimized = self._optimized(expr)
        mirror = self.call("repro.compile.mirror", "mirror_for", db.engine)
        parse = self.entry("repro.compile.sqlgen", "parse_graph")
        generate = self.entry("repro.compile.sqlgen", "generate_sql")
        if None not in (mirror, parse, generate):
            with mirror.lock:  # fresh already: this only fetches the table mirror
                table = self.call("repro.compile.mirror", "EngineMirror.ensure_synced",
                                  mirror, q["from"], db.manager.now())
            self.timed("compile.sqlgen.generate_us",
                       lambda graph, t: generate(parse(graph), t), optimized, table)
        self.timed("compile.offload.query_ms", materialize, expr)

    def served(self, local: "LocalServer", cls: str, q: dict) -> None:
        """A ``served_reads`` request against an in-process copy of the
        served database: text → code → graph → encode, then the whole
        of Session.handle, the reply's frame over a socketpair, and the
        client's decode."""
        rows = float(len(local.workload.tables["customers"]))
        if "select" in q:
            text, params = sql_text(q)
            request = {"verb": "sql", "sql": text, "params": params}
        else:
            text, params = fql_text(q)
            request = {"verb": "fql", "expr": text, "params": params}
            code = self.timed("server.session.compile_us",
                              self.entry("repro.server.session", "compile_fql"), text)
            expr = self.timed(
                "server.session.eval_us",
                lambda c, names: eval(c, {"__builtins__": {}},
                                      {**names, "params": params}),
                code, local.namespace)
            encode = self.entry("repro.server.protocol", "encode_value")
            if cls == "dump":
                self.timed("server.protocol.encode_us_per_row", encode, expr, units=rows)
            elif cls == "group":
                self.timed("server.protocol.encode_group_ms", encode, expr)
        handle = {"point": "server.session.handle_point_us",
                  "filter20": "server.session.handle_filter_ms",
                  "sql": "server.session.sql_steady_ms"}.get(
                      cls, f"server.session.handle.{cls}")
        response = self.timed(handle, getattr(local.session, "handle", None),
                              dict(request))
        if cls == "filter20":
            send = self.entry("repro.server.protocol", "send_frame")
            recv = self.entry("repro.server.protocol", "recv_frame")
            if send is not None and recv is not None:
                self.timed("server.protocol.frame_us",
                           lambda reply: (send(local.pair[0], reply),
                                          recv(local.pair[1])), response)
        elif cls == "dump" and response is not None:
            self.timed("client.decode_us_per_row",
                       self.entry("repro.server.protocol", "decode_value"),
                       response.get("result"), units=rows)


class LocalServer:
    """The server's layers without the socket: an in-process copy of a
    served database, a Session on it, and a socketpair for frames."""

    def __init__(self, layers: Layers, workload: gen.Workload):
        self.workload = workload
        self.db = repro.connect(f"{workload.name}-local", default=False)
        for table, rows in workload.tables.items():
            self.db.create_table(table, rows, key_name=KEY_NAMES[table])
        self.session = layers.call("repro.server.session", "Session", self.db, 1)
        self.namespace = layers.call("repro.server.session", "fql_namespace", self.db)
        self.pair = socket.socketpair()

    def close(self) -> None:
        for sock in self.pair:
            sock.close()
        self.db.close()


def _stats_of(program: Program) -> dict[str, Any]:
    """``db.stats()`` of the program under test, local or served."""
    db = getattr(program, "db", None)
    return db.stats() if db is not None else program.server_stats()


def _delta(before: dict, after: dict, *path: str) -> float:
    for key in path:
        before, after = before[key], after[key]
    return after - before


def _ratio(part: float, whole: float) -> float | None:
    return part / whole if whole else None


def _counts(name: str, before: dict, after: dict, values: dict[str, Any]) -> None:
    """Exact counts over one untraced pass, from ``db.stats()`` deltas."""
    commits = _delta(before, after, "transactions", "commits")
    if name == "embedded_batch":
        hits = _delta(before, after, "plan_cache", "hits")
        misses = _delta(before, after, "plan_cache", "misses")
        values["exec.cache.hit_ratio"] = _ratio(hits, hits + misses)
        totals = before["resources"]["totals"], after["resources"]["totals"]
        values["exec.run.rows_scanned_per_result_row"] = _ratio(
            _delta(*totals, "rows_scanned"), _delta(*totals, "result_rows"))
        kernel = _delta(*totals, "kernel_batches")
        values["exec.run.kernel_batch_ratio"] = _ratio(
            kernel, kernel + _delta(*totals, "python_batches"))
    elif name == "embedded_offload_rw":
        values["compile.mirror.rows_per_commit"] = _ratio(
            _delta(before, after, "offload", "rows_mirrored"), commits)
        offloaded = _delta(before, after, "offload", "queries_offloaded")
        fallbacks = _delta(before, after, "offload", "fallbacks")
        values["compile.offload.fallback_ratio"] = _ratio(
            fallbacks, offloaded + fallbacks)
    elif name == "served_writes":
        values["storage.wal.bytes_per_commit"] = _ratio(
            _delta(before, after, "wal", "bytes"), commits)
        view = before["views"]["per_status"], after["views"]["per_status"]
        values["ivm.fallback_ratio"] = _ratio(
            _delta(*view, "fallback_recomputes"), _delta(*view, "syncs"))


#: classes whose walk takes well under 20 ms: these get the full ``reps``
_FAST_CLASSES = ("point", "filter20", "sql", "filter_orders")


def _sampled(script: list[dict], every: int = 10) -> list[tuple[int, dict]]:
    """Every tenth read of each class (the 1st, 11th, …), with op ids."""
    picked, seen = [], {}
    for i, op in enumerate(script):
        if "q" in op and op["cls"] != "view":
            n = seen[op["cls"]] = seen.get(op["cls"], 0) + 1
            if n % every == 1:
                picked.append((i, op))
    return picked


def _trace_workload(name: str, seed: int, scale: str, workdir: str, layers: Layers,
                    values: dict[str, Any], overhead: list[float]) -> tuple[int, int]:
    """Steps 1–4 of the module docstring for one workload; returns
    (ops attempted, ops failed)."""
    tracer = layers.tracer
    workload = gen.GENERATORS[name](seed, scale)
    program = PROGRAMS[name](workload, workdir)
    local = None
    try:
        program.setup()
        # one unmeasured pass: set-up ran one op of each class, a pass
        # runs every variant of it, and the counts should be a steady
        # pass's, not the first one's
        failed = program.run_pass(workload.script(0)).failed
        plain = []
        for p in range(1, 1 + PLAIN_PASSES):
            before = _stats_of(program)
            gc.collect()
            plain.append(program.run_pass(workload.script(p)))
        _counts(name, before, _stats_of(program), values)
        failed += sum(p.failed for p in plain)
        by_class: dict[str, list[float]] = {}
        for op in (op for p in plain for op in p.ops):
            by_class.setdefault(op.cls, []).append(op.seconds * 1e3)
        for cls, ms in by_class.items():
            values[f"class.{name}.{cls}.p50_ms"] = median(ms)
        if name == "served_writes":
            writes = [ms for cls, all_ms in by_class.items() for ms in all_ms
                      if gen.CLASSES[name][cls][0] == "write"]
            values["e2e.served_writes.write_p50_ms"] = median(writes)
            values["e2e.served_writes.write_p95_ms"] = percentile(writes, 95)

        script = workload.script(1 + PLAIN_PASSES)
        gc.collect()
        with tracer.span(f"pass.{name}"):
            spanned = program.run_pass(script, tracer)
        failed += spanned.failed
        overhead.append(median(len(p.ops) / p.wall for p in plain)
                        / (len(spanned.ops) / spanned.wall))

        if name == "served_reads":
            local = target = LocalServer(layers, workload)
        else:
            target = getattr(program, "db", None)
        walk = _WALKS.get(name)
        if walk is not None:  # served_writes' layers are probed, not walked
            sampled = _sampled(script)
            for op_id, op in sampled:
                with tracer.span(f"replay.{op['cls']}", op=f"{name}/{op_id}"):
                    walk(layers, target, op["cls"], op["q"])
            for cls in gen.CLASSES[name]:  # again, until the medians mean something
                op = next((op for _id, op in sampled if op["cls"] == cls), None)
                if op is not None:
                    layers.repeat(walk, layers, target, cls, op["q"],
                                  slow=cls not in _FAST_CLASSES)
        _PROBES[name](layers, program, local, workdir)

        durable = workload.wal_table is not None
        end = program.finish(reopens=REOPENS)
        if durable:
            values[f"e2e.{name}.reopen_s"] = median(end["reopen_s"])
        if name == "served_writes":  # the two halves of its reopen
            load = layers.entry("repro.storage.wal", "WriteAheadLog.load")
            recover = layers.entry("repro.storage.engine", "StorageEngine.recover")
            for _ in range(3):
                layers.speeds.append(gauge.sample())
                wal = layers.timed("storage.wal.load_s", load, program.wal_path)
                layers.timed("storage.engine.recover_s", recover, wal)
        return ((2 + PLAIN_PASSES) * len(spanned.ops) + bool(durable),
                failed + end["failed"])
    finally:
        program.teardown()
        if local is not None:
            local.close()


# -- probes that need one workload's live program -----------------------------------


def _probe_embedded_batch(layers: Layers, program: Program, local: Any,
                          workdir: str) -> None:
    """The ``filter`` class over a 4-way hash-partitioned copy of
    ``orders``, default settings; compare with exec.run.filter_ms."""
    db, workload = program.db, program.workload
    db.create_table("orders_p4", workload.tables["orders"], key_name="oid",
                    partition_by=4)
    q = {"from": "orders_p4", "where": [["amount", ">", 97_000]]}
    expr = build_fql(db, q)
    materialize(expr)
    layers.repeat(layers.timed, "partition.filter_ms", materialize, expr, slow=True)


def _probe_offload(layers: Layers, program: Program, local: Any, workdir: str) -> None:
    """Mirror resync after a one-row commit, on its own."""
    db = program.db
    mirror = layers.call("repro.compile.mirror", "mirror_for", db.engine)
    sync = layers.entry("repro.compile.mirror", "EngineMirror.ensure_synced")
    key, row = next(iter(program.workload.model["events"].items()))
    if mirror is None:
        return
    for _ in range(3):
        layers.speeds.append(gauge.sample())
        db("events")[key] = row  # the row it has: the model stays true
        with mirror.lock:
            layers.timed("compile.mirror.sync_ms", sync, mirror, "events",
                         db.manager.now())


def _probe_served_reads(layers: Layers, program: Program, local: LocalServer,
                        workdir: str) -> None:
    """The wire floor on one idle connection, then the session's SQL
    mirror and DML path in process."""
    client = program.client
    point = next(op for op in program.workload.warm if op["cls"] == "point")
    text, params = fql_text(point["q"])
    layers.repeat(layers.timed, "client.roundtrip_ping_us", client.ping)
    layers.repeat(layers.timed, "client.roundtrip_point_us", client.fql, text, params)
    handle = getattr(local.session, "handle", None)
    sql = next(op for op in program.workload.warm if op["cls"] == "sql")
    select = dict(zip(("sql", "params"), sql_text(sql["q"])), verb="sql")
    key, row = next(iter(program.workload.tables["customers"].items()))
    dml = {"verb": "dml", "op": "set", "table": "customers", "key": key,
           "attr": "tier", "value": row["tier"]}

    def after_write() -> None:
        layers.timed("server.session.handle_dml_us", handle, dict(dml))
        layers.timed("server.session.sql_after_write_ms", handle, dict(select))

    layers.repeat(after_write, slow=True)


def _probe_served_writes(layers: Layers, program: Program, local: LocalServer,
                         workdir: str) -> None:
    """WAL encode / append on a scratch file, a one-row commit with
    and without the WAL, and one view sync per commit — in process."""
    workload = program.workload
    key, row = next(iter(workload.tables["orders"].items()))
    record = layers.call("repro.storage.wal", "WALRecord", 1, [("orders", key, row)])
    log = layers.call("repro.storage.wal", "WriteAheadLog", f"{workdir}/scratch.wal")
    encode = layers.entry("repro.storage.wal", "WALRecord.to_json")
    append = layers.entry("repro.storage.wal", "WriteAheadLog.append")

    def wal() -> None:
        layers.timed("storage.wal.encode_us", encode, record)
        layers.timed("storage.wal.append_us", append, log, record)

    layers.repeat(wal)
    if log is not None:
        log.close()
    for metric, wal_path in (("txn.commit_us", None),
                             ("txn.commit_durable_us", f"{workdir}/commit.wal")):
        db = repro.connect(metric, wal_path=wal_path, default=False)
        db.create_table("orders", workload.tables["orders"], key_name="oid")
        view = db.create_maintained_view("per_status", fql.group_and_aggregate(
            by=["status"], n=fql.Count(), total=fql.Sum("amount"),
            input=db("orders")))
        orders = db("orders")

        def commit() -> None:
            orders[key] = row

        def commit_and_sync() -> None:
            layers.timed(metric, commit)
            if wal_path is None:
                layers.timed("ivm.sync_us", view.sync)

        layers.repeat(commit_and_sync)
        db.close()


_WALKS = {
    "embedded_batch": Layers.embedded,
    "embedded_offload_rw": Layers.offloaded,
    "served_reads": Layers.served,
}
_PROBES = {
    "embedded_batch": _probe_embedded_batch,
    "embedded_offload_rw": _probe_offload,
    "served_reads": _probe_served_reads,
    "served_writes": _probe_served_writes,
}


def traced(seed: int, scale: str, make_workdir: Callable[[], str],
           out: str | None) -> dict[str, Any]:
    """The whole traced run; *out* receives the Chrome trace."""
    tracer = Tracer()
    layers = Layers(tracer, gen.SCALES[scale]["probe_reps"])
    values: dict[str, Any] = {}
    overhead: list[float] = []
    attempted = failed = 0
    workdir = make_workdir()
    try:
        for name in gen.WORKLOADS:
            a, f = _trace_workload(name, seed, scale, workdir, layers, values, overhead)
            attempted, failed = attempted + a, failed + f
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values["trace.overhead_ratio"] = max(overhead)
    for name in _TIMED:
        samples = [
            s.self_time / s.units
            / gauge.slowdown_during(layers.speeds, s.start, s.end - s.start)
            for s in tracer.spans if s.name == name
        ]
        if samples and name not in values:
            values[name] = median(samples) * _SCALE[_time_unit(name)]
    for error in dict.fromkeys(layers.errors):  # each once, however often hit
        print(f"probe skipped: {error}", file=sys.stderr)
    if out:
        with open(out, "w") as f:
            json.dump(tracer.chrome(), f)
    return {"attempted": attempted, "failed": failed,
            "metrics": {name: values.get(name) for name in PER_LAYER}}
