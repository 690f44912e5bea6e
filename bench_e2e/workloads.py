"""The program side of the four workloads.

Everything here goes through the stable user surface only —
``repro.connect``, FQL operators, ``repro.fdm.databases.database``,
``repro.server.serve`` (in ``server_child.py``) and
``repro.client.connect`` — because later changes to the program may
not edit this directory. The generated inputs come from ``gen.py``;
nothing here knows an answer.

All four are closed loops of one caller: an embedded caller and the
synchronous client library both wait for the reply before sending the
next op. The served workloads drive the server child from one
connection, so client and server take turns and the benchmark never
asks for more than one of this box's two cores at a time.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import time
from typing import Any, NamedTuple

import repro
import repro.client
from repro import fql
from repro.fdm.databases import database

from bench_e2e import gauge, gen
from bench_e2e.trace import Tracer

KEY_NAMES = {"customers": "cid", "orders": "oid", "events": "eid"}

_AGGREGATES = {
    "count": lambda attr: fql.Count(),
    "sum": fql.Sum,
    "max": fql.Max,
    "min": fql.Min,
}


# -- query spec → FQL / SQL -------------------------------------------------------


def _predicate(where: list) -> tuple[str, dict[str, Any]]:
    text = " and ".join(f"{attr} {op} $p{i}" for i, (attr, op, _v) in enumerate(where))
    return text, {f"p{i}": value for i, (_a, _o, value) in enumerate(where)}


def build_fql(db: Any, q: dict) -> Any:
    """The FQL expression graph for query spec *q* over database *db*."""
    if "key" in q:
        return db(q["from"])(q["key"])
    source = db(q["from"])
    if q.get("where"):
        source = fql.filter(source, *_predicate(q["where"]))
    if "join" in q:
        j = q["join"]
        right = db(j["from"])
        if j.get("where"):
            right = fql.filter(right, *_predicate(j["where"]))
        sub = database({q["from"]: source, j["from"]: right})
        return fql.join(sub, on=[[f"{q['from']}.{j['on']}",
                                  f"{j['from']}.{KEY_NAMES[j['from']]}"]])
    if "group" in q:
        g = q["group"]
        aggs = {out: _AGGREGATES[fold](attr) for out, (fold, attr) in g["aggs"].items()}
        return fql.group_and_aggregate(by=[g["by"]], input=source, **aggs)
    if "top" in q:
        return fql.limit(fql.order_by(source, q["top"]["by"], reverse=True),
                         q["top"]["n"])
    return source


def fql_text(q: dict) -> tuple[str, dict[str, Any]]:
    """Query spec *q* as FQL expression text plus its parameters."""
    source = f"db({q['from']!r})"
    if "key" in q:
        return f"{source}(params['k'])", {"k": q["key"]}
    params: dict[str, Any] = {}
    if q.get("where"):
        text, params = _predicate(q["where"])
        source = f"filter({source}, {text!r}, params)"
    if "group" in q:
        g = q["group"]
        aggs = ", ".join(
            f"{out}={fold.capitalize()}({'' if attr is None else repr(attr)})"
            for out, (fold, attr) in g["aggs"].items())
        source = f"group_and_aggregate(by=[{g['by']!r}], {aggs}, input={source})"
    return source, params


def sql_text(q: dict) -> tuple[str, list[Any]]:
    columns = ", ".join([KEY_NAMES[q["from"]], *q["select"]])
    where = " AND ".join(f"{attr} {'=' if op == '==' else op} ?"
                         for attr, op, _v in q["where"])
    return (f"SELECT {columns} FROM {q['from']} WHERE {where}",
            [value for _a, _o, value in q["where"]])


def materialize(result: Any) -> list[tuple[Any, dict]]:
    """Read an embedded result the way a caller would: every row,
    every attribute."""
    return [(key, dict(row.items())) for key, row in result.items()]


def pairs(q: dict, answer: Any) -> list[tuple[Any, Any]]:
    """Normalise a program answer to the reference's (key, row) pairs."""
    if "key" in q:
        return [(q["key"], answer)]
    if "select" in q:
        return [(row[0], dict(zip(q["select"], row[1:]))) for row in answer["rows"]]
    items = answer.items() if isinstance(answer, dict) else answer
    if "join" in q:
        pick = q["join"]["pick"]
        return [(key, {a: row[a] for a in pick}) for key, row in items]
    return list(items)


def check(op: dict, answer: Any) -> bool:
    """Whether *answer* (``None`` for an acknowledged write, an
    exception for a failed op) is what the generator expects, to the
    row; a mismatch is described on stderr."""
    if "w" in op and answer is None:
        return True  # acknowledged; the reads that follow see it or fail
    if not isinstance(answer, BaseException):
        answer = gen.digest(pairs(op["q"], answer), ordered="top" in op["q"])
        if answer == op["expect"]:
            return True
    print(f"FAILED {json.dumps(op)[:300]} -> {answer!r}", file=sys.stderr)
    return False


# -- the pass loop ----------------------------------------------------------------


#: the least time between two gauge samples within a pass: an op of
#: tens of ms has a sample on either side, a run of 1 ms ops one per
#: twenty, so the gauge (2.5 ms) never takes more than a ninth of a pass
_GAUGE_EVERY_S = 0.02


class Timed(NamedTuple):
    """One op as the closed loop saw it."""

    cls: str
    seconds: float  #: calibrated (``gauge.py``)
    raw: float  #: as the clock read it
    ok: bool


class Pass:
    """What one pass measured: its wall time — calibrated and without
    the wait for the disk, and raw, as the clock read it — every op in
    script order, and the seconds of the raw wall spent in ``os.fsync``
    (where the harness can see them)."""

    def __init__(self, wall: float, raw_wall: float, ops: list[Timed],
                 synced: float):
        self.wall = wall
        self.raw_wall = raw_wall
        self.ops = ops
        self.synced = synced

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)


class Program:
    """One workload's program under test, driven through its public
    surface. Subclasses say how to open it, run one op, and tear it
    down; the closed loop, timing, calibration and checking are shared."""

    #: set where the workload has the WAL on (the program's own flush
    #: policy: an fsync per commit); each set-up gets a file of its own
    wal_path: str | None = None

    def __init__(self, workload: gen.Workload, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self._setups = 0

    # subclass surface
    def _open(self) -> float:
        """Open the database (and server); returns the seconds spent."""
        raise NotImplementedError

    def execute(self, op: dict) -> Any:
        raise NotImplementedError

    def synced(self) -> float:
        """Seconds the program's process has spent inside ``os.fsync``
        so far, where the harness can see it (the server child)."""
        return 0.0

    def teardown(self, crash: bool = False) -> None:
        """Stop the program; *crash* stops it the hardest way there is."""
        raise NotImplementedError

    def finish(self, reopens: int) -> dict[str, Any]:
        """Crash the program; where the WAL is on, reopen it *reopens*
        times (calibrated seconds) and, the first time, check
        durability: every acknowledged write is there and equal to the
        model (as is a 1-in-N sample of the loaded rows), and the row
        count says nothing else is."""
        self.teardown(crash=True)
        table = self.workload.wal_table
        seconds, failed = [], 0
        for i in range(reopens if table else 0):
            speeds = gauge.burst()
            start = time.perf_counter()
            db = repro.connect("reopened", wal_path=self.wal_path, default=False)
            rows = len(db(table))
            seconds.append((time.perf_counter() - start)
                           / gauge.slowdown(speeds + gauge.burst()))
            if i == 0:
                model, relation = self.workload.model[table], db(table)
                loaded = list(self.workload.tables[table])
                keys = [*self.workload.written[table],
                        *loaded[:: max(1, len(loaded) // 256)]]
                lost = [key for key in keys if not relation.defined_at(key)
                        or dict(relation(key).items()) != model[key]]
                if lost or rows != len(model):
                    print(f"FAILED reopen: {rows} rows for {len(model)}; "
                          f"{len(lost)} keys differ, e.g. {lost[:5]}", file=sys.stderr)
                failed = len(lost) + (rows != len(model))
            db.close()
        return {"failed": failed, "reopen_s": seconds}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # shared
    def setup(self) -> tuple[float, float]:
        """One full set-up, in (calibrated, raw) seconds: open, load,
        index/view, serve + connect, and one op of each class (first
        plans, first mirror sync)."""
        self._setups += 1
        if self.workload.wal_table:
            self.wal_path = os.path.join(
                self.workdir, f"{self.workload.name}-{self._setups}.wal")
        speeds = gauge.burst()
        seconds = self._open()
        speeds += gauge.burst()
        warm = self.run_pass(self.workload.warm)
        if warm.failed:
            raise RuntimeError("a set-up op answered wrongly")
        return seconds / gauge.slowdown(speeds) + warm.wall, seconds + warm.raw_wall

    def run_pass(self, script: list[dict], tracer: Tracer | None = None) -> Pass:
        """Run one pass: walk the script, waiting for each reply.
        Answers are checked after the clock stops. With a *tracer*,
        every op runs inside a span.

        The gauge runs between ops, while the program is idle (a
        served program's child too: its one client is here, sampling),
        at most once per ``_GAUGE_EVERY_S``. Each op is calibrated by
        the samples taken around it; the pass is the sum of its ops,
        without the gauge's own time and without the time the program
        spent waiting for the disk inside ``os.fsync`` — on this
        sandbox that wait goes from 0.15 ms to 8 ms and back within an
        afternoon (README.md), and no run of seconds can average it
        out. An op's own latency keeps its fsync: it is what the
        caller waited."""
        log: list[tuple[dict, float, float, Any]] = []
        speeds: list[gauge.Sample] = []
        synced, sampled = self.synced(), float("-inf")
        for i, op in enumerate(script):
            if time.perf_counter() - sampled >= _GAUGE_EVERY_S:
                speeds.append(gauge.sample())
                sampled = speeds[-1][0]
            start = time.perf_counter()
            try:
                if tracer is None:
                    answer = self.execute(op)
                else:
                    with tracer.span(f"op.{op['cls']}",
                                     op=f"{self.workload.name}/{i}"):
                        answer = self.execute(op)
            except Exception as exc:  # a failed op is counted, never fatal
                answer = exc
            log.append((op, start, time.perf_counter() - start, answer))
        speeds.append(gauge.sample())
        synced = self.synced() - synced
        ops = [Timed(op["cls"],
                     seconds / gauge.slowdown_during(speeds, begun, seconds),
                     seconds, check(op, answer))
               for op, begun, seconds, answer in log]
        raw_wall = sum(op.raw for op in ops)
        computing = 1 - synced / raw_wall
        return Pass(sum(op.seconds for op in ops) * computing, raw_wall, ops,
                    synced)


# -- embedded workloads -----------------------------------------------------------


class Embedded(Program):
    """In-process, one thread."""

    db: Any = None

    def _open(self) -> float:
        start = time.perf_counter()
        self.db = repro.connect(self.workload.name, wal_path=self.wal_path,
                                default=False)
        for table, rows in self.workload.tables.items():
            self.db.create_table(table, rows, key_name=KEY_NAMES[table])
        return time.perf_counter() - start

    def execute(self, op: dict) -> Any:
        if "w" in op:
            for _op, key, row in op["w"]:  # single-row upserts
                self.db("events")[key] = row
            return None
        return materialize(build_fql(self.db, op["q"]))

    def teardown(self, crash: bool = False) -> None:
        if self.db is not None:  # in process, closing is all a crash can be
            self.db.close()
            self.db = None


# -- served workloads -------------------------------------------------------------


class Served(Program):
    """A server child process and one client connection."""

    child: subprocess.Popen | None = None
    client: Any = None

    def _open(self) -> float:
        self.child = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(__file__), "server_child.py"),
             self.workload.name, str(self.workload.seed), self.workload.scale,
             self.wal_path or "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError("server child exited before serving")
        ready = json.loads(line)
        start = time.perf_counter()
        self.client = repro.client.connect(port=ready["port"])
        return ready["setup_s"] + time.perf_counter() - start

    def execute(self, op: dict) -> Any:
        client = self.client
        if "w" in op:
            writes = op["w"]
            if len(writes) > 1:
                client.begin()
            for write in writes:
                kind, key = write[0], write[1]
                if kind == "insert":
                    client.insert("orders", key, write[2])
                elif kind == "update":
                    client.update("orders", key, write[2])
                else:
                    client.set_attr("orders", key, write[2], write[3])
            if len(writes) > 1:
                client.commit()
            return None
        q = op["q"]
        if "select" in q:
            return client.sql(*sql_text(q))
        return client.fql(*fql_text(q))

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.child.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for the server child")

    def synced(self) -> float:
        self.child.stdin.write("\n")  # any line asks; EOF stops the child
        self.child.stdin.flush()
        return json.loads(self.child.stdout.readline())["fsync_s"]

    def server_stats(self) -> dict[str, Any]:
        return self.client.stats()

    def teardown(self, crash: bool = False) -> None:
        if self.child is None:
            return
        if self.client is not None:  # the child is stopped even if it never served
            self.client.close()
            self.client = None
        if crash:  # every reply has been received: nothing is in flight
            self.child.send_signal(signal.SIGKILL)
        self.child.stdin.close()  # EOF asks the child to stop
        try:
            self.child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.child.kill()
            self.child.wait()
        self.child.stdout.close()
        self.child = None


PROGRAMS = {
    "embedded_batch": Embedded,
    "embedded_offload_rw": Embedded,
    "served_reads": Served,
    "served_writes": Served,
}
