"""Seeded inputs and independent reference answers.

Everything here is plain Python over the raw generated rows: this
module imports nothing from ``repro``, so an answer the program gets
wrong cannot be wrong here in the same way. A workload's inputs are

* its tables, ``{table: {key: row}}``;
* one op script per pass. An op is a JSON-able dict: ``{"cls":
  class, "q": query}`` for a read, ``{"cls": class, "w": [write,
  ...]}`` for a write, plus ``"expect": [rows, checksum]`` computed
  from the model as the generator walks the script.

A query ``q`` is a small declarative spec (``from`` / ``where`` /
``group`` / ``top`` / ``join`` / ``select`` / ``key``) that
:func:`evaluate` answers from raw rows and ``workloads.py`` translates
to FQL or SQL for the program. Every pass of a workload has the same
mix of ops; only what must differ does (insert keys, written values,
and the ``filter`` literals that are meant to miss the plan cache).
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Iterable

# -- sizes ------------------------------------------------------------------------

#: ``full`` is what BENCHMARK.json measures. ``smoke`` is the same
#: code path at toy sizes for ``test_harness.py``; below the offload
#: gate, so its answers come from the batched executor.
SCALES: dict[str, dict[str, int]] = {
    "full": dict(
        eb_orders=30_000, eb_customers=2_000, eb_per_class=4,
        or_events=120_000, or_steady=20,
        sr_customers=1_000, sr_orders=4_000, sr_requests=80,
        sw_orders=20_000, sw_requests=800, probe_reps=30,
    ),
    "smoke": dict(
        eb_orders=600, eb_customers=100, eb_per_class=2,
        or_events=900, or_steady=10,
        sr_customers=200, sr_orders=400, sr_requests=20,
        sw_orders=400, sw_requests=50, probe_reps=3,
    ),
}

#: Per workload: class → (kind, share of a pass's ops in percent),
#: listed cheapest first as measured on the first run (README.md;
#: classes of equal share and about equal cost in either order), so
#: cumulative shares within a kind are the class boundaries a reported
#: percentile must stay clear of. ``kind`` says which latency metric
#: pools the class.
CLASSES: dict[str, dict[str, tuple[str, float]]] = {
    "embedded_batch": {
        "filter": ("read", 20), "filter_group": ("read", 20),
        "topk": ("read", 20), "group": ("read", 20), "join": ("read", 20),
    },
    "embedded_offload_rw": {
        "write": ("write", 100 / 22),
        "steady_read": ("read", 2000 / 22),
        "fresh_read": ("fresh", 100 / 22),
    },
    "served_reads": {
        "point": ("read", 30), "filter20": ("read", 30),
        "sql": ("read", 10), "filter_orders": ("read", 10),
        "dump": ("read", 10), "group": ("read", 10),
    },
    "served_writes": {
        "point": ("read", 18), "view": ("read", 2),
        "set_attr": ("write", 20), "insert": ("write", 30),
        "update": ("write", 20), "txn3": ("write", 10),
    },
}

WORKLOADS = tuple(CLASSES)

REGIONS = ["north", "south", "east", "west", "centre", "coast", "hills", "lakes"]
STATUSES = ["new", "paid", "shipped", "returned"]
STATES = ["NY", "CA", "TX", "WA", "OR", "MA", "IL", "GA"]

#: The ``filter`` class draws its threshold from this many distinct
#: literals, one fresh literal per op, so its plans never come from
#: the 256-entry plan cache.
FILTER_LITERALS = 600


def _rng(seed: int, *salt: Any) -> random.Random:
    # str seeds hash through sha512: stable across runs and platforms
    return random.Random(":".join(map(str, (seed, *salt))))


# -- tables -----------------------------------------------------------------------


def customers(seed: int, n: int) -> dict[int, dict[str, Any]]:
    """``bucket`` partitions the keys into groups of exactly 20."""
    rng = _rng(seed, "customers")
    return {
        cid: {
            "name": f"c{cid}",
            "age": 18 + rng.randrange(60),
            "region": REGIONS[rng.randrange(len(REGIONS))],
            "tier": rng.randrange(5),
            "bucket": cid % max(1, n // 20),
        }
        for cid in range(1, n + 1)
    }


def orders(seed: int, n: int, n_customers: int) -> dict[int, dict[str, Any]]:
    """All numbers are ints, so sums are exact in any fold order;
    ``score`` is a permutation (no ties under order-by), ``slot``
    partitions the keys into groups of exactly 20."""
    rng = _rng(seed, "orders")
    scores = list(range(1, n + 1))
    rng.shuffle(scores)
    return {oid: _order_row(rng, oid, n_customers, scores[oid - 1], n)
            for oid in range(1, n + 1)}


def _order_row(rng: random.Random, oid: int, n_customers: int,
               score: int, n: int) -> dict[str, Any]:
    return {
        "cid": 1 + rng.randrange(n_customers),
        "amount": rng.randrange(100_000),
        "qty": 1 + rng.randrange(9),
        "status": STATUSES[rng.randrange(len(STATUSES))],
        "day": rng.randrange(365),
        "score": score,
        "slot": oid % max(1, n // 20),
    }


def events(seed: int, n: int) -> dict[int, dict[str, Any]]:
    rng = _rng(seed, "events")
    return {eid: _event_row(rng, eid) for eid in range(1, n + 1)}


def _event_row(rng: random.Random, eid: int) -> dict[str, Any]:
    return {
        "name": f"e{eid}",
        "age": 18 + rng.randrange(60),
        "state": STATES[rng.randrange(len(STATES))],
        "amount": rng.randrange(100_000),
        "qty": 1 + rng.randrange(9),
    }


# -- reference evaluation ---------------------------------------------------------

_FOLD = {
    "count": len,
    "sum": sum,
    "max": max,
    "min": min,
}


def _matching(rows: dict, where: list | None) -> list[tuple[Any, dict]]:
    if not where:
        return list(rows.items())
    # the conjunction as one Python lambda: the scripts are our own,
    # and a 120 000-row reference scan per read has to stay cheap
    test = eval("lambda row: " + " and ".join(
        f"row[{attr!r}] {op} {value!r}" for attr, op, value in where))
    return [(key, row) for key, row in rows.items() if test(row)]


def evaluate(tables: dict[str, dict], q: dict) -> list[tuple[Any, dict]]:
    """The answer to query *q* as ``(key, row)`` pairs, in result order
    for ``top`` queries (no other class promises an order)."""
    rows = tables[q["from"]]
    if "key" in q:
        return [(q["key"], rows[q["key"]])]
    matched = _matching(rows, q.get("where"))
    if "join" in q:
        j = q["join"]
        right = dict(_matching(tables[j["from"]], j.get("where")))
        joined = []
        for key, row in matched:
            partner = right.get(row[j["on"]])
            if partner is not None:
                both = {**row, **partner}
                joined.append(((key, row[j["on"]]), {a: both[a] for a in j["pick"]}))
        return joined
    if "group" in q:
        by, aggs = q["group"]["by"], q["group"]["aggs"]
        groups: dict[Any, list[dict]] = {}
        for _key, row in matched:
            groups.setdefault(row[by], []).append(row)
        return [
            (value, {by: value, **{
                out: _FOLD[fold]([m[attr] for m in members] if attr else members)
                for out, (fold, attr) in aggs.items()
            }})
            for value, members in groups.items()
        ]
    if "top" in q:
        ranked = sorted(matched, key=lambda kr: kr[1][q["top"]["by"]],
                        reverse=True)
        return ranked[: q["top"]["n"]]
    if "select" in q:
        return [(key, {a: row[a] for a in q["select"]}) for key, row in matched]
    return matched


def apply_write(rows: dict, write: list) -> None:
    """Apply one ``[op, key, ...]`` write to a model table."""
    op, key = write[0], write[1]
    if op in ("insert", "update"):
        rows[key] = dict(write[2])
    elif op == "set":
        rows[key] = {**rows[key], write[2]: write[3]}
    else:
        raise ValueError(f"unknown write {op!r}")


# -- answer digests ---------------------------------------------------------------


def _canon(value: Any) -> Any:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        as_float = float(value)
        return int(as_float) if as_float.is_integer() else round(as_float, 6)
    if isinstance(value, dict):
        return tuple(sorted((str(k), _canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    return repr(value)


def digest(pairs: Iterable[tuple[Any, Any]], ordered: bool = False) -> list[int]:
    """``[rows, checksum]`` of an answer given as ``(key, row)`` pairs;
    order-sensitive only when *ordered*."""
    count = acc = 0
    for key, row in pairs:
        count += 1
        h = zlib.crc32(repr((_canon(key), _canon(row))).encode())
        acc = (acc * 1_000_003 + h if ordered else acc + h) & 0xFFFFFFFF
    return [count, acc]


def expect(tables: dict[str, dict], q: dict) -> list[int]:
    return digest(evaluate(tables, q), ordered="top" in q)


# -- workload generators ----------------------------------------------------------


class Workload:
    """Tables plus per-pass op scripts for one workload and seed.

    ``script(p)`` must be called for p = 0, 1, 2, … in order: writing
    workloads advance :attr:`model` as they generate, so each read's
    expectation reflects every write scripted before it.
    """

    name: str = ""
    #: the table whose writes a WAL must keep, where the WAL is on
    wal_table: str | None = None

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.scale = scale
        self.size = SCALES[scale]
        self.tables = self._tables()
        #: the reference state: starts as the tables, follows the writes
        self.model = {t: dict(rows) for t, rows in self.tables.items()}
        #: every key a scripted write touched, per table
        self.written: dict[str, set] = {t: set() for t in self.tables}
        self._next_pass = 0
        self._answers: dict[str, list[int]] = {}
        #: set-up ops, one of each class (first plans, first mirror
        #: sync); their writes are part of the model
        self.warm = self._warm()

    def _tables(self) -> dict[str, dict]:
        raise NotImplementedError

    def script(self, p: int) -> list[dict]:
        """Pass *p*'s ops."""
        if p != self._next_pass:
            raise ValueError(f"passes generate in order; expected {self._next_pass}")
        self._next_pass += 1
        return self._script(p)

    def _script(self, p: int) -> list[dict]:
        raise NotImplementedError

    def _warm(self) -> list[dict]:
        raise NotImplementedError

    def _read(self, cls: str, q: dict) -> dict:
        # pooled literals recur every pass; a write forgets all answers
        memo = repr(q)
        if memo not in self._answers:
            self._answers[memo] = expect(self.model, q)
        return {"cls": cls, "q": q, "expect": self._answers[memo]}

    def _write(self, cls: str, table: str, writes: list[list]) -> dict:
        for write in writes:
            apply_write(self.model[table], write)
            self.written[table].add(write[1])
        self._answers.clear()
        return {"cls": cls, "w": writes}


def _class_order(seed: int, salt: Any, counts: dict[str, int]) -> list[str]:
    """A seeded interleaving of the classes."""
    order = [cls for cls, n in counts.items() for _ in range(n)]
    _rng(seed, salt, "order").shuffle(order)
    return order


class EmbeddedBatch(Workload):
    """Analytic reads over ``orders`` ⋈ ``customers``, below the
    offload gate: the batched executor does the work."""

    name = "embedded_batch"

    def _tables(self) -> dict[str, dict]:
        s = self.size
        return {
            "customers": customers(self.seed, s["eb_customers"]),
            "orders": orders(self.seed, s["eb_orders"], s["eb_customers"]),
        }

    def _warm(self) -> list[dict]:
        first = {"from": "orders", "where": [["amount", ">", 99_995]]}
        return [self._read(cls, first if cls == "filter" else self._pooled(cls, 0))
                for cls in CLASSES[self.name]]

    def _script(self, p: int) -> list[dict]:
        per = self.size["eb_per_class"]
        # a new interleaving every pass: the harness collects garbage
        # before each pass, so the collector's pauses (~20 ms, on every
        # second or third op here) would otherwise fall on the same ops
        # in every pass of a run, and on others under the next seed
        order = _class_order(self.seed, f"{self.name}/{p}",
                             {cls: per for cls in CLASSES[self.name]})
        # one fresh filter literal per stratum and pass: every pass
        # spans the same selectivities (0.01 % … 6 %) with literals
        # no earlier op used
        width = FILTER_LITERALS // per
        fresh = _rng(self.seed, self.name, "literals")
        picks = [fresh.sample(range(width), width) for _ in range(per)]
        slot = dict.fromkeys(CLASSES[self.name], 0)
        ops = []
        for cls in order:
            i = slot[cls]
            slot[cls] += 1
            if cls == "filter":
                literal = i * width + picks[i][p % width]
                q = {"from": "orders",
                     "where": [["amount", ">", 94_000 + 10 * literal]]}
            else:
                q = self._pooled(cls, i % 8)
            ops.append(self._read(cls, q))
        return ops

    @staticmethod
    def _pooled(cls: str, i: int) -> dict:
        """Variant *i* of the class's 8-literal pool (fits the cache)."""
        if cls == "group":
            by, attr, fold = (("status", "qty")[i % 2], ("amount", "day")[i // 2 % 2],
                              ("max", "min")[i // 4])
            return {"from": "orders", "group": {"by": by, "aggs": {
                "n": ["count", None], "total": ["sum", attr], "edge": [fold, attr]}}}
        if cls == "filter_group":
            return {"from": "orders", "where": [["qty", ">=", 2 + i]],
                    "group": {"by": "status", "aggs": {
                        "n": ["count", None], "total": ["sum", "amount"]}}}
        if cls == "topk":
            return {"from": "orders", "where": [["day", "<", 12 * (i + 1)]],
                    "top": {"by": "score", "n": 50}}
        if cls == "join":
            return {"from": "orders", "where": [["amount", ">", 90_000 + 1_000 * i]],
                    "join": {"from": "customers", "where": [["tier", "==", i % 5]],
                             "on": "cid", "pick": ["amount", "qty", "name", "tier"]}}
        raise ValueError(cls)


class EmbeddedOffloadRW(Workload):
    """Cycles of one durable one-row write after a run of analytic
    reads over ``events``, above the offload gate: the first read after
    a commit pays the mirror resync, the rest run on the fresh mirror."""

    name = "embedded_offload_rw"
    wal_table = "events"

    def _tables(self) -> dict[str, dict]:
        return {"events": events(self.seed, self.size["or_events"])}

    def _warm(self) -> list[dict]:
        # all three plan shapes (the first pays the first mirror sync),
        # then a write, so pass 0 opens with a fresh read like the rest
        return [*(self._read("steady_read", self._query(kind, 0))
                  for kind in range(3)),
                self._one_row_write(_rng(self.seed, self.name, "warm"), insert=False)]

    def _script(self, p: int) -> list[dict]:
        steady = self.size["or_steady"]
        rng = _rng(self.seed, self.name, p)
        ops = []
        for i in range(steady + 1):  # reads rotate through kinds and literals
            ops.append(self._read("fresh_read" if i == 0 else "steady_read",
                                  self._query(i % 3, i // 3 % 8)))
        ops.append(self._one_row_write(rng, insert=p % 2 == 0))
        return ops

    def _one_row_write(self, rng: random.Random, insert: bool) -> dict:
        key = (len(self.model["events"]) + 1 if insert
               else 1 + rng.randrange(len(self.tables["events"])))
        # the embedded costume is an upsert: db.events[key] = row
        return self._write("write", "events", [["update", key, _event_row(rng, key)]])

    @staticmethod
    def _query(kind: int, i: int) -> dict:
        count = {"n": ["count", None], "total": ["sum", "amount"]}
        if kind == 0:
            return {"from": "events", "group": {"by": "state", "aggs": count}}
        if kind == 1:
            return {"from": "events",
                    "where": [["amount", ">", 99_000 + 50 * i], ["age", ">", 40]]}
        return {"from": "events", "where": [["qty", ">=", 7]],
                "group": {"by": "age", "aggs": count}}


def _share_counts(name: str, requests: int) -> dict[str, int]:
    return {cls: round(requests * share / 100)
            for cls, (_kind, share) in CLASSES[name].items()}


class ServedReads(Workload):
    """A small database behind the server: parse, session, encode and
    wire are a large share of every request."""

    name = "served_reads"

    def _tables(self) -> dict[str, dict]:
        s = self.size
        return {
            "customers": customers(self.seed, s["sr_customers"]),
            "orders": orders(self.seed, s["sr_orders"], s["sr_customers"]),
        }

    def _warm(self) -> list[dict]:
        return self._requests(dict.fromkeys(CLASSES[self.name], 1))

    def _script(self, p: int) -> list[dict]:
        # read-only: every pass is the same requests, expectations included
        if p == 0:
            self._ops = self._requests(
                _share_counts(self.name, self.size["sr_requests"]))
        return self._ops

    def _requests(self, counts: dict[str, int]) -> list[dict]:
        s = self.size
        rng = _rng(self.seed, self.name, sum(counts.values()))
        buckets, slots = s["sr_customers"] // 20, s["sr_orders"] // 20
        ops = []
        for cls in _class_order(self.seed, self.name, counts):
            if cls == "point":
                q = {"from": "customers", "key": 1 + rng.randrange(s["sr_customers"])}
            elif cls == "filter20":
                q = {"from": "customers",
                     "where": [["bucket", "==", rng.randrange(buckets)]]}
            elif cls == "filter_orders":
                q = {"from": "orders", "where": [["slot", "==", rng.randrange(slots)]]}
            elif cls == "sql":
                q = {"from": "customers", "select": ["name", "age"],
                     "where": [["bucket", "==", rng.randrange(buckets)]]}
            elif cls == "dump":
                q = {"from": "customers"}
            else:
                q = {"from": "customers", "group": {"by": "region", "aggs": {
                    "n": ["count", None], "total": ["sum", "age"]}}}
            ops.append(self._read(cls, q))
        return ops


class ServedWrites(Workload):
    """One committer behind the server with the WAL on. ``per_status``
    is a lazy maintained view over ``orders``.

    A pass is a number of *rounds*: a chunk of writes and
    read-your-write points, then one read of the view, which pays the
    sync of the chunk's commits. Every view read is checked exactly,
    like any other read."""

    name = "served_writes"
    wal_table = "orders"
    VIEW = {"from": "orders", "group": {"by": "status", "aggs": {
        "n": ["count", None], "total": ["sum", "amount"]}}}

    def __init__(self, seed: int, scale: str = "full"):
        #: keys 1 … _rows exist; _last_written is the key written last
        self._rows = SCALES[scale]["sw_orders"]
        self._last_written = 1
        super().__init__(seed, scale)

    def _tables(self) -> dict[str, dict]:
        return {"orders": orders(self.seed, self.size["sw_orders"], 2_000)}

    def view_rows(self) -> list[tuple[Any, dict]]:
        return evaluate(self.model, self.VIEW)

    def _warm(self) -> list[dict]:
        return self._pass("warm", dict.fromkeys(CLASSES[self.name], 1))

    def _script(self, p: int) -> list[dict]:
        return self._pass(p, _share_counts(self.name, self.size["sw_requests"]))

    def _pass(self, p: Any, counts: dict[str, int]) -> list[dict]:
        counts = dict(counts)
        rounds = counts.pop("view")  # one view read a round
        rng = _rng(self.seed, self.name, p)
        order = _class_order(self.seed, f"{self.name}/{p}", counts)
        ops: list[dict] = []
        for r in range(rounds):
            chunk = order[r * len(order) // rounds:(r + 1) * len(order) // rounds]
            ops.extend(self._op(rng, cls) for cls in chunk)
            ops.append({"cls": "view", "q": {"from": "per_status"},
                        "expect": digest(self.view_rows())})
        return ops

    def _op(self, rng: random.Random, cls: str) -> dict:
        n = self.size["sw_orders"]

        def insert() -> list:
            self._rows += 1
            return ["insert", self._rows, _order_row(rng, self._rows, 2_000,
                                                     self._rows, n)]

        def update() -> list:
            key = 1 + rng.randrange(self._rows)
            return ["update", key, _order_row(rng, key, 2_000, key, n)]

        def set_attr() -> list:
            key = 1 + rng.randrange(self._rows)
            if rng.randrange(2):
                return ["set", key, "status", STATUSES[rng.randrange(4)]]
            return ["set", key, "amount", rng.randrange(100_000)]

        if cls == "point":  # read your own latest write
            return self._read(cls, {"from": "orders", "key": self._last_written})
        writes = ([insert(), update(), set_attr()] if cls == "txn3"
                  else [{"insert": insert, "update": update,
                         "set_attr": set_attr}[cls]()])
        self._last_written = writes[-1][1]
        return self._write(cls, "orders", writes)


GENERATORS = {g.name: g for g in
              (EmbeddedBatch, EmbeddedOffloadRW, ServedReads, ServedWrites)}
