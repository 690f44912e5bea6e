"""The server process of the served workloads.

``python server_child.py WORKLOAD SEED SCALE WAL|-`` regenerates the
workload's tables from the seed, loads them, serves on a free loopback
port, prints one JSON line ``{"port": …, "setup_s": …}`` (the seconds
from opening the database to serving, generation excluded) and serves
until its stdin reaches EOF — or until it is killed, which is how
``served_writes`` ends. To every line on its stdin it answers with one
JSON line ``{"fsync_s": …, "fsyncs": …}``: the time this process has
spent inside ``os.fsync`` so far — the wait for the disk, which the
harness keeps out of a pass's wall time — and the number of calls.
"""

from __future__ import annotations

import json
import os
import sys
import time


class TimedFsync:
    """``os.fsync``, timed. The program still syncs, by its own policy."""

    def __init__(self) -> None:
        self.seconds, self.calls, self._fsync = 0.0, 0, os.fsync

    def __call__(self, fd: int) -> None:
        start = time.perf_counter()
        try:
            self._fsync(fd)
        finally:
            self.seconds += time.perf_counter() - start
            self.calls += 1


def main(name: str, seed: str, scale: str, wal: str) -> None:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [root, os.path.join(root, "src")]
    import repro
    import repro.server
    from repro import fql

    from bench_e2e import gen
    from bench_e2e.workloads import KEY_NAMES

    workload = gen.GENERATORS[name](int(seed), scale)
    os.fsync = fsync = TimedFsync()
    start = time.perf_counter()
    db = repro.connect(name, wal_path=None if wal == "-" else wal, default=False)
    for table, rows in workload.tables.items():
        db.create_table(table, rows, key_name=KEY_NAMES[table])
    if name == "served_writes":
        db.create_maintained_view("per_status", fql.group_and_aggregate(
            by=["status"], n=fql.Count(), total=fql.Sum("amount"),
            input=db("orders")))
    with repro.server.serve(db, port=0) as server:
        print(json.dumps({"port": server.port,
                          "setup_s": time.perf_counter() - start}), flush=True)
        for _line in sys.stdin:
            print(json.dumps({"fsync_s": fsync.seconds, "fsyncs": fsync.calls}),
                  flush=True)
    db.close()


if __name__ == "__main__":
    main(*sys.argv[1:5])
