#!/usr/bin/env python
"""``repro_top`` — a live terminal view of a repro cluster.

Polls the HEALTH and TOP verbs across one leader and any number of
followers and renders a compact dashboard: per-member
role/epoch/lag, the admission pipeline, one table of query classes
(calls, latency and cost from the same per-class record) plus the
queries live right now, and the newest lifecycle events. Stdlib
only — it runs wherever the client library runs.

Usage::

    python tools/repro_top.py --leader 127.0.0.1:7654 \
        --replica 127.0.0.1:7655 --interval 2

    python tools/repro_top.py --leader 127.0.0.1:7654 --once

``--once`` renders a single frame and exits (no screen clearing) —
that is also what the smoke test drives.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any


def _parse_member(spec: str) -> tuple[str, int]:
    """Split ``host:port`` (bare ``:port`` means localhost)."""
    host, _, port = spec.rpartition(":")
    return (host or "127.0.0.1"), int(port)


def _fmt_ms(ms: float) -> str:
    """Milliseconds with sub-ms precision only where it matters."""
    return f"{ms:7.2f}ms" if ms < 1000 else f"{ms / 1000:6.2f}s "


def _fmt_age(seconds: float) -> str:
    if seconds < 1:
        return f"{seconds * 1000:.0f}ms"
    if seconds < 120:
        return f"{seconds:.1f}s"
    return f"{seconds / 60:.1f}m"


def poll_member(host: str, port: int, top: int) -> dict[str, Any]:
    """One member's HEALTH + TOP answers (plus error capture).

    A member that refuses the connection still produces a row — an
    operator watching a failover needs to see the dead node, not a
    stack trace.
    """
    from repro.client import RemoteDatabase

    row: dict[str, Any] = {"addr": f"{host}:{port}"}
    try:
        client = RemoteDatabase(host, port)
    except Exception as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    try:
        row["health"] = client.health()
        row["resources"] = client.top(limit=top)
    except Exception as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        try:
            client.close()
        except Exception:
            pass
    return row


def render_member(row: dict[str, Any]) -> list[str]:
    """The per-member lines: role, epoch, clock, lag, admission."""
    lines: list[str] = []
    if "error" in row:
        lines.append(f"  {row['addr']:<22} DOWN  {row['error']}")
        return lines
    health = row["health"]
    repl = health.get("replication", {})
    fenced = " FENCED" if health.get("fenced") else ""
    lag = ""
    if "lag_commits" in repl:
        lag = (
            f"lag {repl['lag_commits']} commits /"
            f" {_fmt_age(float(repl.get('lag_seconds', 0.0)))}"
        )
    lines.append(
        f"  {row['addr']:<22} {health['role']:<16} epoch {health['epoch']}"
        f"  clock {health['clock']}  wal {health['wal']['records']} rec"
        f"  {lag}{fenced}"
    )
    server = health.get("server")
    if server:
        lines.append(
            f"  {'':<22} sessions {server['active_sessions']}"
            f"/{server['max_sessions']}"
            f"  queue {server['admission_queue_depth']}"
            f"  shed {server['rejected_busy']}"
            f"  requests {server['requests']}"
        )
    return lines


#: Column keys accepted by ``--sort`` and their class-row fields.
SORT_KEYS = {
    "latency": "total_ms",
    "calls": "calls",
    "rows": "rows_scanned",
    "bytes": "bytes_scanned",
    "result": "result_rows",
    "wal": "wal_bytes",
    "killed": "killed",
}


def _fmt_count(n: float) -> str:
    """Compact counts: 1234 → 1.2k, 5_600_000 → 5.6M."""
    n = float(n)
    for bound, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if n >= bound:
            return f"{n / bound:.1f}{suffix}"
    return f"{int(n)}"


def render_classes(
    rows: list[dict[str, Any]], top: int, sort: str = "rows"
) -> list[str]:
    """The query classes of every polled member, merged by
    fingerprint and ranked by the ``--sort`` column (rows scanned by
    default); live queries are appended so a runaway shows up before
    it finishes."""
    field = SORT_KEYS[sort]
    merged: dict[str, dict[str, Any]] = {}
    active: list[tuple[str, dict[str, Any]]] = []
    killed_total = 0
    for row in rows:
        snap = row.get("resources")
        if not snap:
            continue
        killed_total += snap.get("killed", 0)
        for fp, cls in (snap.get("fingerprints") or {}).items():
            got = merged.get(fp)
            if got is None or cls[field] > got[field]:
                merged[fp] = cls
        for meter in snap.get("active") or []:
            active.append((row["addr"], meter))
    if not merged and not active:
        return ["  (no queries yet)"]
    ranked = sorted(
        merged.values(), key=lambda cls: cls[field], reverse=True
    )[:top]
    lines = [
        "  fingerprint   calls      p50       p95     rows   bytes"
        "  kern/py  killed  chg  shape"
    ]
    for cls in ranked:
        changes = cls["plan_changes"]
        marker = f"{changes}!" if changes else "-"
        shape = cls["shape"].replace("\n", " ")
        if len(shape) > 40:
            shape = shape[:37] + "..."
        kern = f"{_fmt_count(cls['kernel_batches'])}/" \
               f"{_fmt_count(cls['python_batches'])}"
        lines.append(
            f"  {cls['fingerprint']}  {cls['calls']:>5}"
            f"  {_fmt_ms(cls['p50_ms'])} {_fmt_ms(cls['p95_ms'])}"
            f"  {_fmt_count(cls['rows_scanned']):>6}"
            f"  {_fmt_count(cls['bytes_scanned']):>6}"
            f"  {kern:>7}  {cls['killed']:>6}  {marker:>3}  {shape}"
        )
    for addr, meter in active[:top]:
        fp = meter.get("fingerprint") or "(in flight)"
        lines.append(
            f"  {fp:<12}   LIVE  {meter.get('elapsed_ms', 0):>8.0f}ms"
            f"            {_fmt_count(meter['rows_scanned']):>6}"
            f"  {_fmt_count(meter['bytes_scanned']):>6}  on {addr}"
        )
    if killed_total:
        lines.append(f"  ({killed_total} query(ies) killed over budget)")
    return lines


def render_events(rows: list[dict[str, Any]], limit: int = 8) -> list[str]:
    """The newest lifecycle events across every member, newest last."""
    events: list[tuple[float, str, dict[str, Any]]] = []
    for row in rows:
        for event in (row.get("health") or {}).get("events", []):
            events.append((event.get("wall_clock", 0.0), row["addr"], event))
    events.sort(key=lambda item: item[0])
    if not events:
        return ["  (none)"]
    lines = []
    for wall, addr, event in events[-limit:]:
        age = _fmt_age(max(0.0, time.time() - wall))
        detail = " ".join(
            f"{k}={v}"
            for k, v in event.items()
            if k not in ("event", "wall_clock")
        )
        if len(detail) > 60:
            detail = detail[:57] + "..."
        lines.append(
            f"  {age:>6} ago  {addr:<22} {event['event']:<18} {detail}"
        )
    return lines


def render_frame(
    rows: list[dict[str, Any]], top: int, sort: str = "rows"
) -> str:
    """One full dashboard frame as a string."""
    lines = [
        f"repro_top — {time.strftime('%H:%M:%S')} — "
        f"{len(rows)} member(s)",
        "",
        "MEMBERS",
    ]
    for row in rows:
        lines.extend(render_member(row))
    lines.append("")
    lines.append(f"WORKLOAD (by {sort})")
    lines.extend(render_classes(rows, top, sort))
    lines.append("")
    lines.append("EVENTS")
    lines.extend(render_events(rows))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit status."""
    parser = argparse.ArgumentParser(
        description="live terminal view of a repro cluster"
    )
    parser.add_argument(
        "--leader", required=True, metavar="HOST:PORT",
        help="the leader's server address",
    )
    parser.add_argument(
        "--replica", action="append", default=[], metavar="HOST:PORT",
        help="a follower's server address (repeatable)",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes (default 2)",
    )
    parser.add_argument(
        "--top", type=int, default=10,
        help="query classes to show (default 10)",
    )
    parser.add_argument(
        "--sort", choices=sorted(SORT_KEYS), default="rows",
        help="column to rank query classes by (default rows)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (no screen clearing)",
    )
    args = parser.parse_args(argv)

    members = [_parse_member(args.leader)]
    members.extend(_parse_member(spec) for spec in args.replica)

    while True:
        rows = [poll_member(host, port, args.top) for host, port in members]
        frame = render_frame(rows, args.top, args.sort)
        if args.once:
            print(frame)
            return 0
        # ANSI clear + home keeps the frame stable without curses
        sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
        sys.stdout.flush()
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


if __name__ == "__main__":
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))
    sys.exit(main())
