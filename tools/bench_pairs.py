#!/usr/bin/env python
"""``bench_pairs`` — the repo benchmark, as alternating parent/change pairs.

Extracts a base revision's committed tree into a temporary directory
and runs ``bench_e2e/run.py`` there and in this working tree, one
after the other, on the same seed: one *pair*. Pairs alternate which
side runs first, so a drift of the machine's speed falls on both
sides alike. Per workload and end-to-end metric it prints both
medians, the base's interquartile range, how many pairs the change
won, and whether the change stays within the metric's bound in
``BENCHMARK.json``; for each time metric the same figures uncalibrated,
since the gauge can read the two sides' processes at different speeds.

Usage::

    python tools/bench_pairs.py --base HEAD~1 --pairs 10 --seed 301
    python tools/bench_pairs.py --workload embedded_batch --pairs 3
    python tools/bench_pairs.py --scale smoke --pairs 1 --seconds 1

The base is extracted with ``git archive`` (its committed files only,
as a fresh checkout sees them); the change is this working tree,
uncommitted edits included. The exit code is non-zero when an answer
was wrong on either side; the bound verdicts are printed, not enforced
(a pair or two at smoke scale is noise).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def extract(revision: str, into: str) -> None:
    """*revision*'s committed tree, unpacked under *into*."""
    archive = os.path.join(into, "base.tar")
    subprocess.run(["git", "-C", ROOT, "archive", "-o", archive, revision],
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(os.path.join(into, "tree"), filter="data")
    os.remove(archive)


def run_once(tree: str, workload: str, seed: int, args: argparse.Namespace) -> dict:
    """One untraced run of *workload* in *tree*: its result line."""
    command = [sys.executable, os.path.join(tree, "bench_e2e", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--scale", args.scale,
               "--trace", "0"]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: {workload} printed nothing "
                           f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    # run.py prints each time metric's uncalibrated value beside it
    result["raw"] = {line.split()[0]: float(line.rsplit(" ", 1)[1].rstrip(")"))
                     for line in lines[:-1] if "(uncalibrated " in line}
    return result


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = quantiles(values, n=4)
    return q3 - q1


def compare(workload: str, pairs: list[tuple[dict, dict]],
            metrics: list[dict]) -> bool:
    """Print one workload's table; ``True`` when every answer was right."""
    print(f"\n{workload}: {len(pairs)} pair(s)")
    print(f"  {'metric':14s} {'base':>10s} {'change':>10s} {'ratio':>7s} "
          f"{'base IQR':>9s} {'wins':>6s}  bound")
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        base = [b["metrics"][name]["value"] for b, _c in pairs]
        change = [c["metrics"][name]["value"] for _b, c in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        mid_b, mid_c = median(base), median(change)
        ratio = mid_c / mid_b if mid_b else float("nan")
        worse = (ratio - 1) if lower else (1 - ratio)
        ok = worse <= spec["bound"]
        print(f"  {name:14s} {mid_b:10.4g} {mid_c:10.4g} {ratio:7.3f} "
              f"{iqr(base):9.3g} {wins:3d}/{len(pairs):<2d}  "
              f"{'within' if ok else 'WORSE than'} {spec['bound']}")
        print(f"  {'':14s} per pair: " + " ".join(
            f"{c / b:.3f}" if b else "nan" for b, c in zip(base, change)))
        if all(name in b["raw"] and name in c["raw"] for b, c in pairs):
            base = [b["raw"][name] for b, _c in pairs]
            change = [c["raw"][name] for _b, c in pairs]
            wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
            print(f"  {'':14s} uncalibrated {median(base):.4g} -> "
                  f"{median(change):.4g} ({median(change) / median(base):.3f}, "
                  f"base IQR {iqr(base):.3g}, {wins}/{len(pairs)} wins)")
    failed = [sum(pair[side]["failed"] for pair in pairs) for side in (0, 1)]
    attempted = [sum(pair[side]["attempted"] for pair in pairs) for side in (0, 1)]
    print(f"  failed ops: base {failed[0]} of {attempted[0]}, "
          f"change {failed[1]} of {attempted[1]}")
    return not any(failed)


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="the revision to compare against (default HEAD)")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeat for several (default: every workload)")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=101,
                        help="pair i runs both sides on seed + i")
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    correct = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        extract(args.base, scratch)
        base_tree = os.path.join(scratch, "tree")
        for workload in args.workload or workloads:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                sides = [base_tree, ROOT][:: 1 if i % 2 == 0 else -1]
                got = {tree: run_once(tree, workload, seed, args) for tree in sides}
                pairs.append((got[base_tree], got[ROOT]))
                print(f"{workload} pair {i + 1}/{args.pairs} (seed {seed}) done",
                      file=sys.stderr)
            correct &= compare(workload, pairs, bench["end_to_end"])
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
