"""Run the repo benchmark.

    python3 bench_e2e/run.py --workload W --seed S --seconds N --trace 0|1

runs one workload in this process and prints every metric by name with
its unit, then, as the last line, one JSON object ``{"correct",
"attempted", "failed", "metrics"}``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer metrics with
``--trace 1``. Without ``--workload`` every workload runs in a child
process of its own (clean heap, own peak RSS); ``--calibrate N`` does
that N times and reports each metric's spread against its bound. The
exit code is non-zero when any answer was wrong.

README.md defines the metrics and says how to read the trace.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median, quantiles
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench_e2e import gauge, gen  # noqa: E402
from bench_e2e.trace import percentile  # noqa: E402

#: name → (unit, better); the bounds live in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "read_p50_ms": ("ms", "lower"),
    "read_p95_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

SETUPS = 3  # setup_s is the median of this many full set-ups
MIN_PASSES = 5  # a run measures at least this many passes

#: Seconds one pass took on the first commit on an average hour of the
#: sandbox, with the generation of its script, the gauge between its
#: ops and the checking of its answers. ``--seconds`` / PASS_S is how
#: many passes a run measures: the same work on both sides of a
#: comparison, whatever the speed of the box or of the program.
PASS_S = {"embedded_batch": 1.3, "embedded_offload_rw": 2.2,
          "served_reads": 1.1, "served_writes": 1.25}

#: A run that is still measuring after this many times ``--seconds``
#: stops early (a slow hour of the box must not break the driver's time
#: cap); every run reaches MIN_PASSES.
OVERRUN = 1.25


def _workdir() -> str:
    base = os.path.join(HERE, "_work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(dir=base)


def kind_ms(passes: list, name: str, kind: str, raw: bool = False) -> list[list[float]]:
    """Per pass, the latencies in ms of the ops whose class pools
    into *kind* (read / write / fresh)."""
    classes = {cls for cls, (k, _share) in gen.CLASSES[name].items() if k == kind}
    return [[(op.raw if raw else op.seconds) * 1e3 for op in p.ops if op.cls in classes]
            for p in passes]


def _times(passes: list, name: str, raw: bool) -> dict[str, float]:
    """The three time metrics of the passes, calibrated or raw."""
    reads = kind_ms(passes, name, "read", raw)
    return {
        "ops_per_s": median(len(p.ops) / (p.raw_wall if raw else p.wall)
                            for p in passes),
        "read_p50_ms": median([ms for r in reads for ms in r]),
        "read_p95_ms": median([percentile(r, 95) for r in reads]),
    }


def measure(name: str, seed: int, seconds: float, scale: str) -> dict[str, Any]:
    """The untraced run of one workload: SETUPS set-ups, then
    ``seconds / PASS_S`` passes of the seeded script (at least
    MIN_PASSES), then the durability check where the WAL is on."""
    from bench_e2e.workloads import PROGRAMS

    workdir = _workdir()
    try:
        workload = gen.GENERATORS[name](seed, scale)
        program = PROGRAMS[name](workload, workdir)
        try:
            setups = []
            for i in range(SETUPS):
                if i:
                    program.teardown()
                setups.append(program.setup())
            passes: list = []
            planned = max(MIN_PASSES, round(seconds / PASS_S[name]))
            begun = time.monotonic()
            deadline = begun + OVERRUN * seconds
            ran, stolen = gauge.cpu_ticks()
            while len(passes) < MIN_PASSES or (
                    len(passes) < planned and time.monotonic() < deadline):
                script = workload.script(len(passes))
                gc.collect()
                passes.append(program.run_pass(script))
                if len(passes) == MIN_PASSES:
                    # the one point every run reaches: served_writes
                    # inserts rows in every pass
                    rss = program.peak_rss_mb()
            ran, stolen = (now - then for now, then
                           in zip(gauge.cpu_ticks(), (ran, stolen)))
            took = time.monotonic() - begun
            end = program.finish(reopens=1)
        finally:
            program.teardown()  # a no-op unless something above raised
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # what only some workloads have, and BENCHMARK.json (one list of
    # bounded metrics for every workload) therefore cannot bound
    also = {}
    for metric, kind, pct in (("write_p50_ms", "write", 50), ("write_p95_ms", "write", 95),
                              ("fresh_read_p50_ms", "fresh", 50)):
        pooled = [ms for p in kind_ms(passes, name, kind) for ms in p]
        if len(pooled) >= (200 if pct == 95 else 1):
            also[metric] = percentile(pooled, pct)
    raw = {"setup_s": median(r for _s, r in setups), **_times(passes, name, raw=True)}
    return {
        "attempted": sum(len(p.ops) for p in passes) + 1,
        "failed": sum(p.failed for p in passes) + end["failed"],
        "passes": len(passes),
        "took": took,
        "stolen": stolen / max(1, ran + stolen),
        "synced": sum(p.synced for p in passes) / sum(p.raw_wall for p in passes),
        "also": also,
        "raw": raw,
        "metrics": {
            "setup_s": median(s for s, _r in setups),
            **_times(passes, name, raw=False),
            "peak_rss_mb": rss,
        },
    }


def _report(result: dict[str, Any], units: dict[str, tuple[str, str]]) -> str:
    """Human-readable lines, then the contract's one JSON object."""
    raw = result.get("raw", {})
    lines = [f"{name:48s} {value if value is None else format(value, '.6g')} "
             f"{units[name][0]}"
             + (f"   (uncalibrated {raw[name]:.6g})" if name in raw else "")
             for name, value in result["metrics"].items()]
    lines += [f"{name:48s} {value:.6g} ms   (no bound: not every workload has it)"
              for name, value in result.get("also", {}).items()]
    if "passes" in result:
        lines.append(f"passes {result['passes']} in {result['took']:.1f} s; "
                     f"the hypervisor withheld "
                     f"{result['stolen']:.0%} of the CPU time they asked for; "
                     f"{result['synced']:.0%} of their wall was os.fsync "
                     f"(kept out of ops_per_s)")
    lines.append(f"attempted {result['attempted']}  failed {result['failed']}")
    lines.append(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in result["metrics"].items()},
    }))
    return "\n".join(lines)


def run_one(args: argparse.Namespace) -> int:
    if args.trace:
        from bench_e2e.probes import PER_LAYER, traced

        result, units = traced(args.seed, args.scale, _workdir, args.out), PER_LAYER
    else:
        result = measure(args.workload, args.seed, args.seconds, args.scale)
        units = END_TO_END
    print(_report(result, units))
    return 0 if result["failed"] == 0 else 1


# -- every workload, each in a child process --------------------------------------


def _child(workload: str, args: argparse.Namespace, trace: int,
           echo: bool = False) -> dict[str, Any]:
    """One run in a process of its own; *echo* repeats what it printed
    before its result line."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--scale", args.scale, "--trace", str(trace)]
    if trace and args.out:
        command += ["--out", args.out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: no result (exit {done.returncode})")
    if echo:
        print(f"-- {'per layer' if trace else workload}", *lines[:-1], sep="\n")
    return json.loads(lines[-1])


def run_all(args: argparse.Namespace) -> int:
    """Every workload untraced, then (with --trace) the traced run."""
    results = {w: _child(w, args, trace=0, echo=True) for w in gen.WORKLOADS}
    if args.trace:
        results["per_layer"] = _child(gen.WORKLOADS[0], args, trace=1, echo=True)
    print(json.dumps({"claim": None, "seed": args.seed, "results": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def calibrate(args: argparse.Namespace) -> int:
    """N back-to-back full runs: per workload and metric the median,
    its spread — (max − min) / median, and the interquartile range /
    median the driver holds against the bound — and that bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    runs, correct = [], True
    for i in range(args.calibrate):
        args.seed += 1  # the driver, too, changes the seed from run to run
        run = {w: _child(w, args, trace=0) for w in gen.WORKLOADS}
        correct &= all(r["correct"] for r in run.values())
        runs.append(run)
        print(f"run {i + 1}/{args.calibrate} done", file=sys.stderr)
    table = []
    for workload in gen.WORKLOADS:
        for name in END_TO_END:
            values = [run[workload]["metrics"][name]["value"] for run in runs]
            mid = median(values)
            q1, _q2, q3 = quantiles(values, n=4) if len(values) > 1 else [mid] * 3
            table.append({"workload": workload, "metric": name, "median": mid,
                          "spread": (max(values) - min(values)) / mid,
                          "iqr": (q3 - q1) / mid,
                          "bound": bounds[name], "values": values})
            print(f"{workload:20s} {name:14s} median {mid:10.4f}  "
                  f"spread {table[-1]['spread']:.3f}  iqr {table[-1]['iqr']:.3f}  "
                  f"bound {bounds[name]}")
    if args.out:
        with open(args.out, "w") as f:  # one table row to a line
            f.write(json.dumps({"claim": None, "runs": args.calibrate,
                                "seconds": args.seconds, "table": []})[:-2]
                    + "\n" + ",\n".join(map(json.dumps, table)) + "\n]}\n")
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16,
                        help="how long the passes of one run measure")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced, per-layer run")
    parser.add_argument("--scale", choices=tuple(gen.SCALES), default="full")
    parser.add_argument("--out", help="write the Chrome trace (--trace) or "
                        "the calibration table (--calibrate) here")
    parser.add_argument("--calibrate", type=int, metavar="N")
    args = parser.parse_args(argv)
    import repro  # noqa: F401  (fail here, before any output, without the program)

    if args.calibrate:
        return calibrate(args)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
