"""A speed gauge for a box whose speed wanders.

On the 2-core sandbox this benchmark was written on, identical CPU
work takes 10–40 % longer for seconds to minutes at a time: a pure
Python loop timed for four minutes has medians over 15 s windows that
spread (IQR / median) by 14 %, so no wall-clock metric measured over a
run of that length can repeat within a tenth. The slowdown is
multiplicative and slow — neighbouring 65 ms samples of the loop agree
to 1 % — so it can be measured next to the work and divided out.

:func:`sample` times a fixed kernel of ordinary interpreter work (a
filtered scan over dict rows that allocates its result). The harness
samples it only while the program under test is idle — between the ops
of a pass, before and after a set-up's open or a reopening — so that
nothing the program makes the box do can slow the gauge and so be
divided out of the program's own times.
Every time is then divided by ``median(nearby samples) / NOMINAL_S``.
What the benchmark reports is therefore *calibrated* time: seconds on a
box that runs the kernel in NOMINAL_S. NOMINAL_S is a unit, not a
measurement: any constant gives the same ratios between two commits,
and this one makes calibrated and raw time agree on the sandbox on a
quiet moment (``run.py`` prints both). I/O waits do not slow down with
the CPU; the one that matters, the ``fsync`` per commit of
``served_writes``, is timed by ``server_child.py`` and kept out of a
pass's wall altogether.
"""

from __future__ import annotations

import itertools
import statistics
import time

#: the kernel's run time on the reference box when nothing else runs
NOMINAL_S = 0.0025

#: what the kernel scans: big enough (a few MB of dicts) to miss the
#: caches the way a table scan does, so that it slows down with the
#: box about as much as the program's own scans do
_TABLE = [{"k": i, "v": i * 7 % 13, "w": float(i % 97)} for i in range(60_000)]
_STRIPES = itertools.cycle([_TABLE[i:i + 15_000] for i in range(0, 60_000, 15_000)])


def _kernel() -> int:
    """Scan the next stripe of the table: read, test, allocate, fold."""
    kept = [{"k": row["k"], "v": row["v"]} for row in next(_STRIPES)
            if row["w"] < 60.0]
    return sum(row["v"] for row in kept)


#: (when, seconds): one timed run of the kernel
Sample = tuple[float, float]


def sample() -> Sample:
    """Time the kernel once, right now."""
    start = time.perf_counter()
    _kernel()
    return start, time.perf_counter() - start


def burst(n: int = 7) -> list[Sample]:
    return [sample() for _ in range(n)]


def slowdown(samples: list[Sample]) -> float:
    """How many times slower than nominal the box ran the kernel."""
    return statistics.median(seconds for _at, seconds in samples) / NOMINAL_S


#: an op is calibrated by the samples taken within this many seconds of
#: it, and by no fewer than _NEAREST of them
_WINDOW_S = 0.15
_NEAREST = 5


def slowdown_during(samples: list[Sample], begun: float,
                    lasted: float) -> float:
    """The slowdown around an op that began at *begun* and took
    *lasted* seconds, from time-stamped gauge *samples*."""
    lo, hi = begun - _WINDOW_S, begun + lasted + _WINDOW_S
    near = [s for s in samples if lo <= s[0] <= hi]
    if len(near) < _NEAREST:
        middle = begun + lasted / 2
        near = sorted(samples, key=lambda s: abs(s[0] - middle))[:_NEAREST]
    return slowdown(near)


def cpu_ticks() -> tuple[int, int]:
    """(run, stolen): the clock ticks this box has spent running, and
    the ticks a hypervisor withheld while it had work to run, so far
    (``/proc/stat``). Not a correction, only a witness: on this sandbox
    a run during which a tenth or more was stolen is an outlier, and a
    reader comparing runs should be able to tell."""
    with open("/proc/stat") as stat:
        user, nice, system, _idle, _iowait, irq, softirq, steal = map(
            int, stat.readline().split()[1:9])
    return user + nice + system + irq + softirq, steal
