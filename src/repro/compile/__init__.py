"""Compile FQL function graphs to SQL: the offload backend (DESIGN.md §14).

The same optimized derived-function graphs :mod:`repro.exec.lower`
consumes can, for a useful analytic subset, be *compiled* to SQL and
executed on an embedded first-order engine (stdlib ``sqlite3``) over
per-table columnar snapshots — the relation **mirror** kept fresh off
the commit clock.

The offload path is the third physical mode, after naive per-key
interpretation and the batched executor:

* :mod:`repro.compile.mirror` — the per-engine snapshot mirror, its
  per-column hostility profiles, and the offload counters.
* :mod:`repro.compile.sqlgen` — the graph-to-SQL compiler. It declines
  (raising :class:`~repro.compile.sqlgen.Unsupported`) any shape whose
  SQL semantics would not be bit-identical to the naive interpretation.
* :mod:`repro.compile.offload` — :func:`~repro.compile.offload.try_offload`
  glues compiler, mirror, and the optimizer's cost choice into an
  :class:`~repro.compile.offload.OffloadPipeline` the router caches.

This module owns only the ``REPRO_OFFLOAD`` escape hatch, mirroring the
``REPRO_EXEC`` idiom: ``off`` disables offloading,
``auto`` (default) lets the cost model choose, ``force`` offloads every
compilable query regardless of cost.
"""

from __future__ import annotations

from repro.config import OFFLOAD

__all__ = [
    "offload_mode",
    "set_offload_mode",
    "using_offload_mode",
    "try_offload",
    "offload_stats",
]

#: ``"off"``, ``"auto"`` (default), or ``"force"``; ``set_`` forces a
#: mode for this process, ``using_`` temporarily (the differential tests).
offload_mode = OFFLOAD.get
set_offload_mode = OFFLOAD.set
using_offload_mode = OFFLOAD.using


def try_offload(fn, optimized, fired_rules, engine):
    """Plan-time hook: an :class:`OffloadPipeline` for *optimized*, or
    ``None`` to lower onto the batched executor (thin re-export so the
    router needs only this package's light top level)."""
    from repro.compile.offload import try_offload as _try

    return _try(fn, optimized, fired_rules, engine)


def offload_stats(engine) -> dict:
    """The ``db.stats()["offload"]`` payload for *engine*."""
    from repro.compile.mirror import stats_for

    return stats_for(engine)
