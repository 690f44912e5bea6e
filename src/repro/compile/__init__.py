"""Compile FQL function graphs to SQL: the offload backend (DESIGN.md §14).

The same optimized derived-function graphs :mod:`repro.exec.lower`
consumes can, for a useful analytic subset, be *compiled* to SQL and
executed on an embedded first-order engine (stdlib ``sqlite3``; DuckDB
rides the same interface when importable) over per-table columnar
snapshots — the relation **mirror** kept fresh off the commit clock.

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

import os
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "offload_mode",
    "set_offload_mode",
    "using_offload_mode",
    "try_offload",
    "offload_stats",
]

#: Session override; ``None`` means "read the REPRO_OFFLOAD env var".
_MODE_OVERRIDE: str | None = None

_MODES = ("off", "auto", "force")


def offload_mode() -> str:
    """``"off"``, ``"auto"`` (default), or ``"force"``."""
    if _MODE_OVERRIDE is not None:
        return _MODE_OVERRIDE
    env = os.environ.get("REPRO_OFFLOAD", "auto").strip().lower()
    if env in ("force", "on", "always"):
        return "force"
    if env in ("off", "0", "never", "disabled"):
        return "off"
    return "auto"


def set_offload_mode(mode: str | None) -> None:
    """Force a mode for this process (``None`` restores env control)."""
    global _MODE_OVERRIDE
    if mode is not None and mode not in _MODES:
        raise ValueError(
            f"offload mode must be one of {_MODES}, got {mode!r}"
        )
    _MODE_OVERRIDE = mode


@contextmanager
def using_offload_mode(mode: str | None) -> Iterator[None]:
    """Temporarily force an offload mode (used by the differential tests)."""
    previous = _MODE_OVERRIDE
    set_offload_mode(mode)
    try:
        yield
    finally:
        set_offload_mode(previous)


def try_offload(fn, optimized, fired_rules):
    """Plan-time hook: an :class:`OffloadPipeline` for *optimized*, or
    ``None`` to lower onto the batched executor (thin re-export so the
    router needs only this package's light top level)."""
    from repro.compile.offload import try_offload as _try

    return _try(fn, optimized, fired_rules)


def offload_stats(engine) -> dict:
    """The ``db.stats()["offload"]`` payload for *engine*."""
    from repro.compile.mirror import stats_for

    return stats_for(engine)
