"""The physical execution layer (DESIGN.md §6).

This package separates *what a query means* (the derived-function graph,
DESIGN.md §5) from *how it runs*. ``lower(fn)`` compiles an optimized
graph into a pull-based :class:`PhysicalPipeline` operating on batches
of ``(key, value)`` entries; a per-database LRU :class:`PlanCache` keyed
by graph fingerprint lets repeated queries skip optimize+lower; and the
``REPRO_EXEC=naive`` environment switch (or :func:`set_exec_mode`)
restores the original per-key interpretation for differential testing.

Public surface:

* :func:`lower`, :class:`PhysicalPipeline` — the compiler and its output
* :func:`explain` — logical plan + fired rules + physical pipeline
* :func:`exec_mode` / :func:`set_exec_mode` / :func:`using_exec_mode`
* :func:`pipeline_for`, :func:`route_items`, :func:`route_keys` — the
  enumeration seam used by :class:`repro.fdm.functions.DerivedFunction`;
  :func:`route_batches` — the same seam batch by batch (the wire encoder)
* :class:`PlanCache`, :func:`cache_for`, :func:`default_plan_cache`,
  :func:`fingerprint`
"""

from repro.exec.batch import COLUMNAR_BATCH_SIZE, ColumnBatch
from repro.exec.cache import (
    PlanCache,
    cache_for,
    default_plan_cache,
    fingerprint,
)
from repro.exec.explain import analyze, explain
from repro.exec.kernels import (
    kernel_backend,
    set_kernel_backend,
    using_kernel_backend,
)
from repro.exec.lower import PhysicalPipeline, lower
from repro.exec.nodes import BATCH_SIZE, PhysicalNode
from repro.exec.run import (
    exec_mode,
    join_bindings,
    pipeline_for,
    route_batches,
    route_items,
    route_keys,
    set_exec_mode,
    using_exec_mode,
)

__all__ = [
    "BATCH_SIZE",
    "COLUMNAR_BATCH_SIZE",
    "ColumnBatch",
    "PhysicalNode",
    "PhysicalPipeline",
    "PlanCache",
    "analyze",
    "cache_for",
    "default_plan_cache",
    "exec_mode",
    "explain",
    "fingerprint",
    "join_bindings",
    "kernel_backend",
    "lower",
    "pipeline_for",
    "route_batches",
    "route_items",
    "route_keys",
    "set_exec_mode",
    "set_kernel_backend",
    "using_exec_mode",
    "using_kernel_backend",
]
