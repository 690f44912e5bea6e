"""Horizontal partitioning with pruned serial scans.

DESIGN.md §10. The subsystem has four faces, one per layer it threads
through:

* **storage** — every :class:`~repro.storage.table.Table` keeps its
  MVCC rows in the segments its scheme names: one for a flat
  table (:data:`~repro.partition.scheme.FLAT`), one per partition for
  :class:`~repro.partition.scheme.HashScheme` /
  :class:`~repro.partition.scheme.RangeScheme` (WAL, recovery,
  snapshots, retention all work the same either way).
* **optimizer** — :func:`~repro.partition.prune.surviving_partitions`
  answers which segments a filter can reach, and each segment's own
  :class:`~repro.storage.stats.TableStatistics` let cardinality
  estimation sum only those.
* **executor** — the scan reads only the segments the filters above it
  reach, then skips those whose statistics rule them out (one physical
  path; DESIGN.md §10 records why there is no thread fan-out).
* **IVM** — commit-time deltas carry the segments they touched, so
  maintained views skip upkeep entirely when every change landed in a
  segment their filters cannot reach.

Import discipline: this package sits *below* ``repro.storage``, which
imports its schemes; anything heavier (fql, optimizer) is imported
inside functions.
"""

from repro.partition.prune import surviving_partitions
from repro.partition.scheme import (
    HashScheme,
    PartitionScheme,
    RangeScheme,
    as_scheme,
    hash_partition,
    range_partition,
    stable_hash,
)

__all__ = [
    "HashScheme",
    "PartitionScheme",
    "RangeScheme",
    "as_scheme",
    "hash_partition",
    "range_partition",
    "stable_hash",
    "surviving_partitions",
]
