"""Horizontal partitioning with pruned serial scans.

DESIGN.md §10. The subsystem has four faces, one per layer it threads
through:

* **storage** — :class:`PartitionedTable` fans a table's MVCC version
  chains into per-partition segments behind the unchanged
  ``VersionedTable`` contract (WAL, recovery, snapshots, vacuum all keep
  working); :class:`~repro.partition.scheme.HashScheme` /
  :class:`~repro.partition.scheme.RangeScheme` decide placement.
* **optimizer** — :func:`~repro.partition.prune.surviving_partitions`
  statically eliminates partitions a transparent filter cannot touch,
  and each segment's own :class:`~repro.storage.stats.TableStatistics`
  let cardinality estimation sum only the survivors.
* **executor** — the scan tests each segment of the table it reads
  against the filters above it, partition scheme first, and skips the
  partitions they cannot reach (one physical path; DESIGN.md §10
  records why there is no thread fan-out).
* **IVM** — commit-time deltas carry partition tags, so maintained views
  skip upkeep entirely when every change landed in a partition their
  filters prune away.

Import discipline: this package sits *below* ``repro.storage`` (which
only reaches in lazily) and *beside* ``repro.exec``; anything heavier
(fql, optimizer) is imported inside functions.
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
from repro.partition.table import PartitionedTable

__all__ = [
    "HashScheme",
    "PartitionScheme",
    "PartitionedTable",
    "RangeScheme",
    "as_scheme",
    "hash_partition",
    "range_partition",
    "stable_hash",
    "surviving_partitions",
]
