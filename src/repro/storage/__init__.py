"""The storage substrate: MVCC tables, WAL, indexes, statistics,
checkpoints, the one written form of committed state
(:mod:`repro.storage.image`), and stored (transactional) relation
functions."""

from repro.storage.engine import StorageEngine
from repro.storage.index import HashIndex, IndexSet, SortedIndex
from repro.storage.persist import load_checkpoint, save_checkpoint
from repro.storage.relation import (
    StoredRelationFunction,
    StoredRelationshipFunction,
)
from repro.storage.stats import AttrStatistics, TableStatistics
from repro.storage.table import Table
from repro.storage.versioned import VersionedTable
from repro.storage.wal import WALRecord, WriteAheadLog

__all__ = [
    "StorageEngine",
    "HashIndex", "IndexSet", "SortedIndex",
    "load_checkpoint", "save_checkpoint",
    "StoredRelationFunction", "StoredRelationshipFunction",
    "AttrStatistics", "TableStatistics",
    "Table", "VersionedTable",
    "WALRecord", "WriteAheadLog",
]
