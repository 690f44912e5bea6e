"""WAL-shipping replication: leader/follower read replicas.

The functional model makes replication unusually small (DESIGN.md §12):
a database's entire history *is* its write-ahead log, and a snapshot is
just a version, so a follower that replays the leader's WAL through the
ordinary recovery path serves exactly the reads the leader would have
served at the same commit stamp.

Three moving parts:

* :class:`ReplicationHub` (leader side, lazily attached by the server's
  ``REPLICA_HELLO`` verb) ships WAL suffixes — plus a checkpoint's
  one record (:mod:`repro.storage.image`) for initial sync — as
  ``WAL_BATCH`` push frames over the ordinary wire protocol;
* :class:`ReplicaDatabase` + :class:`ReplicationClient` (follower side)
  replay them through ``engine.apply_commit``, preserving partition
  layout, indexes, and the follower's own WAL byte-for-byte, and
  feeding the IVM changelog so maintained views and SUBSCRIBE stay
  live on replicas;
* :class:`~repro.client.RemoteDatabase` (client side) routes read-only
  FQL/SQL to followers under read-your-writes or bounded-staleness
  barriers, and everything else to the leader.

Manual failover: ``replica.promote()`` mints a fencing epoch,
``leader.fence(epoch)`` demotes the old leader, and stale-epoch WAL
batches are rejected — see ``docs/operations.md`` for the runbook::

    leader = repro.connect(name="primary")
    srv = repro.server.serve(leader, port=7878)
    replica = repro.replication.start_replica(port=7878)
"""

from repro.replication.hub import (
    ReplicaPeer,
    ReplicationHub,
    hub_for,
    snapshot_payload,
)
from repro.replication.replica import (
    ReplicaDatabase,
    ReplicaTransactionManager,
    ReplicationClient,
    start_replica,
)
from repro.storage.image import (
    decode_record,
    decode_records,
    encode_record,
    encode_records,
    table_schema,
)

__all__ = [
    "ReplicaDatabase",
    "ReplicaPeer",
    "ReplicaTransactionManager",
    "ReplicationClient",
    "ReplicationHub",
    "decode_record",
    "decode_records",
    "encode_record",
    "encode_records",
    "hub_for",
    "snapshot_payload",
    "start_replica",
    "table_schema",
]
