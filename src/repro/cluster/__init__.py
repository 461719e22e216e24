"""repro.cluster — replicated Netmark: WAL shipping, election, failover.

The paper's middleware is "lean" because each node is nothing more than
an intelligent storage component; this package makes N of them act as
one service that survives node deaths without losing an acknowledged
ingest.  Everything is built from machinery the repo already has:

* replication is **WAL shipping** — the coordinator's own durable log
  records, re-applied through the same ARIES-lite replay that crash
  recovery uses (:mod:`repro.cluster.ship`, :mod:`repro.cluster.replica`);
* failover is a **bully election** on heartbeats over the simulated
  network, preferring the most caught-up in-sync replica and gated by a
  majority quorum (:mod:`repro.cluster.election`);
* a store is written by its own node — the coordinator's
  :meth:`~repro.cluster.cluster.NetmarkCluster.ingest` — and reaches
  every other node as shipped WAL records, never by a second write:
  there is no distributed commit because no request writes two stores;
* :class:`~repro.cluster.cluster.NetmarkCluster` ties it together and is
  the OS stand-in for its nodes — the one place an injected
  :class:`~repro.errors.CrashError` is allowed to stop meaning "the test
  is over" and start meaning "that node is gone".

Everything runs on the logical clock with seeded randomness: a failover
trace — heartbeats, elections, kills — replays bit-for-bit from its
fault-plan seed.
"""

from repro.cluster.cluster import (
    COORDINATOR,
    FOLLOWER,
    ClusterNode,
    ClusterStats,
    IngestReceipt,
    NetmarkCluster,
    NodeView,
)
from repro.cluster.election import ElectionRecord, elect
from repro.cluster.replica import FollowerReplica
from repro.cluster.ship import CheckpointBundle, LogShipper, ShipBatch

__all__ = [
    "COORDINATOR",
    "FOLLOWER",
    "CheckpointBundle",
    "ClusterNode",
    "ClusterStats",
    "ElectionRecord",
    "FollowerReplica",
    "IngestReceipt",
    "LogShipper",
    "NetmarkCluster",
    "NodeView",
    "ShipBatch",
    "elect",
]
