"""The replicated Netmark cluster: membership, failover, zero-loss ingest.

N logical Netmark nodes in one process, joined by the simulated network
(:class:`~repro.resilience.netsim.Network`) and replicating through WAL
shipping (:mod:`repro.cluster.ship`).  One node is the **write
coordinator** — the only one holding a live, WAL-attached
:class:`~repro.store.xmlstore.XmlStore`; every other live node is a
**follower** applying the coordinator's shipped records.

The commit rule is what buys the headline guarantee (an acknowledged
ingest survives any single failure, and any failure pattern that leaves
a majority alive):

1. quorum is checked *before* the write — a coordinator that cannot
   reach a majority refuses rather than accept a write it may not be
   able to keep;
2. the write commits locally (the ordinary durable store path);
3. the new records ship synchronously to every in-sync follower, each
   of which makes them durable *before* acking;
4. the client is acknowledged only if the coordinator plus the acked
   followers still form a strict majority — otherwise the ingest raises
   and is *not* recorded on the committed ledger.

Failover then cannot lose an acknowledged ingest: elections
(:mod:`repro.cluster.election`) only admit in-sync candidates and prefer
the highest acked LSN, and every acknowledged write is, by rule 3, on
every in-sync replica.  A promoted coordinator recovers its own log
and writes on: every record is a whole write, so the dead coordinator
left nothing unfinished to resolve or to journal.

This class is the OS stand-in for its nodes: it is the one place allowed
to catch :class:`~repro.errors.CrashError` (an injected SIGKILL on one
node's device), which it translates into that node's death — the cluster
survives; the node does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import (
    ClusterError,
    CorruptLogError,
    CrashError,
    NoQuorumError,
    ReplicaQuarantinedError,
    ReproError,
    SourceUnavailableError,
)
from repro.federation.router import ReadBalancer
from repro.federation.sources import NetmarkSource
from repro.ordbms.recovery import recover
from repro.ordbms.wal import LogDevice, MemoryLogDevice
from repro.query.results import SectionMatch
from repro.resilience.clock import LogicalClock
from repro.resilience.heartbeat import HeartbeatMonitor
from repro.resilience.netsim import Network
from repro.sgml.config import DEFAULT_CONFIG, NodeTypeConfig
from repro.store.xmlstore import XmlStore

from repro.cluster.election import ElectionRecord, elect
from repro.cluster.replica import FollowerReplica
from repro.cluster.ship import LogShipper

COORDINATOR = "coordinator"
FOLLOWER = "follower"


@dataclass(frozen=True)
class IngestReceipt:
    """Proof of one acknowledged ingest — the unit of the zero-loss
    guarantee.  Everything on the ledger must survive any failover."""

    file_name: str
    doc_id: int
    lsn: int
    coordinator: str
    #: Nodes that held the write durably when the client was acked.
    witnesses: tuple[str, ...]


class ClusterNode:
    """One node's slot in the membership: its device plus live state.

    The device is the node's "disk" and survives kills; ``store`` (the
    coordinator's writable state) and ``replica`` (a follower's applied
    state) are the "process memory" and are dropped on death.
    """

    def __init__(self, name: str, device: LogDevice) -> None:
        self.name = name
        self.device = device
        self.role = FOLLOWER
        self.store: XmlStore | None = None
        self.replica: FollowerReplica | None = None
        #: On the replication fast path (acks every write synchronously)?
        self.in_sync = False
        #: Why this node was isolated, or None (healthy).
        self.quarantine: str | None = None
        #: Next catch-up must be a full bundle resync (set when the node
        #: died holding the coordinator role — its log may contain a
        #: durable-but-unshipped suffix no one else has).
        self.needs_resync = False
        #: Role held at the moment of death (kill bookkeeping).
        self.killed_as: str | None = None
        self.last_error: str | None = None

    @property
    def acked_lsn(self) -> int:
        """Highest durably-held LSN (0 when the node has no live state)."""
        if self.store is not None and self.store.database.wal is not None:
            return self.store.database.wal.last_lsn
        if self.replica is not None:
            return self.replica.acked_lsn
        return 0


@dataclass
class ClusterStats:
    """Counters of what the membership has been through."""

    ingests_acked: int = 0
    ingests_refused: int = 0
    failovers: int = 0
    demotions: int = 0
    quarantines: int = 0
    catchups: int = 0
    failed_elections: int = 0
    node_deaths: int = 0


class NetmarkCluster:
    """Membership, replication and failover over N logical nodes."""

    def __init__(
        self,
        names: list[str],
        heartbeat_timeout: int = 3,
        config: NodeTypeConfig = DEFAULT_CONFIG,
        clock: LogicalClock | None = None,
        devices: dict[str, LogDevice] | None = None,
    ) -> None:
        if len(names) < 2:
            raise ClusterError(
                f"a cluster needs at least 2 nodes, got {names}"
            )
        self.clock = clock if clock is not None else LogicalClock()
        self.config = config
        self.heartbeat_timeout = heartbeat_timeout
        self.network = Network(self.clock, list(names))
        self.monitors = {
            name: HeartbeatMonitor(
                self.clock, heartbeat_timeout, observer=name
            )
            for name in names
        }
        self.balancer = ReadBalancer()
        self.elections: list[ElectionRecord] = []
        self.ledger: list[IngestReceipt] = []
        self.stats = ClusterStats()
        provided = devices or {}
        self.nodes: dict[str, ClusterNode] = {
            name: ClusterNode(name, provided.get(name, MemoryLogDevice()))
            for name in names
        }
        # Bootstrap: the first node seeds the store (schema + baseline
        # checkpoint), everyone else joins from its bundle.
        first = names[0]
        head = self.nodes[first]
        head.store = XmlStore.open(head.device, config)
        head.role = COORDINATOR
        head.in_sync = True
        self.coordinator: str | None = first
        bundle = self._shipper().bundle()
        for name in names[1:]:
            node = self.nodes[name]
            node.replica = FollowerReplica.bootstrap(
                name, node.device, bundle, config
            )
            node.in_sync = True
        self._note_lag()

    # -- membership views ----------------------------------------------------

    @property
    def majority(self) -> int:
        return len(self.network.nodes) // 2 + 1

    def describe(self) -> list[dict[str, str]]:
        """Membership table, one row per node (HTTP's /cluster view)."""
        rows = []
        for name in self.network.nodes:
            node = self.nodes[name]
            rows.append(
                {
                    "name": name,
                    "role": self.role_of(name),
                    "alive": "true" if self.network.alive(name) else "false",
                    "in-sync": "true" if node.in_sync else "false",
                    "acked-lsn": str(node.acked_lsn),
                    "quarantined": (
                        "true" if node.quarantine is not None else "false"
                    ),
                }
            )
        return rows

    def view(self, name: str) -> "NodeView":
        """One node's duck-typed membership view (``api.cluster``)."""
        if name not in self.nodes:
            raise ClusterError(f"unknown node {name!r}")
        return NodeView(self, name)

    def role_of(self, name: str) -> str:
        """A node's effective role right now (see :data:`COORDINATOR`)."""
        node = self.nodes[name]
        if node.quarantine is not None:
            return "quarantined"
        if not self.network.alive(name):
            return "offline"
        return COORDINATOR if name == self.coordinator else FOLLOWER

    def replication_lag(self) -> dict[str, int]:
        """Per-follower records-behind-coordinator (live followers)."""
        if self.coordinator is None:
            return {}
        head = self.nodes[self.coordinator].acked_lsn
        return {
            name: head - node.acked_lsn
            for name, node in self.nodes.items()
            if name != self.coordinator
            and self.network.alive(name)
            and node.quarantine is None
            and node.replica is not None
        }

    def dumps(self) -> dict[str, str]:
        """Snapshot text per live, un-quarantined node.

        Converged replicas dump byte-identically (snapshots embed no
        node name), which is how convergence is checked.
        """
        out: dict[str, str] = {}
        for name, node in self.nodes.items():
            if not self.network.alive(name) or node.quarantine is not None:
                continue
            if node.store is not None:
                out[name] = node.store.dump()
            elif node.replica is not None:
                out[name] = node.replica.dump()
        return out

    # -- time ----------------------------------------------------------------

    def tick(self, ticks: int = 1) -> None:
        """Advance logical time: heartbeats flow, failures get detected.

        Each tick every live node beats to every reachable peer; then the
        coordinator re-checks its quorum (self-demoting when partitioned
        into a minority) and followers that have stopped hearing from a
        coordinator start an election.
        """
        for _ in range(ticks):
            self.clock.advance(1)
            for src in self.network.nodes:
                if (
                    not self.network.alive(src)
                    or self.nodes[src].quarantine is not None
                ):
                    continue
                for dst in self.network.peers_of(src):
                    if self.nodes[dst].quarantine is None:
                        self.monitors[dst].beat(src)
            self._supervise()
        self._note_lag()

    def _supervise(self) -> None:
        name = self.coordinator
        if name is not None:
            if not self.network.alive(name):
                self.coordinator = None
            elif self._reach_of(name) < self.majority:
                # A coordinator in a minority partition steps down: it
                # could not commit anything anyway, and staying "leader"
                # there is how split-brain starts.
                self._demote(name)
        if self.coordinator is None:
            self._try_elect()
            return
        if self.clock.now() <= self.heartbeat_timeout:
            return  # grace period: first beats are still propagating
        for follower in self._eligible():
            if follower == self.coordinator:
                continue
            if not self.monitors[follower].alive(self.coordinator):
                if self._try_elect(initiator=follower) is not None:
                    break

    def _reach_of(self, name: str) -> int:
        """Members ``name`` can currently reach, itself included."""
        peers = [
            peer
            for peer in self.network.peers_of(name)
            if self.nodes[peer].quarantine is None
        ]
        return len(peers) + 1

    # -- elections ----------------------------------------------------------

    def _eligible(self) -> list[str]:
        """Nodes allowed to stand for (or trigger) election: live,
        in-sync, un-quarantined, with recovered local state."""
        return [
            name
            for name in self.network.nodes
            if self.network.alive(name)
            and self.nodes[name].quarantine is None
            and self.nodes[name].in_sync
            and (
                self.nodes[name].replica is not None
                or self.nodes[name].store is not None
            )
        ]

    def _try_elect(self, initiator: str | None = None) -> ElectionRecord | None:
        eligible = self._eligible()
        if not eligible:
            return None
        priorities = {
            name: (self.nodes[name].acked_lsn, name) for name in eligible
        }
        # With no explicit initiator, every eligible node tries in turn —
        # under a partition each side detects the vacancy independently,
        # and only an initiator on the majority side can succeed.
        initiators = [initiator] if initiator is not None else sorted(eligible)
        record: ElectionRecord | None = None
        for candidate in initiators:
            try:
                record = elect(self.network, candidate, priorities)
                break
            except NoQuorumError:
                self.stats.failed_elections += 1
        if record is None:
            return None
        self.elections.append(record)
        if record.winner != self.coordinator:
            self._promote(record.winner)
        return record

    def _promote(self, winner: str) -> None:
        """Turn an in-sync follower into the write coordinator: full
        crash recovery on its own device attaches a resumed WAL."""
        node = self.nodes[winner]
        try:
            result = recover(node.device, name=winner)
        except CorruptLogError as error:
            self._quarantine(winner, str(error))
            self._try_elect()
            return
        node.store = XmlStore.adopt(result.database, self.config)
        node.replica = None
        node.role = COORDINATOR
        node.in_sync = True
        for other in self.nodes.values():
            if other is not node and other.role == COORDINATOR:
                other.role = FOLLOWER
            if other.replica is not None:
                other.replica.forget_store()
        self.coordinator = winner
        self.stats.failovers += 1
        obs.inc("repro_cluster_failovers_total")

    def _demote(self, name: str) -> None:
        """Step a quorum-less coordinator down to follower.

        Lossless by construction: quorum is checked before every write,
        so a coordinator that just lost quorum has shipped everything it
        ever committed — its log is the shared history, and reopening it
        as a follower drops nothing.
        """
        node = self.nodes[name]
        node.store = None
        node.role = FOLLOWER
        self.coordinator = None
        self._reopen(name)
        self.stats.demotions += 1
        obs.inc("repro_cluster_demotions_total")

    # -- failure script hooks ------------------------------------------------

    def kill(self, name: str) -> None:
        """Kill one node (SIGKILL semantics: memory gone, device stays)."""
        self._node_died(name)

    def revive(self, name: str) -> None:
        """Restart a killed node as an out-of-sync follower.

        The node recovers what its device durably holds (torn tail
        trimmed) but stays off the replication fast path until
        :meth:`catch_up` brings it back in sync.  A node that died
        holding the coordinator role is flagged for a full resync: its
        log may contain a durable-but-unshipped suffix nobody else has,
        and that suffix was never acknowledged to any client.
        """
        node = self.nodes[name]
        self.network.revive(name)
        if node.killed_as == COORDINATOR:
            node.needs_resync = True
        node.killed_as = None
        node.role = FOLLOWER
        node.in_sync = False
        if not node.needs_resync:
            self._reopen(name)

    def partition(self, *groups: list[str]) -> None:
        self.network.partition(*groups)

    def heal(self) -> None:
        self.network.heal()

    def _node_died(self, name: str) -> None:
        node = self.nodes[name]
        node.killed_as = (
            COORDINATOR if name == self.coordinator else FOLLOWER
        )
        node.store = None
        node.replica = None
        node.in_sync = False
        if self.network.alive(name):
            self.network.kill(name)
        if name == self.coordinator:
            self.coordinator = None
        self.stats.node_deaths += 1
        obs.inc("repro_cluster_node_deaths_total")

    def _reopen(self, name: str) -> None:
        """Recover a node's follower state from its device, quarantining
        on mid-log corruption instead of letting it poison the cluster."""
        node = self.nodes[name]
        try:
            node.replica = FollowerReplica(name, node.device, self.config)
        except CorruptLogError as error:
            self._quarantine(name, str(error))

    def _quarantine(self, name: str, reason: str) -> None:
        node = self.nodes[name]
        node.quarantine = reason
        node.in_sync = False
        node.replica = None
        node.store = None
        if name == self.coordinator:
            self.coordinator = None
        self.stats.quarantines += 1
        obs.inc("repro_cluster_quarantines_total")

    # -- catch-up and rejoin -------------------------------------------------

    def catch_up(self, name: str) -> int:
        """Bring a lagging or rejoining follower back in sync.

        Tail-ships when the coordinator's live log still covers the gap;
        installs a full checkpoint bundle when it does not (the
        coordinator checkpointed past this follower) or when the node's
        own history cannot be trusted to be a prefix (it died as
        coordinator).  Re-shipped overlap is skipped idempotently.
        """
        if self.coordinator is None:
            raise ClusterError("no coordinator to catch up from")
        if name == self.coordinator:
            raise ClusterError(f"{name} is the coordinator")
        node = self.nodes[name]
        if node.quarantine is not None:
            raise ReplicaQuarantinedError(
                f"replica {name} is quarantined ({node.quarantine}); "
                f"rejoin() it for a full resync"
            )
        if not self.network.alive(name):
            raise ClusterError(f"cannot catch up dead node {name}")
        self.network.check(name, self.coordinator)
        shipper = self._shipper()
        if node.replica is None and not node.needs_resync:
            self._reopen(name)
            if node.quarantine is not None:
                raise ReplicaQuarantinedError(
                    f"replica {name} was quarantined while rejoining "
                    f"({node.quarantine})"
                )
        if node.needs_resync or not shipper.can_ship_from(
            node.replica.acked_lsn if node.replica else 0
        ):
            if node.replica is None:
                node.replica = FollowerReplica.bootstrap(
                    name, node.device, shipper.bundle(), self.config
                )
            else:
                node.replica.install_bundle(shipper.bundle())
            node.needs_resync = False
        else:
            node.replica.apply_batch(
                shipper.batch_after(node.replica.acked_lsn)
            )
        node.in_sync = True
        node.last_error = None
        self.stats.catchups += 1
        obs.inc("repro_cluster_catchups_total", replica=name)
        self._note_lag()
        return node.replica.acked_lsn

    def rejoin(self, name: str) -> int:
        """Clear a quarantine with a full resync from the coordinator.

        The quarantined log is *replaced*, never recovered — mid-log
        corruption means the local history cannot be trusted at all.
        """
        node = self.nodes[name]
        if node.quarantine is None:
            raise ClusterError(f"{name} is not quarantined")
        node.quarantine = None
        node.needs_resync = True
        node.replica = None
        return self.catch_up(name)

    # -- the write path ------------------------------------------------------

    def ingest(self, file_name: str, content: str) -> IngestReceipt:
        """Store one document cluster-wide; ack only when it cannot be
        lost.  See the module docstring for the four-step commit rule."""
        name = self.coordinator
        if name is None or not self.network.alive(name):
            self.stats.ingests_refused += 1
            raise NoQuorumError(
                "cluster has no live coordinator; retry after failover"
            )
        node = self.nodes[name]
        if node.store is None:
            self.stats.ingests_refused += 1
            raise NoQuorumError(
                f"coordinator {name} has no recovered store yet"
            )
        if self._reach_of(name) < self.majority:
            self.stats.ingests_refused += 1
            raise NoQuorumError(
                f"coordinator {name} reaches {self._reach_of(name)} of "
                f"{len(self.network.nodes)} members (majority is "
                f"{self.majority}); refusing the write up front"
            )
        try:
            result = node.store.store_text(content, file_name)
        except CrashError:
            # The OS boundary: the node died, the cluster did not.
            self._node_died(name)
            self.stats.ingests_refused += 1
            raise SourceUnavailableError(
                f"coordinator {name} died mid-ingest; the write was "
                f"never acknowledged"
            ) from None
        lsn = node.acked_lsn
        acks = self._replicate()
        witnesses = [name] + sorted(
            peer for peer, acked in acks.items() if acked >= lsn
        )
        if len(witnesses) < self.majority:
            self.stats.ingests_refused += 1
            raise NoQuorumError(
                f"write at LSN {lsn} is durable on only "
                f"{len(witnesses)} of {len(self.network.nodes)} nodes "
                f"(majority is {self.majority}); not acknowledged"
            )
        receipt = IngestReceipt(
            file_name=file_name,
            doc_id=result.doc_id,
            lsn=lsn,
            coordinator=name,
            witnesses=tuple(witnesses),
        )
        self.ledger.append(receipt)
        self.stats.ingests_acked += 1
        obs.inc("repro_cluster_ingests_total", outcome="acked")
        return receipt

    def _replicate(self) -> dict[str, int]:
        """Ship the coordinator's new records to every in-sync follower.

        Followers that fail drop off the fast path (they stop counting
        toward acks until :meth:`catch_up`); a follower whose device
        crash-faults dies like any other process.
        """
        assert self.coordinator is not None
        shipper = self._shipper()
        acks: dict[str, int] = {}
        for name in self.network.nodes:
            if name == self.coordinator:
                continue
            node = self.nodes[name]
            if (
                node.quarantine is not None
                or not node.in_sync
                or node.replica is None
                or not self.network.alive(name)
            ):
                continue
            try:
                self.network.check(self.coordinator, name)
                acks[name] = node.replica.apply_batch(
                    shipper.batch_after(node.replica.acked_lsn)
                )
            except CrashError:
                self._node_died(name)
            except ReproError as error:
                node.in_sync = False
                node.last_error = f"{type(error).__name__}: {error}"
                obs.inc(
                    "repro_cluster_replication_errors_total", replica=name
                )
        self._note_lag()
        return acks

    def checkpoint(self) -> int:
        """Checkpoint the coordinator's store (truncates its live log —
        followers lagging past this point will need a bundle resync)."""
        name = self.coordinator
        if name is None or self.nodes[name].store is None:
            raise ClusterError("no live coordinator to checkpoint")
        try:
            return self.nodes[name].store.checkpoint()
        except CrashError:
            self._node_died(name)
            raise SourceUnavailableError(
                f"coordinator {name} died mid-checkpoint"
            ) from None

    # -- the read path -------------------------------------------------------

    def readable_sources(self) -> list[NetmarkSource]:
        """One federation source per live, in-sync, un-quarantined node,
        in stable name order (the balancer's rotation domain)."""
        sources: list[NetmarkSource] = []
        for name in self.network.nodes:
            node = self.nodes[name]
            if not self.network.alive(name) or node.quarantine is not None:
                continue
            if node.store is not None:
                sources.append(NetmarkSource(name, node.store))
            elif node.replica is not None and node.in_sync:
                sources.append(NetmarkSource(name, node.replica.store))
        return sources

    def search(self, query: str) -> list[SectionMatch]:
        """Answer a read from one replica, rotating across the in-sync
        membership; fails over replica-by-replica before giving up."""
        matches, _served_by = self.balancer.execute(
            query, self.readable_sources()
        )
        return matches

    # -- internals -----------------------------------------------------------

    def _shipper(self) -> LogShipper:
        assert self.coordinator is not None
        return LogShipper(
            self.nodes[self.coordinator].device,
            component=self.coordinator,
        )

    def _note_lag(self) -> None:
        for name, lag in self.replication_lag().items():
            obs.set_gauge(
                "repro_cluster_replication_lag", lag, replica=name
            )


class NodeView:
    """One node's membership view, duck-typed for the HTTP layer.

    ``api.cluster`` wants three things and no imports: the node's
    current role, the coordinator's name (for redirects), and the
    membership table (for ``GET /cluster``).
    """

    def __init__(self, cluster: NetmarkCluster, name: str) -> None:
        self._cluster = cluster
        self.name = name

    @property
    def role(self) -> str:
        return self._cluster.role_of(self.name)

    @property
    def coordinator(self) -> str | None:
        return self._cluster.coordinator

    @property
    def is_coordinator(self) -> bool:
        return (
            self._cluster.coordinator == self.name
            and self._cluster.network.alive(self.name)
        )

    def describe(self) -> list[dict[str, str]]:
        return self._cluster.describe()
