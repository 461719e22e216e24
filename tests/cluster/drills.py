"""Whole-node failover drills for the cluster tests and the failover bench.

Deterministic throughout (logical clock, seeded fault plans, no wall time).
:func:`kill_matrix` kills one node at every append of its device, once per
fault kind, on :func:`repro.resilience.crash_matrix`; :func:`partition_drill`
cuts the coordinator off in a minority.  Both end in one :func:`survey`.
``benchmarks/bench_crash_matrix.py`` loads this file by path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import NetmarkCluster
from repro.errors import CrashError, NoQuorumError, SourceUnavailableError
from repro.ordbms.wal import MemoryLogDevice, parse_log
from repro.resilience import crash_matrix
from repro.store.fsck import check_store

#: Enough documents that replication, catch-up and re-election all happen
#: mid-stream, few enough to enumerate every append.
DOCS = (
    ("memo.md", "# Memo\n\nShip the failover matrix.\n"),
    ("notes.md", "# Notes\n\n- elections\n- shipping\n"),
    ("plan.md", "# Plan\n\nKill, elect, converge.\n"),
)
NODES = ("n1", "n2", "n3")


@dataclass(frozen=True)
class Survey:
    """What every drill asks of the cluster once the dust settles."""

    lost: int  # acked ingests missing from some live store: MUST be 0
    converged: bool  # every node is live and dumps byte-identically
    fsck_clean: bool  # every live store passes fsck


def survey(cluster: NetmarkCluster) -> Survey:
    stores = []
    for node in cluster.nodes.values():
        if node.store is not None:
            stores.append(node.store)
        elif node.replica is not None and node.quarantine is None:
            stores.append(node.replica.store)
    dumps = list(cluster.dumps().values())
    return Survey(
        lost=sum(
            store.lookup_by_name(receipt.file_name) is None
            for receipt in cluster.ledger
            for store in stores
        ),
        converged=len(dumps) == len(cluster.nodes) and len(set(dumps)) == 1,
        fsck_clean=all(check_store(store.database).ok for store in stores),
    )


def drive_ingest(cluster: NetmarkCluster, victim: str) -> int | None:
    """Push :data:`DOCS` through as a client would, retrying around deaths
    and elections; an ingest that keeps failing is abandoned.

    Returns the replication gap the moment ``victim`` was found dead
    mid-ingest (None if it never was): the durable records on its device
    past the highest surviving ack, which failover may discard because
    none of them was acknowledged.
    """
    lag_at_kill = None
    for file_name, content in DOCS:
        for _attempt in range(8):
            try:
                cluster.ingest(file_name, content)
                break
            except SourceUnavailableError:
                if lag_at_kill is None:
                    records, _torn = parse_log(cluster.nodes[victim].device.read_log())
                    acks = [node.acked_lsn for name, node in cluster.nodes.items()
                            if name != victim and cluster.network.alive(name)]
                    last = records[-1].lsn if records else 0
                    lag_at_kill = max(0, last - max(acks, default=0))
            except NoQuorumError:
                pass
            cluster.tick(cluster.heartbeat_timeout + 2)
        cluster.tick(1)
    return lag_at_kill


@dataclass(frozen=True)
class FailoverPoint:
    """One node death after boot, and its aftermath."""

    acked: int  # ledger length once the workload finished
    failover_ticks: int  # death -> new coordinator (0 = no election)
    lag_at_kill: int | None
    winner: str | None  # coordinator once the dust settled
    survey: Survey


@dataclass(frozen=True)
class FailoverMatrix:
    """One kill matrix: its width, and every death that left a cluster."""

    total_appends: int
    baseline_acked: int
    boot_deaths: int  # the node died before the cluster existed
    points: tuple[FailoverPoint, ...]

    @property
    def total_lost(self) -> int:
        return sum(point.survey.lost for point in self.points)

    @property
    def all_converged(self) -> bool:
        return all(point.survey.converged for point in self.points)

    @property
    def all_fsck_clean(self) -> bool:
        return all(point.survey.fsck_clean for point in self.points)

    @property
    def max_failover_ticks(self) -> int:
        return max((point.failover_ticks for point in self.points), default=0)


def kill_matrix(victim: str) -> FailoverMatrix:
    """Kill ``victim`` (``n1`` coordinates) at every append of its device.
    Only a death in the constructor is a boot death: a built cluster must
    absorb every death, so a CrashError escaping the workload fails."""
    runs: list[tuple[NetmarkCluster, int | None] | None] = []

    def run(device) -> None:
        try:
            cluster = NetmarkCluster(list(NODES), heartbeat_timeout=3, devices={victim: device})
        except CrashError:
            runs.append(None)  # the node died at boot: no cluster, nothing to lose
            return
        try:
            runs.append((cluster, drive_ingest(cluster, victim)))
        except CrashError as error:
            raise AssertionError(f"a CrashError escaped the cluster ({victim} killed)") from error

    matrix = crash_matrix(MemoryLogDevice, run, component=f"wal-{victim}")
    (baseline, _), *killed = runs
    points = tuple(_aftermath(cluster, lag, victim) for cluster, lag in filter(None, killed))
    return FailoverMatrix(
        matrix.total_appends, len(baseline.ledger), len(killed) - len(points), points
    )


def _aftermath(cluster: NetmarkCluster, lag_at_kill: int | None, victim: str) -> FailoverPoint:
    """Re-elect, revive the victim, bring every survivor in sync, survey."""
    acked = len(cluster.ledger)
    for _ in range(20 * (cluster.heartbeat_timeout + 2)):
        if cluster.coordinator is not None:
            break
        cluster.tick(1)
    if not cluster.network.alive(victim):
        cluster.revive(victim)
    if cluster.coordinator is not None:
        for name in cluster.network.nodes:
            node = cluster.nodes[name]
            if name != cluster.coordinator and cluster.network.alive(name) and node.quarantine is None:
                cluster.catch_up(name)
    killed = next((e.tick for e in cluster.network.events if e.kind == "node-kill"), None)
    elected = next(
        (r.tick for r in cluster.elections if killed is not None and r.tick >= killed), None
    )
    return FailoverPoint(
        acked=acked,
        failover_ticks=0 if elected is None else elected - killed,
        lag_at_kill=lag_at_kill,
        winner=cluster.coordinator,
        survey=survey(cluster),
    )


@dataclass(frozen=True)
class PartitionDrill:
    """What the minority-coordinator partition observed."""

    demoted: str
    winner: str | None
    refused_in_minority: int
    acked_total: int
    failover_ticks: int
    survey: Survey


def partition_drill() -> PartitionDrill:
    """Partition five nodes so the coordinator and one peer are cut off.

    The coordinator must refuse writes (quorum pre-check) and step down,
    the majority must elect a replacement, and after healing every node
    reconverges with nothing acknowledged lost.
    """
    names = ["n1", "n2", "n3", "n4", "n5"]
    cluster = NetmarkCluster(names, heartbeat_timeout=2)
    cluster.tick(1)
    first = cluster.coordinator
    assert first is not None
    cluster.ingest(*DOCS[0])
    cluster.tick(1)
    minority = [first, next(name for name in names if name != first)]
    cluster.partition(minority, [name for name in names if name not in minority])
    partition_tick = cluster.clock.now()
    refused = 0
    try:
        cluster.ingest("minority.md", "# Never\n\nMust not commit.\n")
    except NoQuorumError:
        refused += 1
    cluster.tick(cluster.heartbeat_timeout + 2)
    winner = cluster.coordinator
    failover_ticks = cluster.elections[-1].tick - partition_tick if cluster.elections else 0
    for file_name, content in DOCS[1:]:
        cluster.ingest(file_name, content)
        cluster.tick(1)
    cluster.heal()
    cluster.tick(cluster.heartbeat_timeout + 2)
    for name in names:
        if name != cluster.coordinator and not cluster.nodes[name].in_sync:
            cluster.catch_up(name)
    return PartitionDrill(
        demoted=first,
        winner=winner,
        refused_in_minority=refused,
        acked_total=len(cluster.ledger),
        failover_ticks=failover_ticks,
        survey=survey(cluster),
    )
