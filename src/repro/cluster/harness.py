"""Failover scenario drivers shared by the cluster tests and benchmarks.

Two drills, both deterministic (logical clock, seeded fault plans, no
wall time), both assessed the same way:

* :func:`coordinator_kill_matrix` / :func:`follower_kill_matrix` —
  crash-point enumeration in the spirit of
  :func:`repro.resilience.crashpoints.crash_matrix`, lifted to a whole
  node: kill it at *every* WAL append of its device, once per fault
  kind, and after each death check the universal property — the cluster
  re-elects, every surviving replica converges to byte-identical state,
  and **no ledger-acknowledged ingest is lost**.
* :func:`partition_drill` — split a five-node cluster so the coordinator
  lands in the minority: it must self-demote, the majority must elect,
  the minority must refuse writes, and healing must reconverge everyone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import (
    CrashError,
    NoQuorumError,
    SourceUnavailableError,
)
from repro.ordbms.wal import MemoryLogDevice, parse_log
from repro.resilience.faults import FaultPlan
from repro.store.fsck import check_store

from repro.cluster.cluster import NetmarkCluster

#: Default workload: enough documents that replication, catch-up and
#: re-election all happen mid-stream, small enough to enumerate fully.
DOCS: tuple[tuple[str, str], ...] = (
    ("memo.md", "# Memo\n\nShip the failover matrix.\n"),
    ("notes.md", "# Notes\n\n- elections\n- shipping\n"),
    ("plan.md", "# Plan\n\nKill, elect, converge.\n"),
)

DEFAULT_NODES = ("n1", "n2", "n3")


class _CountingDevice:
    """Pass-through device wrapper that counts appends."""

    def __init__(self, target: Any) -> None:
        self.target = target
        self.appends = 0

    def append(self, data: str) -> None:
        self.appends += 1
        self.target.append(data)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.target, name)


@dataclass(frozen=True)
class DriveReport:
    """What one workload drive observed."""

    acked: int
    refusals: int
    #: Replication gap the moment the faulted node died (durable records
    #: on its device that no surviving replica had acked), or None if it
    #: never died while coordinating.
    lag_at_kill: int | None


@dataclass(frozen=True)
class FailoverPoint:
    """One scripted node death and its aftermath."""

    index: int  # 1-based device append that faulted
    kind: str  # "crash" or "torn"
    died_at_boot: bool  # the fault fired before the cluster existed
    acked: int  # ledger length once the workload finished
    lost: int  # acked ingests missing afterwards — MUST be 0
    converged: bool  # all live dumps byte-identical
    fsck_clean: bool  # every live store passes fsck
    failover_ticks: int  # death -> new coordinator (0 = no election)
    lag_at_kill: int | None
    winner: str | None  # coordinator after the dust settled


@dataclass(frozen=True)
class FailoverMatrix:
    """Everything one kill-matrix run produced."""

    faulted: str
    total_appends: int
    baseline_acked: int
    points: tuple[FailoverPoint, ...]

    @property
    def total_lost(self) -> int:
        return sum(point.lost for point in self.points)

    @property
    def all_converged(self) -> bool:
        return all(p.converged for p in self.points if not p.died_at_boot)

    @property
    def all_fsck_clean(self) -> bool:
        return all(p.fsck_clean for p in self.points if not p.died_at_boot)

    @property
    def max_failover_ticks(self) -> int:
        return max(
            (point.failover_ticks for point in self.points), default=0
        )


def drive_ingest(
    cluster: NetmarkCluster,
    documents: Sequence[tuple[str, str]] = DOCS,
    faulted: str | None = None,
    retries: int = 8,
) -> DriveReport:
    """Push the workload through, retrying around deaths and elections.

    A client loop: each refused ingest waits out a failure-detection
    window (ticking the cluster) and retries; an ingest that keeps
    failing is abandoned — what matters is that everything the ledger
    *acknowledged* survives.
    """
    refusals = 0
    lag_at_kill: int | None = None
    for file_name, content in documents:
        for _attempt in range(retries):
            try:
                cluster.ingest(file_name, content)
                break
            except SourceUnavailableError:
                refusals += 1
                if lag_at_kill is None and faulted is not None:
                    lag_at_kill = _death_gap(cluster, faulted)
                cluster.tick(cluster.heartbeat_timeout + 2)
            except NoQuorumError:
                refusals += 1
                cluster.tick(cluster.heartbeat_timeout + 2)
        cluster.tick(1)
    return DriveReport(
        acked=len(cluster.ledger),
        refusals=refusals,
        lag_at_kill=lag_at_kill,
    )


def _death_gap(cluster: NetmarkCluster, dead: str) -> int:
    """Durable records on the dead node's device beyond the highest
    surviving ack — the suffix failover is allowed to discard (none of
    it was ever acknowledged to a client)."""
    records, _torn = parse_log(cluster.nodes[dead].device.read_log())
    dead_last = records[-1].lsn if records else 0
    surviving = max(
        (
            node.acked_lsn
            for name, node in cluster.nodes.items()
            if name != dead and cluster.network.alive(name)
        ),
        default=0,
    )
    return max(0, dead_last - surviving)


def _settle(cluster: NetmarkCluster, faulted: str) -> None:
    """Re-elect, revive the victim, and bring every survivor in sync."""
    budget = 20 * (cluster.heartbeat_timeout + 2)
    while cluster.coordinator is None and budget > 0:
        cluster.tick(1)
        budget -= 1
    if not cluster.network.alive(faulted):
        cluster.revive(faulted)
    if cluster.coordinator is not None:
        for name in cluster.network.nodes:
            node = cluster.nodes[name]
            if (
                name == cluster.coordinator
                or not cluster.network.alive(name)
                or node.quarantine is not None
            ):
                continue
            cluster.catch_up(name)


def _assess(
    cluster: NetmarkCluster,
    index: int,
    kind: str,
    drive: DriveReport,
    faulted: str,
) -> FailoverPoint:
    _settle(cluster, faulted)
    missing = 0
    for receipt in cluster.ledger:
        for name, node in cluster.nodes.items():
            store = None
            if node.store is not None:
                store = node.store
            elif node.replica is not None and node.quarantine is None:
                store = node.replica.store
            if store is None:
                continue
            if store.lookup_by_name(receipt.file_name) is None:
                missing += 1
    dumps = list(cluster.dumps().values())
    converged = len(dumps) >= 2 and len(set(dumps)) == 1
    fsck_clean = True
    for name, node in cluster.nodes.items():
        database = None
        if node.store is not None:
            database = node.store.database
        elif node.replica is not None and node.quarantine is None:
            database = node.replica.database
        if database is not None and not check_store(database).ok:
            fsck_clean = False
    kill_tick = next(
        (
            event.tick
            for event in cluster.network.events
            if event.kind == "node-kill"
        ),
        None,
    )
    failover_ticks = 0
    if kill_tick is not None:
        election_tick = next(
            (
                record.tick
                for record in cluster.elections
                if record.tick >= kill_tick
            ),
            None,
        )
        if election_tick is not None:
            failover_ticks = election_tick - kill_tick
    return FailoverPoint(
        index=index,
        kind=kind,
        died_at_boot=False,
        acked=drive.acked,
        lost=missing,
        converged=converged,
        fsck_clean=fsck_clean,
        failover_ticks=failover_ticks,
        lag_at_kill=drive.lag_at_kill,
        winner=cluster.coordinator,
    )


def _kill_matrix(
    faulted: str,
    documents: Sequence[tuple[str, str]],
    kinds: Sequence[str],
    nodes: Sequence[str],
    heartbeat_timeout: int,
) -> FailoverMatrix:
    counter = _CountingDevice(MemoryLogDevice())
    baseline = NetmarkCluster(
        list(nodes),
        heartbeat_timeout=heartbeat_timeout,
        devices={faulted: counter},
    )
    base_drive = drive_ingest(baseline, documents)
    component = f"wal-{faulted}"
    points: list[FailoverPoint] = []
    for kind in kinds:
        for index in range(1, counter.appends + 1):
            plan = FaultPlan()
            plan.fail(
                component, "append", kind=kind, after=index - 1, times=1
            )
            device = plan.wrap_log_device(MemoryLogDevice(), component)
            try:
                cluster = NetmarkCluster(
                    list(nodes),
                    heartbeat_timeout=heartbeat_timeout,
                    devices={faulted: device},
                )
            except CrashError:
                # Death during bootstrap: no cluster, no ledger, nothing
                # to lose.  Recorded so the matrix width stays honest.
                points.append(
                    FailoverPoint(
                        index=index, kind=kind, died_at_boot=True,
                        acked=0, lost=0, converged=True, fsck_clean=True,
                        failover_ticks=0, lag_at_kill=None, winner=None,
                    )
                )
                continue
            drive = drive_ingest(cluster, documents, faulted=faulted)
            points.append(_assess(cluster, index, kind, drive, faulted))
    return FailoverMatrix(
        faulted=faulted,
        total_appends=counter.appends,
        baseline_acked=base_drive.acked,
        points=tuple(points),
    )


def coordinator_kill_matrix(
    documents: Sequence[tuple[str, str]] = DOCS,
    kinds: Sequence[str] = ("crash", "torn"),
    nodes: Sequence[str] = DEFAULT_NODES,
    heartbeat_timeout: int = 3,
) -> FailoverMatrix:
    """Kill the initial coordinator at every append of its device."""
    return _kill_matrix(nodes[0], documents, kinds, nodes, heartbeat_timeout)


def follower_kill_matrix(
    documents: Sequence[tuple[str, str]] = DOCS,
    kinds: Sequence[str] = ("crash", "torn"),
    nodes: Sequence[str] = DEFAULT_NODES,
    heartbeat_timeout: int = 3,
) -> FailoverMatrix:
    """Kill one follower at every append of its device (no election —
    the write path survives on the remaining majority)."""
    return _kill_matrix(nodes[1], documents, kinds, nodes, heartbeat_timeout)


# ---------------------------------------------------------------------------
# Partition drill
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionDrill:
    """What the minority-coordinator partition exercise observed."""

    demoted: str
    winner: str | None
    refused_in_minority: int
    acked_total: int
    lost: int
    converged: bool
    fsck_clean: bool
    failover_ticks: int


def partition_drill(
    documents: Sequence[tuple[str, str]] = DOCS,
    heartbeat_timeout: int = 2,
) -> PartitionDrill:
    """Partition a 5-node cluster so the coordinator is in the minority.

    The coordinator must refuse writes (quorum pre-check), self-demote,
    and the majority side must elect a replacement; after healing, every
    node reconverges and nothing acknowledged is lost.
    """
    names = ["n1", "n2", "n3", "n4", "n5"]
    cluster = NetmarkCluster(names, heartbeat_timeout=heartbeat_timeout)
    cluster.tick(1)
    first = cluster.coordinator
    assert first is not None
    cluster.ingest(*documents[0])
    cluster.tick(1)
    minority = [first, _other(names, first)]
    majority = [name for name in names if name not in minority]
    cluster.partition(minority, majority)
    partition_tick = cluster.clock.now()
    refused = 0
    try:
        cluster.ingest("minority.md", "# Never\n\nMust not commit.\n")
    except NoQuorumError:
        refused += 1
    cluster.tick(heartbeat_timeout + 2)
    winner = cluster.coordinator
    failover_ticks = (
        cluster.elections[-1].tick - partition_tick
        if cluster.elections
        else 0
    )
    for file_name, content in documents[1:]:
        cluster.ingest(file_name, content)
        cluster.tick(1)
    cluster.heal()
    cluster.tick(heartbeat_timeout + 2)
    for name in names:
        if name != cluster.coordinator and not cluster.nodes[name].in_sync:
            cluster.catch_up(name)
    missing = sum(
        1
        for receipt in cluster.ledger
        for node in cluster.nodes.values()
        if (node.store or (node.replica.store if node.replica else None))
        and (node.store or node.replica.store).lookup_by_name(
            receipt.file_name
        )
        is None
    )
    dumps = list(cluster.dumps().values())
    fsck_clean = all(
        check_store(
            (node.store or node.replica.store).database
        ).ok
        for node in cluster.nodes.values()
        if node.store is not None or node.replica is not None
    )
    return PartitionDrill(
        demoted=first,
        winner=winner,
        refused_in_minority=refused,
        acked_total=len(cluster.ledger),
        lost=missing,
        converged=len(dumps) == len(names) and len(set(dumps)) == 1,
        fsck_clean=fsck_clean,
        failover_ticks=failover_ticks,
    )


def _other(names: Sequence[str], taken: str) -> str:
    return next(name for name in names if name != taken)


__all__ = [
    "DOCS",
    "DriveReport",
    "FailoverMatrix",
    "FailoverPoint",
    "PartitionDrill",
    "coordinator_kill_matrix",
    "drive_ingest",
    "follower_kill_matrix",
    "partition_drill",
]
