"""Crash matrix — kill the store at every WAL write and recover.

The durability claim behind DESIGN.md §9: wherever the process dies, a
reopen lands on a transaction boundary — the store either holds a
document completely or not at all, with physical ROWIDs preserved — and
the recovered store passes a full fsck.  This bench runs a small ingest
workload once per (fault kind × WAL append) and reports the matrix; the
fsck report of the last recovered store lands in the JSON artifact so CI
can archive it.

The cluster half (DESIGN.md §12) lifts the same idea to whole nodes:
kill the coordinator or a follower at every append of its device and
drive a network partition through an election — reporting failover
ticks, replication lag at the kill, and the committed-ingest loss count
(which must be zero, everywhere, always) into
``BENCH_cluster_failover.json``.
"""

from conftest import print_table, write_artifact

from repro.cluster.harness import (
    coordinator_kill_matrix,
    follower_kill_matrix,
    partition_drill,
)
from repro.ordbms import MemoryLogDevice
from repro.resilience import crash_matrix
from repro.store import XmlStore, check_store

DOCS = (
    ("memo.md", "# Memo\n\nShip the crash matrix.\n"),
    ("notes.md", "# Notes\n\n- torn tails\n- losers\n"),
    ("plan.md", "# Plan\n\nRecover, then verify.\n"),
)


def observable_state(store: XmlStore) -> tuple:
    """What a client can see: the catalog plus total live node count."""
    catalog = tuple(
        (entry.doc_id, entry.file_name) for entry in store.documents()
    )
    return (catalog, store.node_count)


def test_report_crash_matrix(benchmark):
    def report():
        boundaries: list[tuple] = []

        def run(device):
            store = XmlStore.open(device)
            boundaries.append(observable_state(store))
            for name, text in DOCS:
                store.store_text(text, name)
                boundaries.append(observable_state(store))

        matrix = crash_matrix(MemoryLogDevice, run)
        per_kind: dict[str, dict[str, int]] = {}
        last_report = None
        for point in matrix.points:
            tally = per_kind.setdefault(
                point.kind, {"points": 0, "boundary": 0, "fsck_clean": 0}
            )
            tally["points"] += 1
            assert point.crashed, (
                f"append {point.index} ({point.kind}) did not crash"
            )
            recovered = XmlStore.open(point.device)
            if observable_state(recovered) in boundaries:
                tally["boundary"] += 1
            last_report = check_store(recovered.database)
            if last_report.ok:
                tally["fsck_clean"] += 1
        print_table(
            f"Crash matrix: {matrix.total_appends} WAL appends x "
            f"{len(per_kind)} fault kinds",
            ["kind", "crash points", "at a boundary", "fsck clean"],
            [
                [kind, t["points"], t["boundary"], t["fsck_clean"]]
                for kind, t in sorted(per_kind.items())
            ],
        )
        write_artifact(
            "BENCH_crash_matrix.json",
            "crash_matrix",
            {
                "documents": len(DOCS),
                "wal_appends": matrix.total_appends,
                "boundaries": len(boundaries),
                "kinds": {
                    kind: tally for kind, tally in sorted(per_kind.items())
                },
                "last_fsck_report": (
                    last_report.as_dict() if last_report else None
                ),
            },
        )
        # The property itself: every crash point recovered to a boundary
        # and every recovered store is internally consistent.
        for kind, tally in per_kind.items():
            assert tally["boundary"] == tally["points"], kind
            assert tally["fsck_clean"] == tally["points"], kind

    benchmark.pedantic(report, rounds=1, iterations=1)


def test_report_no_fault_baseline(benchmark):
    def report():
        def run(device):
            store = XmlStore.open(device)
            for name, text in DOCS:
                store.store_text(text, name)

        matrix = crash_matrix(MemoryLogDevice, run, kinds=())
        reopened = XmlStore.open(matrix.baseline.target)
        report_ = check_store(reopened.database)
        print_table(
            "Crash matrix baseline: clean run, clean reopen",
            ["wal appends", "documents", "nodes", "fsck"],
            [[
                matrix.total_appends,
                len(reopened),
                reopened.node_count,
                "clean" if report_.ok else "VIOLATIONS",
            ]],
        )
        write_artifact(
            "BENCH_crash_matrix.json",
            "baseline",
            {
                "wal_appends": matrix.total_appends,
                "documents": len(reopened),
                "nodes": reopened.node_count,
                "fsck_ok": report_.ok,
            },
        )
        assert len(reopened) == len(DOCS)
        assert report_.ok

    benchmark.pedantic(report, rounds=1, iterations=1)


def _failover_section(matrix) -> dict:
    """The gated summary of one node-kill matrix (all work counters)."""
    survived = [p for p in matrix.points if not p.died_at_boot]
    lags = [p.lag_at_kill for p in survived if p.lag_at_kill is not None]
    return {
        "device_appends": matrix.total_appends,
        "kill_points": len(matrix.points),
        "boot_kills": len(matrix.points) - len(survived),
        "acked_per_run": matrix.baseline_acked,
        "lost_total": matrix.total_lost,
        "all_converged": matrix.all_converged,
        "all_fsck_clean": matrix.all_fsck_clean,
        "max_failover_ticks": matrix.max_failover_ticks,
        "max_lag_at_kill": max(lags) if lags else 0,
    }


def test_report_cluster_failover_matrix(benchmark):
    """Kill a whole node at every WAL append; nothing acked may vanish."""

    def report():
        coordinator = coordinator_kill_matrix()
        follower = follower_kill_matrix()
        rows = []
        for label, matrix in (
            ("coordinator", coordinator),
            ("follower", follower),
        ):
            section = _failover_section(matrix)
            rows.append(
                [
                    label,
                    section["kill_points"],
                    section["lost_total"],
                    "yes" if section["all_converged"] else "NO",
                    "yes" if section["all_fsck_clean"] else "NO",
                    section["max_failover_ticks"],
                    section["max_lag_at_kill"],
                ]
            )
        print_table(
            "Cluster failover matrix: node killed at every device append",
            [
                "victim", "kill points", "acked lost", "converged",
                "fsck clean", "max failover ticks", "max lag at kill",
            ],
            rows,
        )
        write_artifact(
            "BENCH_cluster_failover.json",
            "node_kill",
            {
                "coordinator": _failover_section(coordinator),
                "follower": _failover_section(follower),
            },
        )
        # The headline guarantee, asserted over every kill point.
        assert coordinator.total_lost == 0
        assert follower.total_lost == 0
        assert coordinator.all_converged and follower.all_converged
        assert coordinator.all_fsck_clean and follower.all_fsck_clean
        # Follower deaths never trigger elections.
        assert follower.max_failover_ticks == 0

    benchmark.pedantic(report, rounds=1, iterations=1)


def test_report_cluster_partition(benchmark):
    """Minority-coordinator partition: demote, elect, refuse, reconverge."""

    def report():
        drill = partition_drill()
        print_table(
            "Partition drill: coordinator isolated in the minority",
            [
                "demoted", "winner", "refused in minority", "acked",
                "lost", "converged", "failover ticks",
            ],
            [[
                drill.demoted,
                drill.winner,
                drill.refused_in_minority,
                drill.acked_total,
                drill.lost,
                "yes" if drill.converged else "NO",
                drill.failover_ticks,
            ]],
        )
        write_artifact(
            "BENCH_cluster_failover.json",
            "partition",
            {
                "demoted": drill.demoted,
                "winner": drill.winner,
                "refused_in_minority": drill.refused_in_minority,
                "acked_total": drill.acked_total,
                "lost": drill.lost,
                "converged": drill.converged,
                "fsck_clean": drill.fsck_clean,
                "failover_ticks": drill.failover_ticks,
            },
        )
        assert drill.lost == 0 and drill.converged and drill.fsck_clean

    benchmark.pedantic(report, rounds=1, iterations=1)


def test_bench_cluster_failover_cycle(benchmark):
    """Time one kill -> detect -> elect -> catch-up -> converge cycle."""
    from repro.cluster import NetmarkCluster

    def cycle():
        cluster = NetmarkCluster(["n1", "n2", "n3"], heartbeat_timeout=2)
        cluster.ingest("memo.md", DOCS[0][1])
        cluster.kill("n1")
        cluster.tick(4)
        cluster.ingest("plan.md", DOCS[2][1])
        cluster.revive("n1")
        cluster.catch_up("n1")
        return cluster

    cluster = benchmark(cycle)
    dumps = cluster.dumps()
    assert len(dumps) == 3 and len(set(dumps.values())) == 1


def test_bench_recovery_reopen(benchmark):
    """Time a reopen-with-recovery of the full workload's log."""
    device = MemoryLogDevice()
    store = XmlStore.open(device)
    for name, text in DOCS:
        store.store_text(text, name)
    log_text = device.read_log()
    checkpoint = device.load_checkpoint()

    def reopen():
        fresh = MemoryLogDevice()
        fresh.append(log_text)
        if checkpoint is not None:
            fresh.save_checkpoint(checkpoint)
        return XmlStore.open(fresh)

    recovered = benchmark(reopen)
    assert len(recovered) == len(DOCS)
