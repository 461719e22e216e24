"""WAL edge cases that only shipping exposes.

Three corners of the durability contract, now reachable from a second
machine's perspective: a follower's torn tail (it died mid-batch), a
follower's mid-log corruption (its disk went bad — quarantine, don't
crash the cluster), and catch-up idempotence across a coordinator
checkpoint.
"""

import pytest

from repro.cluster import FollowerReplica, NetmarkCluster
from repro.errors import (
    CorruptLogError,
    CrashError,
    ReplicaQuarantinedError,
)
from repro.ordbms.wal import MemoryLogDevice, parse_log
from repro.resilience import FaultPlan


class TestTornTailAtFollower:
    def test_follower_killed_mid_batch_recovers_to_durable_prefix(self):
        plan = FaultPlan()
        device = plan.wrap_log_device(MemoryLogDevice(), "wal-n2")
        cluster = NetmarkCluster(
            ["n1", "n2", "n3"], devices={"n2": device}
        )
        cluster.ingest("a.md", "# A\n\nalpha\n")
        acked = cluster.nodes["n2"].acked_lsn
        # The next shipped append tears: half a record reaches the disk.
        plan.fail("wal-n2", "append", kind="torn", times=1)
        cluster.ingest("b.md", "# B\n\nbeta\n")  # n2 dies mid-batch
        assert not cluster.network.alive("n2")
        _, torn = parse_log(device.read_log())
        assert torn is not None
        cluster.revive("n2")
        replica = cluster.nodes["n2"].replica
        assert replica is not None and replica.torn_tail
        assert replica.acked_lsn == acked  # trimmed to the durable prefix
        cluster.catch_up("n2")
        dumps = cluster.dumps()
        assert len(dumps) == 3 and len(set(dumps.values())) == 1

    def test_torn_tail_records_are_reshipped_not_doubled(self):
        plan = FaultPlan()
        device = plan.wrap_log_device(MemoryLogDevice(), "wal-n2")
        cluster = NetmarkCluster(
            ["n1", "n2", "n3"], devices={"n2": device}
        )
        # Tear partway into the first shipped batch (rules count from
        # installation, so bootstrap appends are not affected).
        plan.fail("wal-n2", "append", kind="torn", after=1, times=1)
        cluster.ingest("a.md", "# A\n\nalpha\n")
        cluster.revive("n2")
        cluster.catch_up("n2")
        records, torn = parse_log(device.read_log())
        assert torn is None
        lsns = [record.lsn for record in records]
        assert lsns == sorted(set(lsns))  # no duplicate appends


class TestQuarantine:
    def corrupt_mid_log(self, device):
        """Damage an early record while leaving the tail intact: the
        checkpoint marker, with the ingest's one record after it."""
        lines = device.read_log().splitlines(keepends=True)
        assert len(lines) >= 2
        lines[0] = lines[0].replace("|", "!", 1)
        device.truncate_log()
        for line in lines:
            device.append(line)

    def test_corrupt_replica_is_quarantined_not_fatal(self):
        cluster = NetmarkCluster(["n1", "n2", "n3"])
        cluster.ingest("a.md", "# A\n\nalpha\n")
        cluster.kill("n2")
        self.corrupt_mid_log(cluster.nodes["n2"].device)
        cluster.revive("n2")  # reopen hits CorruptLogError
        assert cluster.nodes["n2"].quarantine is not None
        assert cluster.role_of("n2") == "quarantined"
        assert cluster.stats.quarantines == 1
        # The cluster keeps serving reads and writes around it.
        cluster.ingest("b.md", "# B\n\nbeta\n")
        assert len(cluster.search("content=beta")) == 1

    def test_quarantined_replica_rejects_catch_up(self):
        cluster = NetmarkCluster(["n1", "n2", "n3"])
        cluster.ingest("a.md", "# A\n\nalpha\n")
        cluster.kill("n2")
        self.corrupt_mid_log(cluster.nodes["n2"].device)
        cluster.revive("n2")
        with pytest.raises(ReplicaQuarantinedError, match="rejoin"):
            cluster.catch_up("n2")

    def test_rejoin_replaces_the_corrupt_log_wholesale(self):
        cluster = NetmarkCluster(["n1", "n2", "n3"])
        cluster.ingest("a.md", "# A\n\nalpha\n")
        cluster.kill("n2")
        self.corrupt_mid_log(cluster.nodes["n2"].device)
        cluster.revive("n2")
        cluster.rejoin("n2")
        assert cluster.nodes["n2"].quarantine is None
        assert cluster.nodes["n2"].in_sync
        dumps = cluster.dumps()
        assert len(dumps) == 3 and len(set(dumps.values())) == 1
        # The replaced log parses cleanly again.
        records, torn = parse_log(cluster.nodes["n2"].device.read_log())
        assert torn is None

    def test_quarantined_node_cannot_win_elections(self):
        cluster = NetmarkCluster(["n1", "n2", "n3"], heartbeat_timeout=2)
        cluster.ingest("a.md", "# A\n\nalpha\n")
        cluster.kill("n2")
        self.corrupt_mid_log(cluster.nodes["n2"].device)
        cluster.revive("n2")
        assert cluster.nodes["n2"].quarantine is not None
        cluster.kill("n1")
        cluster.tick(4)
        assert cluster.coordinator == "n3"


class TestCheckpointIdempotentCatchUp:
    def test_catch_up_after_checkpoint_is_idempotent(self):
        cluster = NetmarkCluster(["n1", "n2", "n3"])
        cluster.ingest("a.md", "# A\n\nalpha\n")
        cluster.kill("n2")
        cluster.ingest("b.md", "# B\n\nbeta\n")
        cluster.checkpoint()
        cluster.revive("n2")
        first = cluster.catch_up("n2")
        second = cluster.catch_up("n2")  # nothing new: same ack, no churn
        assert first == second
        dumps = cluster.dumps()
        assert len(dumps) == 3 and len(set(dumps.values())) == 1

    def test_direct_overlap_reapply_is_a_no_op(self):
        cluster = NetmarkCluster(["n1", "n2", "n3"])
        cluster.ingest("a.md", "# A\n\nalpha\n")
        shipper = cluster._shipper()
        replica = cluster.nodes["n2"].replica
        before = replica.dump()
        replica.apply_batch(shipper.batch_after(0))  # full overlap
        assert replica.dump() == before

    def test_follower_compaction_survives_reopen(self):
        cluster = NetmarkCluster(["n1", "n2", "n3"])
        cluster.ingest("a.md", "# A\n\nalpha\n")
        node = cluster.nodes["n2"]
        node.replica.compact()
        reopened = FollowerReplica("n2", node.device)
        assert reopened.dump() == cluster.nodes["n1"].store.dump()


class TestCrashErrorStaysFatalOutsideTheCluster:
    def test_raw_store_still_dies_on_injected_crash(self):
        """CrashError models SIGKILL: only NetmarkCluster (the OS
        stand-in) may catch it.  A bare store must not survive it."""
        plan = FaultPlan()
        device = plan.wrap_log_device(MemoryLogDevice(), "wal")
        from repro.sgml.config import DEFAULT_CONFIG
        from repro.store.xmlstore import XmlStore

        store = XmlStore.open(device, DEFAULT_CONFIG)
        plan.fail("wal", "append", kind="crash", times=1)
        with pytest.raises(CrashError):
            store.store_text("# A\n\nalpha\n", "a.md")

    def test_corrupt_log_error_propagates_from_bare_replica(self):
        cluster = NetmarkCluster(["n1", "n2"])
        cluster.ingest("a.md", "# A\n\nalpha\n")
        device = cluster.nodes["n2"].device
        lines = device.read_log().splitlines(keepends=True)
        lines[0] = lines[0].replace("|", "!", 1)
        device.truncate_log()
        for line in lines:
            device.append(line)
        with pytest.raises(CorruptLogError):
            FollowerReplica("n2", device)
