"""The headline guarantee: no acknowledged ingest survives unreplicated.

These tests drive the same drills the failover benchmark publishes
numbers from (``tests/cluster/drills.py``): whole-node kill matrices over
every WAL append, a minority-coordinator partition, and read
availability through the balancer.
"""

import pytest

from repro.cluster import NetmarkCluster
from repro.errors import AllSourcesFailedError, NoQuorumError
from repro.query.engine import QueryEngine
from tests.cluster.drills import kill_matrix, partition_drill


class TestCoordinatorKillMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return kill_matrix("n1")

    def test_matrix_covers_every_append_twice(self, matrix):
        assert matrix.total_appends > 0
        assert len(matrix.points) + matrix.boot_deaths == 2 * matrix.total_appends
        # Only the first append (crash and torn) dies inside the
        # constructor; every later death must leave a cluster behind.
        assert matrix.boot_deaths == 2

    def test_zero_committed_ingest_loss(self, matrix):
        assert matrix.total_lost == 0

    def test_every_point_converges_fsck_clean(self, matrix):
        assert matrix.all_converged
        assert matrix.all_fsck_clean

    def test_failover_happens_within_the_detection_window(self, matrix):
        assert matrix.points, "matrix must include post-boot kill points"
        # Detection + election never exceeds timeout + supervision slack.
        assert matrix.max_failover_ticks <= 3 + 2

    def test_workload_completes_after_every_kill(self, matrix):
        for point in matrix.points:
            assert point.acked == matrix.baseline_acked
            assert point.winner is not None


class TestFollowerKillMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return kill_matrix("n2")

    def test_matrix_covers_every_append_twice(self, matrix):
        assert matrix.total_appends > 0
        assert len(matrix.points) + matrix.boot_deaths == 2 * matrix.total_appends
        assert matrix.boot_deaths == 2

    def test_follower_death_never_costs_an_ack(self, matrix):
        assert matrix.total_lost == 0
        assert matrix.all_converged
        assert matrix.all_fsck_clean

    def test_no_election_is_needed(self, matrix):
        assert matrix.max_failover_ticks == 0


class TestPartitionDrill:
    def test_minority_coordinator_steps_down_without_loss(self):
        drill = partition_drill()
        assert drill.demoted == "n1"
        assert drill.winner not in (None, drill.demoted)
        assert drill.refused_in_minority >= 1
        assert drill.survey.lost == 0
        assert drill.survey.converged
        assert drill.survey.fsck_clean


class TestReadAvailability:
    def test_reads_survive_follower_death(self):
        cluster = NetmarkCluster(["n1", "n2", "n3"])
        cluster.ingest("a.md", "# A\n\nalpha\n")
        cluster.kill("n3")
        for _ in range(4):  # full rotation over the survivors
            assert len(cluster.search("content=alpha")) == 1

    def test_reads_survive_coordinator_death_after_failover(self):
        cluster = NetmarkCluster(["n1", "n2", "n3"], heartbeat_timeout=2)
        cluster.ingest("a.md", "# A\n\nalpha\n")
        cluster.kill("n1")
        cluster.tick(4)
        assert len(cluster.search("content=alpha")) == 1

    def test_a_surviving_follower_names_a_reused_doc_id_afresh(self):
        """A new coordinator resumes doc ids past the highest it stores,
        so after the old one deleted its newest document the id comes
        back for another; a follower that served the deleted one still
        names the new one right."""
        cluster = NetmarkCluster(["n1", "n2", "n3"], heartbeat_timeout=2)
        cluster.ingest("a.md", "# A\n\nalpha\n")
        cluster.ingest("b.md", "# B\n\nbeta\n")
        doomed = cluster.nodes["n1"].store.lookup_by_name("b.md").doc_id
        for name in ("n2", "n3"):
            [match] = QueryEngine(cluster.nodes[name].replica.store).execute("Content=beta").matches
            assert match.file_name == "b.md"
        cluster.nodes["n1"].store.delete_document(doomed)
        for name in ("n2", "n3"):
            cluster.catch_up(name)
        cluster.kill("n1")
        cluster.tick(4)
        assert cluster.ingest("c.md", "# C\n\nbeta gamma\n").doc_id == doomed
        [follower] = [name for name in ("n2", "n3") if name != cluster.coordinator]
        cluster.catch_up(follower)
        store = cluster.nodes[follower].replica.store
        [match] = QueryEngine(store).execute("Content=beta").matches
        assert (match.doc_id, match.file_name) == (doomed, "c.md")
        assert store.describe(doomed).file_name == "c.md"

    def test_balancer_rotates_across_replicas(self):
        cluster = NetmarkCluster(["n1", "n2", "n3"])
        cluster.ingest("a.md", "# A\n\nalpha\n")
        served = set()
        for _ in range(3):
            cluster.search("content=alpha")
            served.add(cluster.balancer.last_served_by)
        assert served == {"n1", "n2", "n3"}

    def test_no_replicas_is_a_clean_outage(self):
        cluster = NetmarkCluster(["n1", "n2"])
        cluster.kill("n1")
        cluster.kill("n2")
        with pytest.raises(AllSourcesFailedError, match="no source answered"):
            cluster.search("content=anything")


class TestWritePath:
    def test_quorum_is_checked_before_the_write(self):
        cluster = NetmarkCluster(["n1", "n2", "n3"])
        cluster.kill("n2")
        cluster.kill("n3")
        with pytest.raises(NoQuorumError):
            cluster.ingest("a.md", "# A\n\nalpha\n")
        # The refused write is nowhere: not on the ledger, not in the store.
        assert cluster.ledger == []
        assert cluster.nodes["n1"].store.lookup_by_name("a.md") is None

    def test_revived_ex_coordinator_needs_full_resync(self):
        cluster = NetmarkCluster(["n1", "n2", "n3"], heartbeat_timeout=2)
        cluster.ingest("a.md", "# A\n\nalpha\n")
        cluster.kill("n1")
        cluster.tick(4)
        cluster.ingest("b.md", "# B\n\nbeta\n")
        cluster.revive("n1")
        assert cluster.nodes["n1"].needs_resync
        cluster.catch_up("n1")
        dumps = cluster.dumps()
        assert len(dumps) == 3 and len(set(dumps.values())) == 1

    def test_receipts_name_their_witnesses(self):
        cluster = NetmarkCluster(["n1", "n2", "n3"])
        cluster.kill("n3")
        receipt = cluster.ingest("a.md", "# A\n\nalpha\n")
        assert receipt.witnesses == ("n1", "n2")
        assert receipt.coordinator == "n1"
