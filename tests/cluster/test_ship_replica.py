"""WAL shipping and follower replicas: batches, bundles, idempotence."""

import pytest

from repro.cluster import FollowerReplica, LogShipper, NetmarkCluster
from repro.errors import ClusterError, TypeMismatchError
from repro.ordbms.wal import MemoryLogDevice, parse_log
from repro.query.cache import QueryCache
from repro.query.engine import QueryEngine
from repro.sgml.config import DEFAULT_CONFIG
from repro.sgml.dom import Document, Element, Text
from repro.sgml.serializer import serialize
from repro.store.xmlstore import XmlStore


def coordinator_rig():
    """A WAL-backed store plus a shipper over its device."""
    device = MemoryLogDevice()
    store = XmlStore.open(device, DEFAULT_CONFIG)
    return device, store, LogShipper(device)


class TestLogShipper:
    def test_bundle_carries_checkpoint_and_tail(self):
        device, store, shipper = coordinator_rig()
        store.store_text("# A\n\nalpha\n", "a.md")
        bundle = shipper.bundle()
        assert bundle.checkpoint_lsn >= 0
        assert bundle.last_lsn == store.database.wal.last_lsn
        assert len(bundle.tail) > 0

    def test_batch_after_ships_only_the_gap(self):
        device, store, shipper = coordinator_rig()
        store.store_text("# A\n\nalpha\n", "a.md")
        acked = store.database.wal.last_lsn
        store.store_text("# B\n\nbeta\n", "b.md")
        batch = shipper.batch_after(acked)
        assert batch.first_lsn == acked + 1
        assert batch.last_lsn == store.database.wal.last_lsn

    def test_cannot_tail_ship_below_checkpoint(self):
        device, store, shipper = coordinator_rig()
        store.store_text("# A\n\nalpha\n", "a.md")
        store.checkpoint()  # truncates the live log
        assert not shipper.can_ship_from(0)
        with pytest.raises(ClusterError):
            shipper.batch_after(0)


class TestFollowerReplica:
    def build_pair(self):
        device, store, shipper = coordinator_rig()
        follower = FollowerReplica.bootstrap(
            "f1", MemoryLogDevice(), shipper.bundle()
        )
        return store, shipper, follower

    def test_bootstrap_then_apply_converges(self):
        store, shipper, follower = self.build_pair()
        store.store_text("# A\n\nalpha\n", "a.md")
        follower.apply_batch(shipper.batch_after(follower.acked_lsn))
        assert follower.acked_lsn == store.database.wal.last_lsn
        assert follower.dump() == store.dump()
        assert follower.store.lookup_by_name("a.md") is not None

    def test_apply_is_idempotent_and_skips_overlap(self):
        store, shipper, follower = self.build_pair()
        store.store_text("# A\n\nalpha\n", "a.md")
        batch = shipper.batch_after(0)  # overlaps the bundled prefix
        before = follower.acked_lsn
        first = follower.apply_batch(batch)
        again = follower.apply_batch(batch)
        assert first == again == store.database.wal.last_lsn
        assert first > before
        # Re-applying appended nothing the second time.
        records, torn = parse_log(follower.device.read_log())
        assert torn is None
        lsns = [record.lsn for record in records]
        assert lsns == sorted(set(lsns))

    def test_acked_records_are_durable_on_the_follower(self):
        store, shipper, follower = self.build_pair()
        store.store_text("# A\n\nalpha\n", "a.md")
        follower.apply_batch(shipper.batch_after(follower.acked_lsn))
        # A fresh replica over the same device recovers to the same ack.
        reopened = FollowerReplica("f1", follower.device)
        assert reopened.acked_lsn == follower.acked_lsn
        assert reopened.dump() == follower.dump()

    def test_compact_folds_state_and_refuses_open_transactions(self):
        store, shipper, follower = self.build_pair()
        store.store_text("# A\n\nalpha\n", "a.md")
        follower.apply_batch(shipper.batch_after(follower.acked_lsn))
        covered = follower.compact()
        assert covered == follower.acked_lsn
        reopened = FollowerReplica("f1", follower.device)
        assert reopened.dump() == store.dump()

    def test_install_bundle_discards_divergent_history(self):
        store, shipper, follower = self.build_pair()
        store.store_text("# A\n\nalpha\n", "a.md")
        follower.apply_batch(shipper.batch_after(follower.acked_lsn))
        store.store_text("# B\n\nbeta\n", "b.md")
        store.checkpoint()  # follower's ack is now below the checkpoint
        assert not shipper.can_ship_from(follower.acked_lsn)
        follower.install_bundle(shipper.bundle())
        assert follower.dump() == store.dump()

    def test_cached_engine_equals_bare_after_shipped_writes(self):
        """Replay moves the commit LSN, so a result cached over a
        follower's store is stamped like one over the coordinator's: a
        cache-enabled engine equals a bare one after every kind of
        shipped write."""
        store, shipper, follower = self.build_pair()
        cached = QueryEngine(follower.store, cache=QueryCache())
        bare = QueryEngine(follower.store)
        queries = ("Content=alpha", "Context=A", "Context=A&Content=alpha")

        def ship_and_compare():
            before = follower.database.mvcc.lsn
            follower.apply_batch(shipper.batch_after(follower.acked_lsn))
            assert follower.database.mvcc.lsn > before
            answers = []
            for query in queries * 2:  # the second pass replays
                got = serialize(cached.execute(query).to_xml(), indent=2)
                assert got == serialize(bare.execute(query).to_xml(), indent=2)
                answers.append(got)
            return answers

        store.store_text("# A\n\nalpha one\n", "a.md")
        one = ship_and_compare()
        store.store_text("# A\n\nalpha two\n", "b.md")
        two = ship_and_compare()
        store.replace_text("# A\n\nalpha three, amended\n", "a.md")
        three = ship_and_compare()
        store.delete_document(store.lookup_by_name("b.md").doc_id)
        four = ship_and_compare()
        assert len({tuple(one), tuple(two), tuple(three), tuple(four)}) == 4
        assert cached.cache.snapshot_counters()["hits"] >= 4 * len(queries)

    def test_rollback_and_loser_discard_move_the_lsn_too(self):
        store, shipper, follower = self.build_pair()
        with pytest.raises(TypeMismatchError):
            root = Element("doc")
            root.append(Text(0))  # no CLOB column takes it: rollback
            store.store_document(Document(root, name="lost.xml"))
        before = follower.database.mvcc.lsn
        follower.apply_batch(shipper.batch_after(follower.acked_lsn))
        assert follower.replayer.transactions_rolled_back == 1
        assert follower.database.mvcc.lsn == before + 1
        # A shipped transaction still open at promotion is a loser.
        transaction = store.database.begin()
        store.database.insert(
            "DOC", {"DOC_ID": 99, "FILE_NAME": "open.md", "FORMAT": "md"}
        )
        follower.apply_batch(shipper.batch_after(follower.acked_lsn))
        assert follower.database.mvcc.lsn == before + 1  # not yet resolved
        assert follower.replayer.discard_in_flight() == (transaction.txid,)
        assert follower.database.mvcc.lsn == before + 2
        assert follower.replayer.discard_in_flight() == ()  # nothing undone:
        assert follower.database.mvcc.lsn == before + 2  # nothing published


class TestClusterReplication:
    def test_every_ack_is_on_every_in_sync_replica(self):
        cluster = NetmarkCluster(["n1", "n2", "n3"])
        receipt = cluster.ingest("a.md", "# A\n\nalpha\n")
        assert receipt.witnesses == ("n1", "n2", "n3")
        dumps = cluster.dumps()
        assert len(set(dumps.values())) == 1

    def test_replication_lag_is_zero_on_the_fast_path(self):
        cluster = NetmarkCluster(["n1", "n2", "n3"])
        cluster.ingest("a.md", "# A\n\nalpha\n")
        assert cluster.replication_lag() == {"n2": 0, "n3": 0}

    def test_checkpoint_forces_bundle_resync_for_lagging_node(self):
        cluster = NetmarkCluster(["n1", "n2", "n3"])
        cluster.ingest("a.md", "# A\n\nalpha\n")
        cluster.kill("n2")
        cluster.ingest("b.md", "# B\n\nbeta\n")
        cluster.checkpoint()  # n2's gap no longer coverable by the log
        cluster.revive("n2")
        cluster.catch_up("n2")
        resynced = cluster.stats.catchups
        assert resynced == 1
        dumps = cluster.dumps()
        assert len(dumps) == 3 and len(set(dumps.values())) == 1
