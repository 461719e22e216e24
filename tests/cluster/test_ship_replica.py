"""WAL shipping and follower replicas: batches, bundles, idempotence."""

import pytest

from repro.cluster import FollowerReplica, LogShipper, NetmarkCluster
from repro.cluster.ship import ShipBatch
from repro.errors import (
    ClusterError,
    CrashError,
    SourceUnavailableError,
    TypeMismatchError,
)
from repro.ordbms.recovery import recover
from repro.ordbms.transaction import Transaction
from repro.ordbms.wal import ROLLBACK, MemoryLogDevice, parse_log
from repro.query.cache import QueryCache
from repro.query.engine import QueryEngine
from repro.resilience import FaultPlan
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
        """A follower's read LSN holds while a shipped transaction is
        open and moves once it resolves: by COMMIT, by ROLLBACK, or as a
        loser discarded at promotion."""
        store, shipper, follower = self.build_pair()
        mvcc = follower.database.mvcc
        with pytest.raises(TypeMismatchError):
            root = Element("doc")
            root.append(Text(0))  # no CLOB column takes it: rollback
            store.store_document(Document(root, name="lost.xml"))
        before = mvcc.read_lsn()
        follower.apply_batch(shipper.batch_after(follower.acked_lsn))
        assert follower.database.stats.transactions_rolled_back == 1
        assert mvcc.read_lsn() > before
        # A shipped transaction still open at promotion is a loser.
        before = mvcc.read_lsn()
        transaction = store.database.begin()
        store.database.insert(
            "DOC", {"DOC_ID": 99, "FILE_NAME": "open.md", "FORMAT": "md"}
        )
        follower.apply_batch(shipper.batch_after(follower.acked_lsn))
        assert mvcc.read_lsn() == before  # not yet resolved
        assert follower.replayer.discard_in_flight() == (transaction.txid,)
        resolved = mvcc.read_lsn()
        assert resolved > before
        assert follower.replayer.discard_in_flight() == ()  # nothing undone:
        assert mvcc.read_lsn() == resolved  # nothing moved

    def test_a_follower_takes_a_transaction_back_as_the_writer_does(
        self, monkeypatch
    ):
        """Replay resolves a shipped transaction through the database's
        own ``Transaction``: a ROLLBACK takes each run of one table's
        rows back as one statement, so it moves the follower's commit LSN
        by exactly what the writer's rollback moved the writer's, and so
        does a loser discarded at promotion."""
        moved = []  # what each rollback moved its database's LSN by

        def measured(transaction, rollback=Transaction.rollback):
            before = transaction.database.mvcc.lsn
            rollback(transaction)
            moved.append(transaction.database.mvcc.lsn - before)

        monkeypatch.setattr(Transaction, "rollback", measured)
        plan, device = FaultPlan(), MemoryLogDevice()
        store = XmlStore.open(plan.wrap_log_device(device), DEFAULT_CONFIG)
        shipper = LogShipper(device)
        follower = FollowerReplica.bootstrap(
            "f1", MemoryLogDevice(), shipper.bundle()
        )
        text = "<doc><h1>Alpha</h1><p>beta <b>gamma</b></p></doc>"  # 7 nodes
        plan.fail("wal", "append", kind="unavailable", after=9)  # the COMMIT
        with pytest.raises(SourceUnavailableError):
            store.store_text(text, "a.xml")
        assert moved == [2]  # the XML rows, then the DOC row
        records = shipper.batch_after(follower.acked_lsn).records
        assert records[-1].kind == ROLLBACK
        follower.apply_batch(ShipBatch(records[:-1]))
        assert follower.database.in_transaction
        before = follower.database.mvcc.lsn
        follower.apply_batch(ShipBatch(records[-1:]))
        assert follower.database.mvcc.lsn - before == 2
        assert moved == [2, 2]
        # The same load, left open by a death at its COMMIT: a loser.
        plan.fail("wal", "append", kind="crash", after=9, times=None)
        with pytest.raises(CrashError):
            store.store_text(text, "a.xml")
        follower.apply_batch(shipper.batch_after(follower.acked_lsn))
        (loser,) = follower.in_flight
        assert follower.database.in_transaction
        moved.clear()
        promoted = recover(follower.device)
        assert moved == [2, 2]  # the shipped ROLLBACK replayed, then the loser
        assert promoted.losers_discarded == (loser,)
        assert promoted.transactions_rolled_back == 1
        assert promoted.database.stats.transactions_rolled_back == 2
        assert follower.replayer.discard_in_flight() == (loser,)  # alike live
        assert not follower.database.in_transaction
        assert moved == [2, 2, 2]
        stats = follower.database.stats
        assert (stats.rows_inserted, stats.transactions_rolled_back) == (16, 2)

    def test_a_reader_never_sees_half_a_shipped_transaction(self):
        store, shipper, follower = self.build_pair()
        store.store_text("# A\n\nalpha\n", "a.md")
        follower.apply_batch(shipper.batch_after(follower.acked_lsn))
        before = follower.store.documents()
        stored = store.store_text("# B\n\nbeta\n\n## C\n\ngamma\n", "b.md")
        records = shipper.batch_after(follower.acked_lsn).records
        half = len(records) // 2
        follower.apply_batch(ShipBatch(records[:half]))
        assert follower.in_flight
        assert follower.store.documents() == before
        xml = follower.store.xml_table
        lsn = follower.database.mvcc.read_lsn()
        assert xml.snapshot_search("DOC_ID", stored.doc_id, lsn) == []
        follower.apply_batch(ShipBatch(records[half:]))
        assert [entry.file_name for entry in follower.store.documents()] == [
            "a.md", "b.md",
        ]
        assert follower.dump() == store.dump()

    def test_a_transaction_the_log_never_resolves_is_taken_back(self):
        """The log refuses a COMMIT and then its ROLLBACK: the writer has
        taken the transaction back in memory, but the log holds its BEGIN
        and changes with no terminal record.  The writer's next record
        shows it abandoned; the follower takes it back there, and its
        reads move on."""
        plan, device = FaultPlan(), MemoryLogDevice()
        store = XmlStore.open(plan.wrap_log_device(device), DEFAULT_CONFIG)
        shipper = LogShipper(device)
        follower = FollowerReplica.bootstrap(
            "f1", MemoryLogDevice(), shipper.bundle()
        )
        text = "<doc><h1>Alpha</h1><p>beta <b>gamma</b></p></doc>"  # 7 nodes
        plan.fail("wal", "append", kind="unavailable", after=9, times=2)
        with pytest.raises(SourceUnavailableError):
            store.store_text(text, "a.xml")  # its 10th append is the COMMIT
        follower.apply_batch(shipper.batch_after(follower.acked_lsn))
        assert follower.in_flight  # what the log says, until the next record
        assert follower.store.documents() == store.documents() == []
        store.store_text("<doc><p>next</p></doc>", "b.xml")
        follower.apply_batch(shipper.batch_after(follower.acked_lsn))
        assert [entry.file_name for entry in follower.store.documents()] == [
            "b.xml",
        ]
        assert follower.store.documents() == store.documents()
        assert not follower.in_flight
        assert all(table.version_count == 0 for table in follower.database.catalog)
        assert follower.dump() == store.dump()
        assert XmlStore.open(device).dump() == store.dump()


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
