"""Server-side durability: daemon journal, crash restarts, HTTP errors."""

import pytest

from repro.errors import CorruptLogError, CrashError, FsckError, RecoveryError
from repro.netmark import Netmark
from repro.ordbms import MemoryLogDevice
from repro.resilience import FaultPlan
from repro.server.daemon import NetmarkDaemon
from repro.server.vfs import VirtualFileSystem
from repro.store import XmlStore, check_store

NDOC = "{\\ndoc1}\n{\\style Heading1}Budget\n{\\style Normal}Travel funds.\n"
NDOC2 = "{\\ndoc1}\n{\\style Heading1}Ops\n{\\style Normal}Launch pad work.\n"


def durable_rig(device=None, vfs=None):
    device = device if device is not None else MemoryLogDevice()
    store = XmlStore.open(device)
    vfs = vfs if vfs is not None else VirtualFileSystem()
    daemon = NetmarkDaemon(store, vfs, "/incoming")
    return device, store, vfs, daemon


class TestWalkFilesDeterminism:
    def test_order_is_sorted_regardless_of_insertion_history(self):
        vfs = VirtualFileSystem()
        vfs.mkdir("/a")
        vfs.write("/zebra.txt", "z")
        vfs.write("/a/nested.txt", "n")
        vfs.write("/apple.txt", "a")
        vfs.delete("/apple.txt")
        vfs.write("/apple.txt", "a2")  # re-created last, still sorts first
        assert list(vfs.walk_files()) == [
            "/a/nested.txt", "/apple.txt", "/zebra.txt"
        ]
        assert list(vfs.walk_files("/a")) == ["/a/nested.txt"]


class TestDaemonJournal:
    def test_journal_folder_not_polled(self):
        _, _, vfs, daemon = durable_rig()
        vfs.write(daemon.journal_path, "stale\tdeadbeef\t1\n")
        assert daemon.pending_files() == []

    def test_journal_cleared_after_success(self):
        _, store, vfs, daemon = durable_rig()
        vfs.write("/incoming/r.ndoc", NDOC)
        [record] = daemon.poll()
        assert record.ok
        assert vfs.read(daemon.journal_path) == ""

    def test_journal_cleared_after_handled_failure(self):
        _, store, vfs, daemon = durable_rig()
        vfs.write("/incoming/bad.xml", "<a><b></a>")
        [record] = daemon.poll()
        assert not record.ok
        assert vfs.read(daemon.journal_path) == ""

    def test_startup_recovery_without_journal_is_noop(self):
        _, _, _, daemon = durable_rig()
        assert daemon.startup_recovery() == []


class TestCrashRestart:
    def crash_mid_ingest(self, sync_index: int):
        """Drive an ingest into a scripted crash at the Nth WAL sync."""
        device = MemoryLogDevice()
        vfs = VirtualFileSystem()
        plan = FaultPlan()
        plan.fail("wal", "append", kind="crash", after=sync_index, times=1)
        wrapped = plan.wrap_log_device(device)
        store = XmlStore.open(wrapped)
        daemon = NetmarkDaemon(store, vfs, "/incoming")
        vfs.write("/incoming/r.ndoc", NDOC)
        with pytest.raises(CrashError):
            daemon.poll()
        return device, vfs

    def restart(self, device, vfs):
        store = XmlStore.open(device)
        daemon = NetmarkDaemon(store, vfs, "/incoming")
        settled = daemon.startup_recovery()
        return store, daemon, settled

    def test_crash_before_commit_quarantines(self):
        device, vfs = self.crash_mid_ingest(sync_index=2)
        store, daemon, settled = self.restart(device, vfs)
        assert len(store) == 0  # the loser was discarded by recovery
        [record] = settled
        assert not record.ok and "crash" in record.error
        assert vfs.exists("/incoming/errors/r.ndoc")
        assert daemon.poll() == []  # nothing left pending, nothing retried
        assert check_store(store.database).ok

    def test_crash_after_commit_completes_bookkeeping(self):
        # A large 'after' index: every append of the ingest succeeds, the
        # crash hits a later poll instead — simulate by crashing on the
        # append *after* the commit record (the daemon's move/clear phase
        # does not touch the WAL, so commit durability decides).
        device = MemoryLogDevice()
        vfs = VirtualFileSystem()
        store = XmlStore.open(device)
        daemon = NetmarkDaemon(store, vfs, "/incoming")
        vfs.write("/incoming/r.ndoc", NDOC)
        content = vfs.read("/incoming/r.ndoc")
        daemon._journal_begin("/incoming/r.ndoc", content)  # noqa: SLF001
        store.replace_text(content, "r.ndoc")
        # Process "dies" after commit, before the move and journal clear.
        restarted_store, restarted, settled = self.restart(device, vfs)
        assert len(restarted_store) == 1
        [record] = settled
        assert record.ok and record.doc_id == 1 and record.node_count > 0
        assert vfs.exists("/incoming/processed/r.ndoc")
        assert restarted.poll() == []

    def test_other_pending_files_still_ingest_after_restart(self):
        device, vfs = self.crash_mid_ingest(sync_index=2)
        vfs.write("/incoming/second.ndoc", NDOC2)
        store, daemon, _ = self.restart(device, vfs)
        [record] = daemon.poll()
        assert record.ok
        assert len(store) == 1


class TestNetmarkDurableFacade:
    def test_fresh_durable_node(self):
        device = MemoryLogDevice()
        node = Netmark(device=device)
        node.ingest("r.ndoc", NDOC)
        assert node.document_count == 1
        assert node.fsck().ok
        assert node.recovered_ingests == []

    def test_restart_preserves_documents_and_settles_journal(self):
        device = MemoryLogDevice()
        node = Netmark(device=device)
        node.ingest("r.ndoc", NDOC)
        reborn = Netmark(device=device, vfs=node.vfs)
        assert reborn.document_count == 1
        assert reborn.store.last_recovery is not None
        assert reborn.fsck().ok
        results = reborn.search("Context=Budget")
        assert len(results) >= 1

    def test_checkpoint_truncates_log(self):
        device = MemoryLogDevice()
        node = Netmark(device=device)
        node.ingest("r.ndoc", NDOC)
        node.checkpoint()
        assert device.read_log().count("\n") == 1  # just the marker
        reborn = Netmark(device=device, vfs=node.vfs)
        assert reborn.document_count == 1

    def test_fsck_repair_entry_point(self):
        node = Netmark(device=MemoryLogDevice())
        node.ingest("r.ndoc", NDOC)
        report = node.fsck(repair=True)
        assert report.ok and report.repaired >= 2


class TestHttpErrorMapping:
    @pytest.fixture
    def node(self):
        node = Netmark()
        node.ingest("r.ndoc", NDOC)
        return node

    def test_recovering_gate_returns_503(self, node):
        node.api.recovering = True
        response = node.http_get("/docs")
        assert response.status == 503
        assert 'code="recovering"' in response.body
        node.api.recovering = False
        assert node.http_get("/docs").ok

    @pytest.mark.parametrize(
        ("error", "code"),
        [
            (CorruptLogError("log damaged"), "corrupt-log"),
            (RecoveryError("replay diverged"), "recovery-failed"),
            (FsckError("no netmark schema"), "store-inconsistent"),
        ],
    )
    def test_durability_errors_get_structured_bodies(self, node, error, code):
        def explode():
            raise error

        node.api.engine.execute = lambda query, **kwargs: explode()
        response = node.http_get("/search?Context=Budget")
        assert response.status == 500
        assert response.content_type == "text/xml"
        assert f'code="{code}"' in response.body
        assert str(error) in response.body

    def test_other_repro_errors_keep_plain_500(self, node):
        from repro.errors import StoreError

        def explode():
            raise StoreError("something else")

        node.api.engine.execute = lambda query, **kwargs: explode()
        response = node.http_get("/search?Context=Budget")
        assert response.status == 500
        assert "<error" not in response.body
