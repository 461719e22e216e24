"""Server-side durability: daemon journal, crash restarts, HTTP errors."""

import errno
import os

import pytest

from repro.errors import CorruptLogError, CrashError, FsckError, RecoveryError
from repro.netmark import Netmark
from repro.ordbms import FileLogDevice, MemoryLogDevice
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


class TestPendingFiles:
    """What a poll picks up: the files directly in the drop folder, in name
    order (the order DOC_IDs, the WAL and replay follow), minus the
    revisions the daemon quarantined."""

    def test_order_is_sorted_regardless_of_insertion_history(self):
        _, _, vfs, daemon = durable_rig()
        vfs.write("/incoming/zebra.ndoc", NDOC)
        vfs.write("/incoming/apple.ndoc", NDOC)
        vfs.delete("/incoming/apple.ndoc")
        vfs.write("/incoming/apple.ndoc", NDOC2)  # re-created last, still first
        vfs.write("/incoming/Mango.ndoc", NDOC)  # upper case sorts first
        assert daemon.pending_files() == [
            "/incoming/Mango.ndoc", "/incoming/apple.ndoc", "/incoming/zebra.ndoc"
        ]

    def test_processed_and_errors_are_not_pending_and_poison_is_skipped(self):
        _, _, vfs, daemon = durable_rig()
        vfs.write("/incoming/a.ndoc", NDOC)
        vfs.write("/incoming/bad.xml", "<a><b></a>")
        assert [record.ok for record in daemon.poll()] == [True, False]
        assert vfs.exists("/incoming/processed/a.ndoc")
        assert vfs.exists("/incoming/errors/bad.xml")
        vfs.mkdir("/incoming/sub")
        vfs.write("/incoming/sub/nested.ndoc", NDOC)  # a folder is not read
        vfs.write("/incoming/bad.xml", "<a><b></a>")  # the quarantined revision
        vfs.write("/incoming/c.ndoc", NDOC2)
        vfs.write("/incoming/b.ndoc", NDOC)
        assert daemon.pending_files() == ["/incoming/b.ndoc", "/incoming/c.ndoc"]
        vfs.write("/incoming/bad.xml", "<a>fixed</a>")  # a new revision is
        assert daemon.pending_files() == [
            "/incoming/b.ndoc", "/incoming/bad.xml", "/incoming/c.ndoc"
        ]

    def test_a_drop_folder_that_is_gone_has_nothing_pending(self):
        _, _, vfs, daemon = durable_rig()
        vfs.delete("/incoming")
        assert daemon.pending_files() == []


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
        """Drive an ingest into a scripted crash after the Nth WAL append
        (the first is the baseline checkpoint's marker; an ingest's one
        record comes next)."""
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
        device, vfs = self.crash_mid_ingest(sync_index=1)
        store, daemon, settled = self.restart(device, vfs)
        assert len(store) == 0  # the ingest's record never landed
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

    def test_a_settled_ingest_whose_rows_cannot_be_read_says_so(self):
        """The statement landed, so the ingest is settled as stored; a DOC
        row whose ROOTROWID names no root leaves its rows unreadable, and
        the record says that instead of a node count (fsck reports it)."""
        device = MemoryLogDevice()
        vfs = VirtualFileSystem()
        store = XmlStore.open(device)
        daemon = NetmarkDaemon(store, vfs, "/incoming")
        vfs.write("/incoming/r.ndoc", NDOC)
        daemon._journal_begin("/incoming/r.ndoc", NDOC)  # noqa: SLF001
        result = store.replace_text(NDOC, "r.ndoc")
        [doc] = store.doc_table.lookup("DOC_ID", result.doc_id)
        child = store.new_accessor().document(result.doc_id)[1]
        store.database.update("DOC", doc.rowid, {"ROOTROWID": child.rowid})
        restarted_store, _, [record] = self.restart(device, vfs)
        assert record.ok and (record.doc_id, record.node_count) == (result.doc_id, 0)
        assert "is not its root element" in record.error
        assert check_store(restarted_store.database).codes() == {"doc-order"}

    def test_other_pending_files_still_ingest_after_restart(self):
        device, vfs = self.crash_mid_ingest(sync_index=1)
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

    def test_a_full_disk_quarantines_the_file_and_the_node_lives_on(self, tmp_path):
        """The file device answers a full disk with ``WalError``, so the
        daemon quarantines the file like any failed ingest."""

        class NoSpace:
            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        class FillingDevice(FileLogDevice):
            full = False

            def _log_handle(self):
                return NoSpace() if self.full else super()._log_handle()

        device = FillingDevice(str(tmp_path / "node"))
        node = Netmark(device=device)
        node.ingest("r.ndoc", NDOC)
        device.full = True
        node.drop("ops.ndoc", NDOC2)
        [record] = node.poll()
        assert record.status == "failed"
        assert os.strerror(errno.ENOSPC) in record.error
        assert node.vfs.exists("/incoming/errors/ops.ndoc")
        assert node.document_count == 1
        assert len(node.search("Context=Budget")) == 1
        device.full = False
        assert node.ingest("retry.ndoc", NDOC2).ok
        device.close()
        reborn = Netmark(device=FileLogDevice(str(tmp_path / "node")), vfs=node.vfs)
        assert reborn.document_count == 2
        assert reborn.fsck().ok
        reborn.store.database.wal.device.close()

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
