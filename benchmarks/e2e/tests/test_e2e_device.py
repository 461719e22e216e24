"""The durability check really discards what was never flushed."""

from repro import Netmark

from device import MeteredLogDevice, crash_copy

NDOC = "{\\ndoc1}\n{\\style Title}T\n{\\style Heading1}Budget\n{\\style Normal}one two three\n"


def test_crash_copy_keeps_only_flushed_bytes(tmp_path):
    device = MeteredLogDevice(str(tmp_path / "live"))
    node = Netmark("t", device=device)
    assert node.ingest("a.ndoc", NDOC).ok
    assert device.syncs > 0 and device.sync_seconds > 0.0
    assert device.synced_length == device.wal_bytes() > 0
    flushed = device.synced_length

    # A record that reached the OS but never the disk.
    device.append("999 BEGIN 77|deadbeef\n")
    assert device.wal_bytes() > flushed

    survivor = crash_copy(device, str(tmp_path / "crash"))
    assert survivor.wal_bytes() == flushed
    reopened = Netmark("t", device=survivor, vfs=node.vfs)
    assert reopened.document_count == 1
    assert reopened.store.last_recovery.torn_tail is None
    device.close()
    survivor.close()


def test_an_unflushed_document_is_lost_by_the_crash_copy(tmp_path):
    device = MeteredLogDevice(str(tmp_path / "live"))
    node = Netmark("t", device=device)
    assert node.ingest("a.ndoc", NDOC).ok
    kept = device.synced_length
    assert node.ingest("b.ndoc", NDOC).ok
    # Pretend the second commit's fsync never happened.
    device.synced_length = kept
    reopened = Netmark("t", device=crash_copy(device, str(tmp_path / "crash")), vfs=node.vfs)
    assert reopened.document_count == 1
    device.close()


def test_counters_count(tmp_path):
    device = MeteredLogDevice(str(tmp_path / "d"))
    device.append("x\n")
    device.append("y\n")
    device.sync()
    assert (device.appends, device.syncs, device.wal_bytes()) == (2, 1, 4)
    device.close()
