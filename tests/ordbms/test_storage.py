"""Heap storage, one flat slot list: stability of ROWIDs, tombstones, restore at the tail."""

import pytest

from repro.errors import RowIdError
from repro.ordbms.rowid import RowId
from repro.ordbms.storage import HeapFile


@pytest.fixture
def heap():
    return HeapFile("T")


class TestInsertFetch:
    def test_insert_returns_sequential_slots(self, heap):
        first = heap.insert(("a",))
        second = heap.insert(("b",))
        assert first == RowId(0) and type(first) is RowId
        assert second == RowId(1)

    def test_fetch_is_identity(self, heap):
        rowid = heap.insert((1, "x"))
        assert heap.fetch(rowid) == (1, "x")

    def test_block_overflow_opens_new_block(self, heap):
        """A flat heap has no block to overflow: the 65th row is slot 64."""
        rowids = [heap.insert((i,)) for i in range(65)]
        assert rowids == list(range(65))
        assert heap.fetch(rowids[-1]) == (64,)

    def test_len_counts_live_rows(self, heap):
        for i in range(5):
            heap.insert((i,))
        assert len(heap) == 5

    def test_fetch_out_of_range_raises(self, heap):
        with pytest.raises(RowIdError):
            heap.fetch(RowId(99))
        with pytest.raises(RowIdError):
            heap.fetch(heap.next_rowids(1)[0])  # the tail: no slot yet

    def test_fetch_invalid_rowid_raises(self, heap):
        """A negative slot is no address, not the list's last row."""
        heap.insert(("last",))
        for rowid in (RowId(-1), -1):
            with pytest.raises(RowIdError):
                heap.fetch(rowid)
            with pytest.raises(RowIdError):
                heap.holds(rowid)
            assert not heap.exists(rowid)


class TestDelete:
    def test_delete_returns_old_row(self, heap):
        rowid = heap.insert(("gone",))
        assert heap.delete(rowid) == ("gone",)

    def test_deleted_row_not_fetchable(self, heap):
        rowid = heap.insert(("gone",))
        heap.delete(rowid)
        with pytest.raises(RowIdError):
            heap.fetch(rowid)

    def test_double_delete_raises(self, heap):
        rowid = heap.insert(("gone",))
        heap.delete(rowid)
        with pytest.raises(RowIdError):
            heap.delete(rowid)

    def test_delete_does_not_move_survivors(self, heap):
        keep_before = heap.insert(("before",))
        victim = heap.insert(("victim",))
        keep_after = heap.insert(("after",))
        heap.delete(victim)
        assert heap.fetch(keep_before) == ("before",)
        assert heap.fetch(keep_after) == ("after",)

    def test_exists(self, heap):
        rowid = heap.insert(("x",))
        assert heap.exists(rowid)
        heap.delete(rowid)
        assert not heap.exists(rowid)
        assert not heap.exists(RowId(999_999))


class TestRestore:
    def test_restore_takes_the_tail_and_refuses_a_tombstone(self, heap):
        rowid = heap.insert(("original",))
        heap.delete(rowid)
        with pytest.raises(RowIdError):
            heap.restore(rowid, ("original",))
        assert not heap.exists(rowid)
        tail = heap.next_rowids(1)[0]
        heap.restore(tail, ("again",))
        assert heap.fetch(tail) == ("again",)
        assert len(heap) == 1

    def test_restore_live_slot_raises(self, heap):
        rowid = heap.insert(("live",))
        with pytest.raises(RowIdError):
            heap.restore(rowid, ("other",))

    def test_restore_out_of_range_raises(self, heap):
        with pytest.raises(RowIdError):
            heap.restore(RowId(7), ("x",))


class TestScanAndUpdate:
    def test_scan_physical_order(self, heap):
        rowids = [heap.insert((i,)) for i in range(10)]
        scanned = list(heap.scan())
        assert [rowid for rowid, _ in scanned] == rowids
        assert [row[0] for _, row in scanned] == list(range(10))

    def test_scan_skips_tombstones(self, heap):
        rowids = [heap.insert((i,)) for i in range(4)]
        heap.delete(rowids[1])
        assert [row[0] for _, row in heap.scan()] == [0, 2, 3]

    def test_update_in_place(self, heap):
        rowid = heap.insert(("old",))
        heap.update(rowid, ("new",))
        assert heap.fetch(rowid) == ("new",)

    def test_update_deleted_raises(self, heap):
        rowid = heap.insert(("old",))
        heap.delete(rowid)
        with pytest.raises(RowIdError):
            heap.update(rowid, ("new",))


class TestFileRollover:
    def test_new_data_file_opens_when_file_fills(self):
        """No data file fills either: addresses and scan order run on
        past what a slotted file once held, and a run of tombstones in
        between keeps every survivor's address."""
        heap = HeapFile("T")
        total = 64 * 2 + 1
        rowids = [heap.insert((i,)) for i in range(total)]
        for dead in range(60, 70):
            heap.delete(rowids[dead])
        assert rowids[-1] == total - 1
        assert heap.fetch(rowids[-1]) == (total - 1,)
        assert len(heap) == total - 10
        assert [row[0] for _, row in heap.scan()] == [i for i in range(total) if not 60 <= i < 70]


class TestScanAll:
    def test_every_slot_after_an_address_across_blocks_and_files(self):
        """From any address on: across a tombstone run, up to the tail."""
        heap = HeapFile("T")
        rowids = [heap.insert((i,)) for i in range(19)]
        for dead in (6, 7, 8):
            heap.delete(rowids[dead])
        slots = list(heap.scan_all())
        assert [rowid for rowid, _ in slots] == rowids
        assert all(type(rowid) is RowId for rowid, _ in slots)
        assert [row for _, row in slots] == [
            None if 6 <= i <= 8 else (i,) for i in range(19)
        ]
        for start in (0, 5, 6, 7, 8, 17):  # before, into and out of the run, the tail
            assert list(heap.scan_all(rowids[start])) == slots[start + 1:]
        assert list(heap.scan_all(rowids[-1])) == []
        # Addresses past the tail (a reservation not landed yet) follow nothing.
        assert list(heap.scan_all(heap.next_rowids(2)[1])) == []

    def test_invalid_start_raises(self, heap):
        with pytest.raises(RowIdError):
            list(heap.scan_all(RowId(-1)))
        with pytest.raises(RowIdError):
            heap.slots_after(RowId(-1), 4)
