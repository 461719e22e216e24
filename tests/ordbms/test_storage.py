"""Slotted-page heap storage: stability of ROWIDs, tombstones, restore at the tail."""

import pytest

from repro.errors import RowIdError
from repro.ordbms.rowid import RowId
from repro.ordbms.storage import BLOCK_CAPACITY, HeapFile


@pytest.fixture
def heap():
    return HeapFile("T")


class TestInsertFetch:
    def test_insert_returns_sequential_slots(self, heap):
        first = heap.insert(("a",))
        second = heap.insert(("b",))
        assert first == RowId(0, 0, 0)
        assert second == RowId(0, 0, 1)

    def test_fetch_is_identity(self, heap):
        rowid = heap.insert((1, "x"))
        assert heap.fetch(rowid) == (1, "x")

    def test_block_overflow_opens_new_block(self, heap):
        rowids = [heap.insert((i,)) for i in range(BLOCK_CAPACITY + 1)]
        assert rowids[-1].block_no == 1
        assert rowids[-1].slot_no == 0
        assert heap.fetch(rowids[-1]) == (BLOCK_CAPACITY,)

    def test_len_counts_live_rows(self, heap):
        for i in range(5):
            heap.insert((i,))
        assert len(heap) == 5

    def test_fetch_out_of_range_raises(self, heap):
        with pytest.raises(RowIdError):
            heap.fetch(RowId(0, 0, 99))
        with pytest.raises(RowIdError):
            heap.fetch(RowId(5, 0, 0))

    def test_fetch_invalid_rowid_raises(self, heap):
        with pytest.raises(RowIdError):
            heap.fetch(RowId(-1, 0, 0))


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
        assert not heap.exists(RowId(9, 9, 9))


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
            heap.restore(RowId(0, 0, 7), ("x",))


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

    def test_block_count_grows(self, heap):
        assert heap.block_count == 1
        for i in range(BLOCK_CAPACITY + 1):
            heap.insert((i,))
        assert heap.block_count == 2


class TestFileRollover:
    def test_new_data_file_opens_when_file_fills(self, monkeypatch):
        import repro.ordbms.storage as storage_module

        monkeypatch.setattr(storage_module, "FILE_CAPACITY", 2)
        heap = HeapFile("T")
        total = BLOCK_CAPACITY * 2 + 1  # fills file 0, spills into file 1
        rowids = [heap.insert((i,)) for i in range(total)]
        assert rowids[-1].file_no == 1
        assert rowids[-1].block_no == 0
        assert heap.fetch(rowids[-1]) == (total - 1,)
        assert len(heap) == total
        # Scan order still matches insert order across files.
        assert [row[0] for _, row in heap.scan()] == list(range(total))


class TestScanAll:
    def test_every_slot_after_an_address_across_blocks_and_files(
        self, monkeypatch
    ):
        import repro.ordbms.storage as storage_module

        monkeypatch.setattr(storage_module, "BLOCK_CAPACITY", 4)
        monkeypatch.setattr(storage_module, "FILE_CAPACITY", 2)
        heap = HeapFile("T")
        rowids = [heap.insert((i,)) for i in range(19)]  # 3 files, 5 blocks
        heap.delete(rowids[6])
        slots = list(heap.scan_all())
        assert [rowid for rowid, _ in slots] == rowids
        assert [row for _, row in slots] == [
            None if i == 6 else (i,) for i in range(19)
        ]
        for start in (0, 3, 4, 7, 8, 17):  # mid-block, block end, file end
            assert list(heap.scan_all(rowids[start])) == slots[start + 1:]
        assert list(heap.scan_all(rowids[-1])) == []
        # Addresses past the tail (a reservation not landed yet) follow nothing.
        assert list(heap.scan_all(heap.next_rowids(2)[1])) == []

    def test_invalid_start_raises(self, heap):
        with pytest.raises(RowIdError):
            list(heap.scan_all(RowId(0, -1, 0)))
