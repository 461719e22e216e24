"""The forward read: a run of slots taken as list slices is the slot walk.

``Table.rows_after`` reads a run in one seqlock window: it takes the
slots as slices of the heap's slot list when the table holds no MVCC
history, and resolves every slot by its address (``Table._as_of``) when
it does.  Either way it must be exactly what a walk of ``visible_row``
over the slots stored after the head gives, up to the first slot with no
row at the pin.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RowIdError
from repro.ordbms import INTEGER, VARCHAR, Column, Database, TableSchema
from repro.ordbms.storage import HeapFile
from repro.ordbms.table import RUN_CHUNK, RUN_CHUNK_MAX


def new_database() -> Database:
    database = Database("forward")
    database.create_table(TableSchema(
        "T", (Column("ID", INTEGER, nullable=False), Column("V", VARCHAR)),
        primary_key="ID",
    ))
    return database


def slot_walk(table, slots, head, pin):
    """The rows stored after ``head`` as of ``pin``, one ``visible_row``
    per slot, up to the first slot that holds no row in that view."""
    rows = []
    for slot in slots[slots.index(head) + 1:]:
        row = table.visible_row(slot, pin)
        if row is None:
            break
        rows.append(row)
    return rows


def check_heads(table, slots, pin):
    """Heads spread over the heap: the walk from each is O(heap)."""
    for head in slots[::max(1, len(slots) // 16)] + slots[-2:]:
        if table.visible_row(head, pin) is None:
            with pytest.raises(RowIdError):
                table.rows_after(head, pin)
        else:
            assert table.rows_after(head, pin) == slot_walk(table, slots, head, pin)


class TestHeapSlices:
    def test_a_slice_is_scan_all_without_the_addresses(self):
        heap = HeapFile("T")
        rowids = [heap.insert((i,)) for i in range(19)]
        for dead in (3, 6, 7, 18):  # a lone tombstone, a run of two, the tail
            heap.delete(rowids[dead])
        for after in (None, *rowids):
            slots = [row for _, row in heap.scan_all(after)]
            for skip in (0, 1, 3, 4, 9):
                for count in (1, 2, 4, 5, 8, 30):
                    assert heap.slots_after(after, count, skip) == slots[skip:skip + count]
        assert heap.slots_after(heap.next_rowids(2)[1], 8) == []  # past the tail
        for after in rowids:  # ``skip`` -1: from ``after``'s own slot, the head of a run
            own = [row for slot, row in heap.scan_all() if slot == after]
            slots = [row for _, row in heap.scan_all(after)]
            for count in (1, 5, 9):
                assert heap.slots_after(after, count, -1) == (own + slots)[:count]

    def test_a_slice_hands_out_the_stored_objects(self):
        heap = HeapFile("T")
        rows = [(i,) for i in range(3)]
        rowids = [heap.insert(row) for row in rows]
        assert all(a is b for a, b in zip(heap.slots_after(rowids[0], 8), rows[1:]))


class TestSliceIsTheSlotWalk:
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), st.integers(1, 73)),
                st.tuples(st.just("delete"), st.integers(0, 10_000)),
                st.tuples(st.just("update"), st.integers(0, 10_000)),
                st.tuples(st.just("pin"), st.just(0)),
            ),
            min_size=1, max_size=10,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_after_equals_a_visible_row_walk(self, steps):
        database = new_database()
        table = database.table("T")
        slots, pins, next_id = [], [], 0
        try:
            for kind, number in steps:
                live = [slot for slot in slots if table.exists(slot)]
                if kind == "insert":
                    # One statement, so the rows land as one run of slots.
                    rows = [
                        table.schema.row({"ID": next_id + n, "V": f"v{n}"}, rowid)
                        for n, rowid in enumerate(table.next_rowids(number))
                    ]
                    database.change([("T", [(None, row) for row in rows])])
                    slots += [row.rowid for row in rows]
                    next_id += number
                elif kind == "delete" and live:
                    database.delete("T", live[number % len(live)])
                elif kind == "update" and live:
                    database.update("T", live[number % len(live)], {"V": "moved"})
                elif kind == "pin":
                    pins.append(database.open_snapshot())
            for pin in [snapshot.lsn for snapshot in pins] + [database.mvcc.read_lsn()]:
                check_heads(table, slots, pin)
        finally:
            for snapshot in pins:
                snapshot.release()
        table.vacuum_versions()
        assert not table._history  # the slice path, as of now
        check_heads(table, slots, database.mvcc.read_lsn())


class TestRunEdges:
    def test_chunks_grow_past_the_first_window(self):
        database = new_database()
        table = database.table("T")
        size = RUN_CHUNK + 2 * RUN_CHUNK + 4 * RUN_CHUNK + 5  # four windows
        head, *rest = [database.insert("T", {"ID": n}) for n in range(size)]
        table.vacuum_versions()  # an insert leaves history until a sweep
        windows = []
        real = table._heap.slots_after

        def counted(after, count, skip=0):
            windows.append(count)
            return real(after, count, skip)

        table._heap.slots_after = counted
        pin = database.mvcc.read_lsn()
        assert [row.rowid for row in table.rows_after(head, pin)] == rest
        # The head's own slot and the RUN_CHUNK behind it, then doubling.
        assert windows == [RUN_CHUNK + 1] + [
            min(RUN_CHUNK << n, RUN_CHUNK_MAX) for n in range(1, len(windows))
        ] and len(windows) == 4
        with database.open_snapshot() as snapshot:  # history: the per-slot path
            database.update("T", rest[-1], {"V": "later"})
            pinned = table.rows_after(head, snapshot.lsn)
            assert [row.rowid for row in pinned] == rest and pinned[-1].V is None
        assert len(windows) == 4

    def test_a_head_deleted_under_the_pin_is_a_typed_error(self):
        database = new_database()
        table = database.table("T")
        head, *rest = [database.insert("T", {"ID": n}) for n in range(3 * RUN_CHUNK)]
        pin = database.mvcc.read_lsn()  # read at, not held
        assert table.rows_after(head, pin) == [table.fetch(r) for r in rest]
        database.delete("T", head)
        table.vacuum_versions()  # nothing pins ``pin``: the pre-image goes
        with pytest.raises(RowIdError, match="not visible"):
            table.rows_after(head, pin)
        with pytest.raises(RowIdError, match="not visible"):
            table.rows_after(head, database.mvcc.read_lsn())

    @pytest.mark.parametrize("history", [False, True])
    def test_a_head_reclaimed_inside_the_window_is_a_typed_error(self, history):
        """The writer deletes the head and a sweep takes its pre-image
        while the window is open: the window retries, and the head check
        of the retry says the head is gone — never an empty run."""
        database = new_database()
        table = database.table("T")
        head, *rest = [database.insert("T", {"ID": n}) for n in range(3 * RUN_CHUNK)]
        table.vacuum_versions()
        if history:
            with database.open_snapshot():
                database.update("T", rest[-1], {"V": "later"})
        pin, calls = database.mvcc.read_lsn(), []

        def take(rows):
            taken = [next(rows) for _ in range(RUN_CHUNK)]
            if not calls:
                database.delete("T", head)
                table.vacuum_versions()
            calls.append(len(taken))
            return taken

        with pytest.raises(RowIdError, match="not visible"):
            table.rows_after(head, pin, take)
        assert calls[0] == RUN_CHUNK and table.read_retries == 1

    def test_take_pulls_only_what_it_needs(self):
        database = new_database()
        table = database.table("T")
        head, *rest = [database.insert("T", {"ID": n}) for n in range(4 * RUN_CHUNK)]
        table.vacuum_versions()
        windows = []
        real = table._heap.slots_after
        table._heap.slots_after = lambda *args: windows.append(args[1]) or real(*args)
        pin = database.mvcc.read_lsn()
        assert table.rows_after(head, pin, lambda rows: next(rows).ID) == 1
        assert windows == [RUN_CHUNK + 1]

    @pytest.mark.parametrize("history", [False, True])
    def test_a_writer_moving_the_seqlock_mid_window_is_retried(self, history):
        database = new_database()
        table = database.table("T")
        head, *rest = [database.insert("T", {"ID": n}) for n in range(2 * RUN_CHUNK)]
        table.vacuum_versions()
        snapshot = database.open_snapshot()
        if history:
            database.update("T", rest[0], {"V": "after the pin"})
        assert bool(table._history) is history
        heap, real = table._heap, table._heap.slots_after
        real_scan = heap.scan_all
        torn = []

        def tear(*args):
            if not torn:
                torn.append(table._seq)
                table._seq += 2  # a whole statement went by under the read
            return args

        heap.slots_after = lambda *args: real(*tear(*args))
        heap.scan_all = lambda *args: real_scan(*tear(*args))
        try:
            rows = table.rows_after(head, snapshot.lsn)
            assert torn and table.read_retries == 1
            assert rows == slot_walk(table, [head, *rest], head, snapshot.lsn)
            assert rows[0].V is None  # as of the pin, not the update
        finally:
            snapshot.release()
