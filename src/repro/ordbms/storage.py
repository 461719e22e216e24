"""Heap storage with physical ROWIDs.

A table's rows live in one flat list of slots; a row's
:class:`~repro.ordbms.rowid.RowId` is its slot number.  A fetch by ROWID
is one list index — the O(1) access path the paper's parent hop depends
on; a forward read in ROWID order is a list slice.

Deletions tombstone the slot rather than compacting, and a tombstone is
never filled again, so ROWIDs of the surviving rows never move (Oracle's
heap tables behave the same way).  Updates are in place; the engine
never migrates rows, so ROWIDs are stable for the lifetime of a row.

A slot holds whatever object the table layer put there — the schema's
row (:attr:`repro.ordbms.schema.TableSchema.row_type`), which carries
its own address as its last field — or None for a tombstone, and a
fetch or a scan hands that object back: the heap never copies, decodes
or looks inside a row.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import RowIdError
from repro.ordbms.rowid import RowId


class HeapFile:
    """The physical storage for one table.

    The interface is deliberately tiny: insert returns a ROWID, fetch and
    delete take one, and ``scan`` yields ``(rowid, row)`` pairs in physical
    order.  Everything richer (predicates, indexes, constraints) lives in
    the layers above.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        #: slot number -> the row there, None for a tombstone.
        self._slots: list[Any] = []
        self._live_rows = 0

    # -- mutation ---------------------------------------------------------

    def next_rowids(self, count: int) -> list[RowId]:
        """The addresses the next ``count`` inserts will land at, in order.

        Slots are append-only (tombstones are never reused), so these are
        the slot numbers from the heap's tail on.  A loader that must store
        a row's forward links before the linked rows exist asks for a
        document's worth.
        """
        tail = len(self._slots)
        return list(map(RowId, range(tail, tail + count)))

    def insert(self, row: tuple[Any, ...] | None) -> RowId:
        """Append ``row`` and return its physical address; None lays down
        a tombstone (a dumped one, as the snapshot loader restores it)."""
        rowid = RowId(len(self._slots))  # lint: allow-rowid-mint(the heap file IS the physical layer that mints addresses)
        self._slots.append(row)
        self._live_rows += row is not None
        return rowid

    def update(self, rowid: RowId, row: tuple[Any, ...]) -> None:
        """Replace the row at ``rowid`` in place."""
        self.fetch(rowid)
        self._slots[rowid] = row

    def delete(self, rowid: RowId) -> tuple[Any, ...]:
        """Tombstone the row at ``rowid`` and return its former value."""
        old = self.fetch(rowid)
        self._slots[rowid] = None
        self._live_rows -= 1
        return old

    def restore(self, rowid: RowId, row: tuple[Any, ...]) -> None:
        """Put ``row`` at ``rowid``, which must be the next insert's free
        slot (:meth:`insert`): a tombstone is never filled again."""
        if rowid != len(self._slots):
            raise RowIdError(
                f"ROWID {rowid} is not the next free slot in table {self.name}"
            )
        self.insert(row)

    # -- access -----------------------------------------------------------

    def fetch(self, rowid: RowId) -> tuple[Any, ...]:
        """Return the row at ``rowid``; O(1)."""
        row = self.holds(rowid)
        if row is None:
            raise RowIdError(
                f"ROWID {rowid} addresses a deleted row in table {self.name}"
            )
        return row

    def holds(self, rowid: RowId) -> tuple[Any, ...] | None:
        """The row at ``rowid``, or None for a tombstone; an address
        with no slot raises :class:`~repro.errors.RowIdError`."""
        if not 0 <= rowid < len(self._slots):
            raise RowIdError(f"ROWID {rowid} is out of range for table {self.name}")
        return self._slots[rowid]

    def exists(self, rowid: RowId) -> bool:
        """True when ``rowid`` addresses a live (non-deleted) row."""
        return 0 <= rowid < len(self._slots) and self._slots[rowid] is not None

    def scan(self) -> Iterator[tuple[RowId, tuple[Any, ...]]]:
        """Yield ``(rowid, row)`` for every live row in physical order."""
        return (slot for slot in self.scan_all() if slot[1] is not None)

    def scan_all(
        self, after: RowId | None = None
    ) -> Iterator[tuple[RowId, Any]]:
        """Yield ``(rowid, row)`` for every allocated slot, ``None`` for a
        tombstoned one, in physical order — from the slot right behind
        ``after`` when it is given.

        Tombstoned slots are included: the MVCC snapshot scan needs their
        addresses to resolve pre-images of recently deleted rows, and a
        forward read stops at the first one.  Rows are laid down in
        arrival order and never move, so what was written in one go
        after ``after`` — the rest of its document — is what follows it.
        The walk indexes the list lazily, so a reader that stops early
        touches only the slots it takes.  The structure is append-only,
        so iterating concurrently with an inserting writer is safe;
        callers wanting a stable inventory run this under
        :meth:`repro.ordbms.table.Table.stable_read`.
        """
        slots = self._slots
        for slot in range(self._behind(after), len(slots)):
            yield RowId(slot), slots[slot]  # lint: allow-rowid-mint(the heap file IS the physical layer that mints addresses)

    def slots_after(self, after: RowId | None, count: int, skip: int = 0) -> list[Any]:
        """What the (up to) ``count`` slots ``skip`` slots behind ``after``
        (the heap's start when None) hold — the row, None for a tombstone
        — as one list slice: :meth:`scan_all` minting no address."""
        start = self._behind(after) + skip
        return self._slots[start:start + count]

    def __len__(self) -> int:
        return self._live_rows

    # -- internals ---------------------------------------------------------

    def _behind(self, after: RowId | None) -> int:
        """The slot number right behind ``after`` (0 when None)."""
        if after is None:
            return 0
        if after < 0:
            raise RowIdError(f"invalid ROWID {after} for table {self.name}")
        return after + 1
