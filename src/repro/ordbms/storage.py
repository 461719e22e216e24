"""Slotted-page heap storage with physical ROWIDs.

Rows live in fixed-capacity *blocks* grouped into *data files*; a row's
:class:`~repro.ordbms.rowid.RowId` is its ``(file, block, slot)`` address.
A fetch by ROWID is two list lookups — the O(1) access path the paper's
parent hop depends on; a forward read in ROWID order walks down and across.

Deletions tombstone the slot rather than compacting, so ROWIDs of the
surviving rows never move (Oracle's heap tables behave the same way).
Updates are in place when the row stays in its slot; the engine never
migrates rows, so ROWIDs are stable for the lifetime of a row.

A slot holds whatever object the table layer put there — the schema's
row (:attr:`repro.ordbms.schema.TableSchema.row_type`), which carries
its own address as its last field — and a fetch or a scan hands that
object back: the heap never copies, decodes or looks inside a row.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Any, Iterator

from repro.errors import RowIdError
from repro.ordbms.rowid import RowId

#: Rows per block.  Small enough that multi-block behaviour is exercised by
#: modest tests, large enough that block overhead stays negligible.
BLOCK_CAPACITY = 64

#: Blocks per data file before a new file is opened.
FILE_CAPACITY = 1024

_TOMBSTONE = object()


class HeapFile:
    """The physical storage for one table.

    The interface is deliberately tiny: insert returns a ROWID, fetch and
    delete take one, and ``scan`` yields ``(rowid, row)`` pairs in physical
    order.  Everything richer (predicates, indexes, constraints) lives in
    the layers above.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        #: files -> blocks -> slots; a block is a plain list of rows.
        self._files: list[list[list[Any]]] = [[[]]]
        #: Addresses minted ahead of their rows, next to land first.
        self._ahead: deque[RowId] = deque()
        self._live_rows = 0

    # -- mutation ---------------------------------------------------------

    def next_rowids(self, count: int) -> list[RowId]:
        """The addresses the next ``count`` inserts will land at, in order.

        Slots are append-only (tombstones are never reused), so these are
        a function of the heap tail alone.  A loader that must store a
        row's forward links before the linked rows exist asks for a
        document's worth; :meth:`insert` then hands out these very
        objects, so an address is minted once however early it is asked for.
        """
        ahead = self._ahead
        if len(ahead) < count:
            if ahead:
                file_no, block_no, slot_no = ahead[-1]
                slot_no += 1
            else:
                file_no = len(self._files) - 1
                block_no = len(self._files[file_no]) - 1
                slot_no = len(self._files[file_no][block_no])
            for _ in range(count - len(ahead)):
                if slot_no >= BLOCK_CAPACITY:
                    slot_no = 0
                    block_no += 1
                    if block_no >= FILE_CAPACITY:
                        file_no, block_no = file_no + 1, 0
                ahead.append(RowId(file_no, block_no, slot_no))  # lint: allow-rowid-mint(the heap file IS the physical layer that mints addresses)
                slot_no += 1
        return list(islice(ahead, count))

    def insert(self, row: tuple[Any, ...]) -> RowId:
        """Append ``row`` and return its physical address."""
        if not self._ahead:
            self.next_rowids(1)
        rowid = self._ahead.popleft()
        if rowid.file_no == len(self._files):
            self._files.append([])
        blocks = self._files[rowid.file_no]
        if rowid.block_no == len(blocks):
            blocks.append([])
        blocks[rowid.block_no].append(row)
        self._live_rows += 1
        return rowid

    def update(self, rowid: RowId, row: tuple[Any, ...]) -> None:
        """Replace the row at ``rowid`` in place."""
        self._live(rowid)[rowid.slot_no] = row

    def delete(self, rowid: RowId) -> tuple[Any, ...]:
        """Tombstone the row at ``rowid`` and return its former value."""
        block = self._live(rowid)
        old, block[rowid.slot_no] = block[rowid.slot_no], _TOMBSTONE
        self._live_rows -= 1
        return old

    def restore(self, rowid: RowId, row: tuple[Any, ...]) -> None:
        """Put ``row`` at ``rowid``, which must be the next insert's free
        slot (:meth:`insert`): a tombstone is never filled again."""
        if rowid != (self._ahead or self.next_rowids(1))[0]:
            raise RowIdError(
                f"ROWID {rowid} is not the next free slot in table {self.name}"
            )
        self.insert(row)

    # -- access -----------------------------------------------------------

    def fetch(self, rowid: RowId) -> tuple[Any, ...]:
        """Return the row at ``rowid``; O(1)."""
        return self._live(rowid)[rowid.slot_no]

    def holds(self, rowid: RowId) -> tuple[Any, ...] | None:
        """The row at ``rowid``, or None for a tombstone; an address
        with no slot raises :class:`~repro.errors.RowIdError`."""
        row = self._block(rowid)[rowid.slot_no]
        return None if row is _TOMBSTONE else row

    def exists(self, rowid: RowId) -> bool:
        """True when ``rowid`` addresses a live (non-deleted) row."""
        try:
            return self.holds(rowid) is not None
        except RowIdError:
            return False

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
        The structure is append-only, so iterating concurrently with an
        inserting writer is safe; callers wanting a stable inventory run
        this under :meth:`repro.ordbms.table.Table.stable_read`.
        """
        first_file = first_block = first_slot = 0
        if after is not None:
            if not after.is_valid:
                raise RowIdError(
                    f"invalid ROWID {after} for table {self.name}"
                )
            first_file, first_block, first_slot = after
            first_slot += 1
        for file_no in range(first_file, len(self._files)):
            blocks = self._files[file_no]
            for block_no in range(first_block, len(blocks)):
                block = blocks[block_no]
                for slot_no in range(first_slot, len(block)):
                    row = block[slot_no]
                    if row is _TOMBSTONE:
                        row = None
                    yield RowId(file_no, block_no, slot_no), row  # lint: allow-rowid-mint(the heap file IS the physical layer that mints addresses)
                first_slot = 0
            first_block = 0

    def slots_after(self, after: RowId | None, count: int, skip: int = 0) -> list[Any]:
        """What the (up to) ``count`` slots ``skip`` slots behind ``after``
        (the heap's start when None) hold — the row, None for a tombstone
        — as list slices of the blocks: :meth:`scan_all` minting no address.
        Every block but the last is full, so a slot's place is arithmetic."""
        if after is not None and not after.is_valid:
            raise RowIdError(f"invalid ROWID {after} for table {self.name}")
        file_no, block_no, slot_no = after or (0, 0, -1)
        place = (file_no * FILE_CAPACITY + block_no) * BLOCK_CAPACITY + slot_no + 1 + skip
        taken: list[Any] = []
        while len(taken) < count:
            blocks, slot_no = divmod(place + len(taken), BLOCK_CAPACITY)
            try:
                block = self._files[blocks // FILE_CAPACITY][blocks % FILE_CAPACITY]
            except IndexError:
                break
            if not (run := block[slot_no:slot_no + count - len(taken)]):
                break
            taken += run
        if _TOMBSTONE in taken:
            return [None if row is _TOMBSTONE else row for row in taken]
        return taken

    def __len__(self) -> int:
        return self._live_rows

    @property
    def block_count(self) -> int:
        """Total allocated blocks (a proxy for on-disk footprint)."""
        return sum(len(blocks) for blocks in self._files)

    # -- internals ---------------------------------------------------------

    def _block(self, rowid: RowId) -> list[Any]:
        """The block of ``rowid``'s slot; an address with no slot raises."""
        if not rowid.is_valid:
            raise RowIdError(f"invalid ROWID {rowid} for table {self.name}")
        try:
            block = self._files[rowid.file_no][rowid.block_no]
        except IndexError:
            block = []
        if rowid.slot_no >= len(block):
            raise RowIdError(f"ROWID {rowid} is out of range for table {self.name}")
        return block

    def _live(self, rowid: RowId) -> list[Any]:
        """The block of ``rowid``'s slot, which must hold a row."""
        block = self._block(rowid)
        if block[rowid.slot_no] is _TOMBSTONE:
            raise RowIdError(
                f"ROWID {rowid} addresses a deleted row in table {self.name}"
            )
        return block
