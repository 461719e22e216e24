"""Slotted-page heap storage with physical ROWIDs.

Rows live in fixed-capacity *blocks* grouped into *data files*; a row's
:class:`~repro.ordbms.rowid.RowId` is its ``(file, block, slot)`` address.
A fetch by ROWID is two list lookups — the O(1) access path the paper's
parent/sibling traversal depends on.

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
        block = self._block(rowid)
        self._check_live(block, rowid)
        block[rowid.slot_no] = row

    def delete(self, rowid: RowId) -> tuple[Any, ...]:
        """Tombstone the row at ``rowid`` and return its former value."""
        block = self._block(rowid)
        self._check_live(block, rowid)
        old = block[rowid.slot_no]
        block[rowid.slot_no] = _TOMBSTONE
        self._live_rows -= 1
        return old

    def restore(self, rowid: RowId, row: tuple[Any, ...]) -> None:
        """Un-tombstone ``rowid`` with ``row`` (transaction rollback only).

        Restoring into the original slot keeps the ROWID stable, which is
        what lets undo records later in the log keep referring to it.
        """
        block = self._block(rowid)
        if rowid.slot_no >= len(block):
            raise RowIdError(
                f"ROWID {rowid} is out of range for table {self.name}"
            )
        if block[rowid.slot_no] is not _TOMBSTONE:
            raise RowIdError(
                f"ROWID {rowid} is not a deleted slot in table {self.name}"
            )
        block[rowid.slot_no] = row
        self._live_rows += 1

    # -- access -----------------------------------------------------------

    def fetch(self, rowid: RowId) -> tuple[Any, ...]:
        """Return the row at ``rowid``; O(1)."""
        block = self._block(rowid)
        self._check_live(block, rowid)
        return block[rowid.slot_no]

    def exists(self, rowid: RowId) -> bool:
        """True when ``rowid`` addresses a live (non-deleted) row."""
        try:
            block = self._block(rowid)
        except RowIdError:
            return False
        if rowid.slot_no >= len(block):
            return False
        return block[rowid.slot_no] is not _TOMBSTONE

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

    def __len__(self) -> int:
        return self._live_rows

    @property
    def block_count(self) -> int:
        """Total allocated blocks (a proxy for on-disk footprint)."""
        return sum(len(blocks) for blocks in self._files)

    # -- internals ---------------------------------------------------------

    def _block(self, rowid: RowId) -> list[Any]:
        if not rowid.is_valid:
            raise RowIdError(f"invalid ROWID {rowid} for table {self.name}")
        try:
            return self._files[rowid.file_no][rowid.block_no]
        except IndexError:
            raise RowIdError(
                f"ROWID {rowid} is out of range for table {self.name}"
            ) from None

    def _check_live(self, block: list[Any], rowid: RowId) -> None:
        if rowid.slot_no >= len(block):
            raise RowIdError(
                f"ROWID {rowid} is out of range for table {self.name}"
            )
        if block[rowid.slot_no] is _TOMBSTONE:
            raise RowIdError(
                f"ROWID {rowid} addresses a deleted row in table {self.name}"
            )
