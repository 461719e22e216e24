"""Physical ROWIDs.

The paper notes that NETMARK "exploited the feature of physical row-ids in
Oracle for very fast traversal between nodes that are related."  A
physical ROWID here is a row's slot number in its table's heap
(:class:`~repro.ordbms.storage.HeapFile`): the heap is append-only and
never reuses a slot, so the number alone addresses the row's storage
directly, giving O(1) row fetch with no index lookup.

ROWIDs are immutable, hashable, and totally ordered by physical position —
a property the XML store relies on: ROWID order is document order, so
it is the only record of sibling order.
A ROWID is an ``int`` of its own type, so a plain integer — ``rowid + 1``
included — is not one: only the heap and :meth:`RowId.decode` make them.
Its one text form is the decimal slot number (``37``), stable across runs
for identical insert sequences.
"""

from __future__ import annotations

from repro.errors import RowIdError


class RowId(int):
    """Physical address of a row: its slot number in its table's heap."""

    __slots__ = ()

    #: The canonical text encoding: the slot number in decimal.
    __str__ = encode = int.__repr__

    @classmethod
    def decode(cls, text: str) -> "RowId":
        """Parse the canonical text encoding back into a :class:`RowId`.

        Only ASCII ``0`` or a digit run with no leading zero is one:
        no sign, no space, no other script's digits.

        Raises
        ------
        RowIdError
            If ``text`` is not a well-formed ROWID string.
        """
        if not (text.isascii() and text.isdigit()) or (text[0] == "0" and text != "0"):
            raise RowIdError(f"malformed ROWID text: {text!r}")
        return cls(text)
