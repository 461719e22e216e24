"""Physical ROWIDs.

The paper notes that NETMARK "exploited the feature of physical row-ids in
Oracle for very fast traversal between nodes that are related."  We model a
physical ROWID the way Oracle does conceptually: a triple of *(data file,
block, slot)* that addresses a row's storage location directly, giving O(1)
row fetch with no index lookup.

ROWIDs are immutable, hashable, and totally ordered by physical position —
a property the XML store relies on: ROWID order is document order, so
it is the only record of sibling order.
They render in an Oracle-flavoured base-32 text form (e.g.
``AAAAB3AAC``-style strings are abbreviated here to ``F0.B12.S3``) that is
stable across runs for identical insert sequences.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.errors import RowIdError

_ROWID_RE = re.compile(r"^F(\d+)\.B(\d+)\.S(\d+)$")


class RowId(NamedTuple):
    """Physical address of a row: *(file_no, block_no, slot_no)*."""

    file_no: int
    block_no: int
    slot_no: int

    def __str__(self) -> str:
        """The canonical text encoding; ``encode`` is the same method."""
        return "F%d.B%d.S%d" % self

    encode = __str__

    @classmethod
    def decode(cls, text: str) -> "RowId":
        """Parse the canonical text encoding back into a :class:`RowId`.

        Raises
        ------
        RowIdError
            If ``text`` is not a well-formed ROWID string.
        """
        match = _ROWID_RE.match(text)
        if match is None:
            raise RowIdError(f"malformed ROWID text: {text!r}")
        return cls._make(map(int, match.groups()))

    @property
    def is_valid(self) -> bool:
        """True when every component is non-negative."""
        return self.file_no >= 0 and self.block_no >= 0 and self.slot_no >= 0
