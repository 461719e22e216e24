"""A B+tree secondary index.

Keys are arbitrary comparable Python values (the engine only indexes one
type per column, so heterogeneous comparisons never arise).  Duplicate keys
are supported — each leaf entry holds the list of ROWIDs carrying that key,
which is exactly what the NETMARK ``XML`` table needs for columns such as
``NODENAME`` where many nodes share a value.  Each list is kept in ROWID
(physical) order: rows arrive in that order, so adding one is an append,
and un-indexing one row of a low-cardinality column such as ``NODETYPE``
is a binary search rather than thousands of tuple compares.

The implementation is a textbook order-``FANOUT`` B+tree: leaves are linked
left-to-right for range scans, internal nodes hold separator keys, splits
propagate upward, and deletes use lazy underflow (entries are removed but
nodes are not rebalanced — fine for an index whose workload is
insert-mostly, and it keeps the invariants easy to state and property-test:
sorted keys in every node, all leaves at the same depth reachable via the
leaf chain).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator

from repro.ordbms.rowid import RowId

#: Maximum children per internal node / entries per leaf.
FANOUT = 32


class _Leaf:
    __slots__ = ("keys", "values", "next")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.values: list[list[RowId]] = []
        self.next: _Leaf | None = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.children: list[Any] = []


class BTreeIndex:
    """A B+tree mapping keys to lists of ROWIDs."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._root: _Leaf | _Internal = _Leaf()
        self._size = 0  # number of (key, rowid) pairs
        #: Plain probe tally.  ``search`` runs once per tree hop on the
        #: read path (thousands per query), so it must not pay a metrics
        #: dispatch — callers publish this at call/query granularity.
        self.probes = 0

    def __len__(self) -> int:
        return self._size

    # -- mutation ----------------------------------------------------------

    def insert(self, key: Any, rowid: RowId) -> None:
        """Add ``(key, rowid)``; duplicates of both are allowed."""
        split = self._insert(self._root, key, rowid)
        if split is not None:
            separator, right = split
            new_root = _Internal()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
        self._size += 1

    def delete(self, key: Any, rowid: RowId) -> bool:
        """Remove one ``(key, rowid)`` pair; return False if absent."""
        leaf = self._find_leaf(key)
        position = bisect.bisect_left(leaf.keys, key)
        while position < len(leaf.keys) and leaf.keys[position] == key:
            rowids = leaf.values[position]
            at = bisect.bisect_left(rowids, rowid)
            if at < len(rowids) and rowids[at] == rowid:
                del rowids[at]
                if not rowids:
                    del leaf.keys[position]
                    del leaf.values[position]
                self._size -= 1
                return True
            position += 1
            if position >= len(leaf.keys) and leaf.next is not None:
                leaf = leaf.next
                position = 0
        return False

    # -- queries -----------------------------------------------------------

    def search(self, key: Any) -> list[RowId]:
        """Return all ROWIDs with exactly ``key`` (possibly empty), in ROWID order."""
        self.probes += 1
        result: list[RowId] = []
        leaf: _Leaf | None = self._find_leaf(key)
        position = bisect.bisect_left(leaf.keys, key)
        while leaf is not None:
            while position < len(leaf.keys) and leaf.keys[position] == key:
                result.extend(leaf.values[position])
                position += 1
            if position < len(leaf.keys):
                return result
            leaf = leaf.next
            position = 0
        return result

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, RowId]]:
        """Yield ``(key, rowid)`` pairs with ``low <= key <= high``, sorted.

        ``None`` bounds are open-ended; the ``include_*`` flags make each
        bound strict when False.
        """
        if low is None:
            leaf: _Leaf | None = self._leftmost_leaf()
            position = 0
        else:
            leaf = self._find_leaf(low)
            if include_low:
                position = bisect.bisect_left(leaf.keys, low)
            else:
                position = bisect.bisect_right(leaf.keys, low)
        while leaf is not None:
            while position < len(leaf.keys):
                key = leaf.keys[position]
                if high is not None:
                    if include_high and key > high:
                        return
                    if not include_high and key >= high:
                        return
                for rowid in leaf.values[position]:
                    yield key, rowid
                position += 1
            leaf = leaf.next
            position = 0

    def items(self) -> Iterator[tuple[Any, RowId]]:
        """Yield every ``(key, rowid)`` pair in key order."""
        return self.range()

    def keys(self) -> Iterator[Any]:
        """Yield distinct keys in order."""
        leaf: _Leaf | None = self._leftmost_leaf()
        while leaf is not None:
            yield from leaf.keys
            leaf = leaf.next

    @property
    def depth(self) -> int:
        """Height of the tree (1 for a lone leaf)."""
        node = self._root
        height = 1
        while isinstance(node, _Internal):
            node = node.children[0]
            height += 1
        return height

    # -- internals -----------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            position = bisect.bisect_right(node.keys, key)
            node = node.children[position]
        return node

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node

    def _insert(
        self, node: _Leaf | _Internal, key: Any, rowid: RowId
    ) -> tuple[Any, _Leaf | _Internal] | None:
        """Recursive insert; returns ``(separator, new_right)`` on split."""
        if isinstance(node, _Leaf):
            position = bisect.bisect_left(node.keys, key)
            if position < len(node.keys) and node.keys[position] == key:
                rowids = node.values[position]
                if rowid > rowids[-1]:
                    rowids.append(rowid)
                else:
                    bisect.insort(rowids, rowid)
                return None
            node.keys.insert(position, key)
            node.values.insert(position, [rowid])
            if len(node.keys) > FANOUT:
                return self._split_leaf(node)
            return None

        position = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[position], key, rowid)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(position, separator)
        node.children.insert(position + 1, right)
        if len(node.children) > FANOUT:
            return self._split_internal(node)
        return None

    @staticmethod
    def _split_leaf(leaf: _Leaf) -> tuple[Any, _Leaf]:
        middle = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[middle:]
        right.values = leaf.values[middle:]
        right.next = leaf.next
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        leaf.next = right
        return right.keys[0], right

    @staticmethod
    def _split_internal(node: _Internal) -> tuple[Any, _Internal]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Internal()
        right.keys = node.keys[middle + 1:]
        right.children = node.children[middle + 1:]
        node.keys = node.keys[:middle]
        node.children = node.children[:middle + 1]
        return separator, right
