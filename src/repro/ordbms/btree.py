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

    def __len__(self) -> int:
        return self._size

    # -- mutation ----------------------------------------------------------

    def insert(self, key: Any, *rowids: RowId) -> None:
        """Add ``(key, rowid)`` for each of ``rowids``, given in ascending
        order, in one descent; duplicates of both are allowed.  A split
        propagates up the descent's path, and a root that splits gets a
        new root above it."""
        node, path = self._root, []
        while isinstance(node, _Internal):
            position = bisect.bisect_right(node.keys, key)
            path.append((node, position))
            node = node.children[position]
        self._size += len(rowids)
        position = bisect.bisect_left(node.keys, key)
        if position < len(node.keys) and node.keys[position] == key:
            held = node.values[position]
            if rowids[0] > held[-1]:
                held.extend(rowids)
            else:
                for rowid in rowids:
                    bisect.insort(held, rowid)
            return
        node.keys.insert(position, key)
        node.values.insert(position, list(rowids))
        split = self._split_leaf(node) if len(node.keys) > FANOUT else None
        while split is not None:
            separator, right = split
            if not path:
                self._root = _Internal()
                self._root.keys, self._root.children = [separator], [node, right]
                return
            node, position = path.pop()
            node.keys.insert(position, separator)
            node.children.insert(position + 1, right)
            split = self._split_internal(node) if len(node.children) > FANOUT else None

    def delete(self, key: Any, *rowids: RowId) -> int:
        """Remove ``(key, rowid)`` for each of ``rowids`` in one descent,
        each found by bisection in the key's list (never a rebuild of
        it); return how many were there."""
        leaf = self._find_leaf(key)
        position = bisect.bisect_left(leaf.keys, key)
        if position == len(leaf.keys) or leaf.keys[position] != key:
            return 0
        held, removed = leaf.values[position], 0
        for rowid in rowids:
            at = bisect.bisect_left(held, rowid)
            if at < len(held) and held[at] == rowid:
                del held[at]
                removed += 1
        if not held:
            del leaf.keys[position]
            del leaf.values[position]
        self._size -= removed
        return removed

    # -- queries -----------------------------------------------------------

    def search(self, key: Any) -> list[RowId]:
        """Return all ROWIDs with exactly ``key`` (possibly empty), in
        ROWID order: a key lives in one leaf entry, the one its descent
        reaches."""
        leaf = self._find_leaf(key)
        position = bisect.bisect_left(leaf.keys, key)
        if position < len(leaf.keys) and leaf.keys[position] == key:
            return list(leaf.values[position])
        return []

    def range(self, low: Any = None, high: Any = None) -> Iterator[tuple[Any, RowId]]:
        """Yield ``(key, rowid)`` pairs with ``low <= key <= high``, sorted;
        a ``None`` bound is open-ended."""
        if low is None:
            leaf: _Leaf | None = self._leftmost_leaf()
            position = 0
        else:
            leaf = self._find_leaf(low)
            position = bisect.bisect_left(leaf.keys, low)
        while leaf is not None:
            while position < len(leaf.keys):
                key = leaf.keys[position]
                if high is not None and key > high:
                    return
                for rowid in leaf.values[position]:
                    yield key, rowid
                position += 1
            leaf = leaf.next
            position = 0

    def items(self) -> Iterator[tuple[Any, RowId]]:
        """Yield every ``(key, rowid)`` pair in key order."""
        return self.range()

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
