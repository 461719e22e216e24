"""The shared memo pool: immutable facts about stored rows.

A :class:`~repro.store.accessor.NodeAccessor` memoizes its structural
walks — governing contexts, section scopes, titles,
texts — and the catalog entries its plan asks for, but only for its own
lifetime, which is one query.  A :class:`LiftCache` is the cross-query
tier: one instance lives on the :class:`~repro.store.xmlstore.XmlStore`
and every cache-enabled accessor reads through it.

There is nothing to invalidate (DESIGN.md §16).  A node row is written
once, complete, and never patched; the heap never reuses a tombstoned
ROWID and doc ids only count up; a document is loaded, and deleted, in
one transaction.  So for every reader that can see a row at all, the
lift of that row is a pure function of its ROWID, and a catalog entry a
pure function of its doc id — whichever reader computed it, at whatever
commit LSN.  A deleted document's entries are unreachable (no probe
hands out its ROWIDs any more), not wrong, and the LRU bound is what
reclaims them.  The one writer that does change rows in place is
``fsck --repair``; :meth:`~repro.netmark.Netmark.fsck` calls
:meth:`LiftCache.clear` after it.

Every accessor reads at a commit LSN that shows a transaction whole or
not at all, so a half-loaded document's partial section can never enter
the pool.  Values are rowids, rowid tuples, strings and frozen catalog
entries — shared across threads, mutated by no one; the lock guards the
LRU order and the counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

from repro import obs
from repro.errors import StoreError

#: Cache-miss sentinel (``None`` is a legal cached lift value).
MISS: Any = object()

#: Default entry bound — roughly "a few hundred documents' worth of hot
#: sections"; evictions are counted, so a too-small bound is visible.
DEFAULT_CAPACITY = 8192


class LiftCache:
    """Cross-query LRU of immutable row facts, one per store."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise StoreError("LiftCache capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        # repro: guarded-by(_lock) LRU pool, (kind, rowid-or-doc-id) -> value.
        self._entries: OrderedDict[tuple[str, Hashable], Any] = OrderedDict()
        # repro: guarded-by(_lock) work counters, published as
        # repro_cache_* series by the callers that drain them.
        self.hits = 0
        # repro: guarded-by(_lock) see ``hits``.
        self.misses = 0
        # repro: guarded-by(_lock) see ``hits``.
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, kind: str, key: Hashable) -> Any:
        """The memoized ``kind`` fact about ``key``, or :data:`MISS`."""
        entry = (kind, key)
        with self._lock:
            value = self._entries.get(entry, MISS)
            if value is MISS:
                self.misses += 1
            else:
                self._entries.move_to_end(entry)
                self.hits += 1
            return value

    def put(self, kind: str, key: Hashable, value: Any) -> None:
        """Admit a computed fact, evicting the least recently used."""
        entry = (kind, key)
        with self._lock:
            self._entries[entry] = value
            self._entries.move_to_end(entry)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                obs.inc("repro_cache_evictions_total", cache="lift")

    def clear(self) -> None:
        """Forget everything — for the one writer that edits rows in
        place (``fsck --repair``)."""
        with self._lock:
            self._entries.clear()

    def snapshot_counters(self) -> dict[str, int]:
        """A consistent copy of the work counters (tests, /metrics)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
            }
