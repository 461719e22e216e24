"""The shared structural-lift memo cache (PR 10 tentpole, part 2).

A :class:`~repro.store.accessor.NodeAccessor` memoizes its structural
walks — governing contexts, context ancestors, section scopes, titles
and texts — but only for its own lifetime, which is one query.  Hot
workloads re-run the same lifts for every query: the governing-lift walk
over a popular section is recomputed from scratch each time even though
nothing changed.  A :class:`LiftCache` is the cross-query fix — one
instance lives on the :class:`~repro.store.xmlstore.XmlStore` and every
cache-enabled accessor reads through it.

Correctness model (see DESIGN.md §16):

* **One write-generation source of truth.**  Entries are only served to
  an accessor whose *version token* matches the cache's recorded
  position: live accessors present ``("gen", xml_table.generation)``,
  snapshot-pinned accessors present ``("lsn", snapshot.lsn)``.  The
  cache's position advances exactly when the store commits a document
  write (:meth:`note_write`, called by the store's ingest/delete hooks)
  — the same ``Table.generation`` counter that invalidates the
  accessor's private memos, so the two layers can never disagree about
  what "current" means.
* **Per-document invalidation.**  ``note_write`` drops only the changed
  document's entries; every other document's walks stay warm.  A
  generation move the store did *not* announce (direct database writes,
  WAL apply on a follower) trips :meth:`observe` and clears everything —
  the safe default for writers the facade does not see.
* **Snapshot isolation.**  A pinned reader's token is its commit LSN and
  never moves; the moment any write commits, the cache's LSN advances
  and the pinned reader simply stops matching.  A pinned reader
  therefore never sees an entry newer than its snapshot, and entries it
  admits were computed *from pinned reads* — valid for the live view too
  while the LSN has not moved, unreachable afterwards.
* **Admission, not locking, for staleness.**  Readers compute outside
  the lock; :meth:`put` re-checks the token under the lock and silently
  drops entries computed against a view the cache has moved past
  (the stale-put TOCTOU race under the worker pool).

Values are immutable (rowids, rowid tuples, strings), so a served entry
can be shared freely across threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro import obs
from repro.errors import StoreError
from repro.ordbms import RowId

#: Cache-miss sentinel (``None`` is a legal cached lift value).
MISS: Any = object()

#: Version token: ``("gen", table-generation)`` for live accessors,
#: ``("lsn", snapshot-lsn)`` for pinned ones.
Token = tuple[str, int]

#: Default entry bound — roughly "a few hundred documents' worth of hot
#: sections"; evictions are counted, so a too-small bound is visible.
DEFAULT_CAPACITY = 8192


class LiftCache:
    """Cross-query memo for structural lifts, one per store."""

    def __init__(
        self, generation: int = 0, lsn: int = 0,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity <= 0:
            raise StoreError("LiftCache capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        # repro: guarded-by(_lock) the write position the pool reflects;
        # advanced by note_write/observe, compared on every get/put.
        self._generation = generation
        # repro: guarded-by(_lock) commit LSN twin of _generation, the
        # token snapshot-pinned accessors are admitted against.
        self._lsn = lsn
        # repro: guarded-by(_lock) LRU pool, (doc, kind, rowid) -> value.
        self._entries: OrderedDict[tuple[int, str, RowId], Any] = (
            OrderedDict()
        )
        # repro: guarded-by(_lock) doc -> its keys, for per-doc drops.
        self._doc_keys: dict[int, set[tuple[int, str, RowId]]] = {}
        # repro: guarded-by(_lock) work counters, published as
        # repro_cache_* series by the callers that drain them.
        self.hits = 0
        # repro: guarded-by(_lock) see ``hits``.
        self.misses = 0
        # repro: guarded-by(_lock) see ``hits``.
        self.evictions = 0
        # repro: guarded-by(_lock) full clears + per-doc drops.
        self.invalidations = 0
        # repro: guarded-by(_lock) stale puts rejected by admission.
        self.rejected_puts = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- version tracking ---------------------------------------------------

    def _current(self, token: Token) -> bool:
        kind, position = token
        if kind == "gen":
            return position == self._generation
        return position == self._lsn

    def note_write(self, generation: int, lsn: int, doc_id: int) -> None:
        """Advance past a committed document write; drop that doc only."""
        with self._lock:
            self._drop_doc(doc_id)
            self._generation = generation
            self._lsn = lsn
            self.invalidations += 1

    def observe(self, generation: int, lsn: int) -> None:
        """Catch up with a write the store did not announce.

        Called by live accessors whose generation guard tripped.  If the
        cache already sits at ``generation`` (the common case: the
        store's own hooks ran first) this is a no-op; otherwise some
        writer bypassed the facade and nothing can be trusted — clear
        the pool wholesale.
        """
        with self._lock:
            if generation == self._generation:
                return
            self._entries.clear()
            self._doc_keys.clear()
            self._generation = generation
            self._lsn = lsn
            self.invalidations += 1

    def _drop_doc(self, doc_id: int) -> None:
        for key in self._doc_keys.pop(doc_id, ()):
            self._entries.pop(key, None)

    # -- entry access -------------------------------------------------------

    def get(
        self, doc_id: int, kind: str, rowid: RowId, token: Token
    ) -> Any:
        """The memoized lift value, or :data:`MISS`."""
        key = (doc_id, kind, rowid)
        with self._lock:
            if not self._current(token) or key not in self._entries:
                self.misses += 1
                return MISS
            self._entries.move_to_end(key)
            self.hits += 1
            return self._entries[key]

    def put(
        self, doc_id: int, kind: str, rowid: RowId, value: Any,
        token: Token,
    ) -> None:
        """Admit a computed lift — unless the world moved meanwhile."""
        key = (doc_id, kind, rowid)
        with self._lock:
            if not self._current(token):
                # Computed against a view the cache has moved past (or
                # not yet caught up with): admitting it could serve a
                # walk from the wrong generation.  Drop it.
                self.rejected_puts += 1
                return
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._doc_keys.setdefault(doc_id, set()).add(key)
            while len(self._entries) > self.capacity:
                old_key, _ = self._entries.popitem(last=False)
                self._doc_keys.get(old_key[0], set()).discard(old_key)
                self.evictions += 1
                obs.inc("repro_cache_evictions_total", cache="lift")

    # -- introspection ------------------------------------------------------

    def snapshot_counters(self) -> dict[str, int]:
        """A consistent copy of the work counters (tests, /metrics)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "rejected_puts": self.rejected_puts,
                "entries": len(self._entries),
            }
