"""The commit-LSN-keyed result cache.

A :class:`QueryCache` memoizes complete engine answers.  The key is the
*normalized semantic core* of an :class:`~repro.query.ast.XdbQuery` —
every field that changes what the engine returns (context phrases,
content terms + mode, nodename, doc/format filters, limit, index mode)
— plus one **version stamp**, the commit LSN of the store state the
answer was computed against (the pin's LSN, or what a snapshot opened
now would pin), captured **before** the plan runs.  MVCC makes a result
at LSN *S* eternally valid for readers at *S*; a new request presents
the same stamp only when nothing has committed since, so an entry is
never served across a commit.  If a write raced the stamp, the entry
was keyed at the pre-write LSN and is simply unreachable.  Entries
below the storing reader's LSN are purged on the next store.

Presentation fields (stylesheet, databank, trace, explain, deadline,
extras) are *excluded* from the key: they do not change the match list,
and the replayed :class:`~repro.query.results.ResultSet` is rebuilt with
the caller's own query string, so ``<results query="...">`` renders
exactly as an uncached run would.  Byte-identity of the rendered XML is
the cache's contract, enforced by ``tests/query/test_cache_differential``
and the CI differential gate.

Only *complete* answers are stored (never partial or deadline-truncated
ones), each match resolved and its ``<result>`` built before admission
(:meth:`SectionMatch.resolve`): the plan's accessor dies with the request.
An entry holds the elements it renders — immutable, shared across threads,
listed and never copied by a replay; the single lock makes the hit path
one dict probe under the PR 8 worker pool.  ``Explain`` runs always bypass
the cache: a plan tree is diagnostics, not an answer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro import obs
from repro.errors import QueryError
from repro.query.ast import XdbQuery
from repro.query.results import SectionMatch

__all__ = ["QueryCache"]

#: Per-match bookkeeping overhead used by the byte estimate (object
#: headers, key share); the estimate bounds memory, it is not an audit.
_MATCH_OVERHEAD = 128

#: Default entry/byte bounds: enough for a busy server's hot set while
#: keeping worst-case memory obvious in a code review.
DEFAULT_CAPACITY = 256
DEFAULT_MAX_BYTES = 8 * 1024 * 1024

Key = tuple


class QueryCache:
    """LRU result cache, keyed by (normalized query, store version)."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        if capacity <= 0:
            raise QueryError("QueryCache capacity must be positive")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        # repro: guarded-by(_lock) LRU pool of immutable entries,
        # key -> (matches tuple, byte estimate); read and written by
        # every worker thread's lookup/store.
        self._entries: OrderedDict[
            Key, tuple[tuple[SectionMatch, ...], int]
        ] = OrderedDict()
        # repro: guarded-by(_lock) running byte estimate of the pool,
        # mirrored to the repro_cache_bytes gauge outside the lock.
        self._bytes = 0
        # repro: guarded-by(_lock) work counters (hit/miss/eviction),
        # published as repro_cache_* series after each operation.
        self.hits = 0
        # repro: guarded-by(_lock) see ``hits``.
        self.misses = 0
        # repro: guarded-by(_lock) see ``hits``.
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- keying -------------------------------------------------------------

    @staticmethod
    def key_for(query: XdbQuery, use_index: bool, version: int) -> Key:
        """Normalize the semantic core of ``query`` into a cache key."""
        return (
            query.context.phrases if query.context is not None else None,
            (
                (query.content.terms, query.content.mode)
                if query.content is not None
                else None
            ),
            query.nodename,
            query.doc,
            query.format,
            query.limit,
            use_index,
            version,
        )

    # -- entry access -------------------------------------------------------

    def lookup(self, key: Key) -> tuple[SectionMatch, ...] | None:
        """The cached matches for ``key``, or None on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        if entry is None:
            obs.inc("repro_cache_misses_total", cache="result")
            return None
        obs.inc("repro_cache_hits_total", cache="result")
        return entry[0]

    def store(
        self, key: Key, matches: list[SectionMatch], version: int
    ) -> None:
        """Admit a complete answer of resolved matches under ``key``.

        ``version`` is the stamp inside ``key``; entries stamped below
        it are purged (the invalidation-on-commit sweep — cheap, because
        the pool is small and the sweep runs only on misses).
        """
        frozen = tuple(matches)
        size = sum(
            len(match.context) + len(match.content) + _MATCH_OVERHEAD
            for match in frozen
        )
        evicted = 0
        with self._lock:
            stale = [
                old_key for old_key in self._entries if old_key[-1] < version
            ]
            for old_key in stale:
                self._bytes -= self._entries.pop(old_key)[1]
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (frozen, size)
            self._bytes += size
            while (
                len(self._entries) > self.capacity
                or (self._bytes > self.max_bytes and len(self._entries) > 1)
            ):
                _, (_, old_size) = self._entries.popitem(last=False)
                self._bytes -= old_size
                self.evictions += 1
                evicted += 1
            total_bytes = self._bytes
        if evicted:
            obs.inc("repro_cache_evictions_total", evicted, cache="result")
        obs.set_gauge("repro_cache_bytes", total_bytes, cache="result")

    # -- introspection ------------------------------------------------------

    def snapshot_counters(self) -> dict[str, int]:
        """A consistent copy of the work counters (tests, benches)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "bytes": self._bytes,
            }
