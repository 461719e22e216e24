"""The result cache: an answer is replayed for as long as it cannot have changed.

Entries are keyed by the normalized semantic core of an
:class:`~repro.query.ast.XdbQuery` — what changes the answer, plus the
index mode; a replay carries the caller's own query string, so it renders
byte-identically (``tests/query/test_cache_differential``, the CI gate).

An entry carries the commit LSN ``S`` its plan read at and is judged when
read; nothing hooks the write path.  A reader at ``L == S`` is served.  A
*full, ROWID-ordered* entry (context or combined, every score 1.0, its
``limit`` filled with sections) also keeps its *spares*, the ROWIDs of
the ``limit`` candidates after its last match.  Slots are append-only and
rows never change, so at ``L > S`` the first matches are the listed and
spare sections still visible (DESIGN.md §16): the entry is served while
the listed ones fill the limit, else ``refill`` tests and resolves spares
to fill it and the answer replaces the entry.  Anything else misses, and
its store replaces the entry.  Matches are interned by ``(rowid, score,
source)``, refcounted by the entries listing them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import islice
from typing import Callable, Iterable

from repro import obs
from repro.errors import QueryError
from repro.ordbms import RowId, Table
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
Matches = tuple[SectionMatch, ...]
#: (matches, byte estimate, stamp LSN, spares — None unless full).
Entry = tuple[Matches, int, int, "tuple[RowId, ...] | None"]


class QueryCache:
    """LRU result cache keyed by normalized query, judged at each read."""

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
        # repro: guarded-by(_lock) LRU pool of immutable entries; read and
        # written by every worker thread's lookup/store.
        self._entries: OrderedDict[Key, Entry] = OrderedDict()
        # repro: guarded-by(_lock) intern table, (rowid, score, source) ->
        # [match, entries listing it]; changes with ``_entries``.
        self._shared: dict[tuple[RowId, float, str], list] = {}
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

    @staticmethod
    def key_for(query: XdbQuery, use_index: bool) -> Key:
        """Normalize the semantic core of ``query`` into a cache key."""
        context, content = query.context, query.content
        return (
            context.phrases if context is not None else None,
            (content.terms, content.mode) if content is not None else None,
            query.nodename, query.doc, query.format, query.limit, use_index,
        )

    def lookup(
        self, key: Key, lsn: int, table: Table, refill: Callable[..., Matches | None]
    ) -> Matches | None:
        """The answer ``key``'s entry gives a reader at ``lsn``, else None;
        visibility in ``table`` is read, ``refill`` run, outside the lock."""
        with self._lock:
            entry = self._entries.get(key)
        answer = None if entry is None else self._judge(key, entry, lsn, table, refill)
        with self._lock:
            if answer is None:
                self.misses += 1
            else:
                self.hits += 1
                if key in self._entries:
                    self._entries.move_to_end(key)
        if answer is None:
            obs.inc("repro_cache_misses_total", cache="result")
            return None
        obs.inc("repro_cache_hits_total", cache="result")
        return answer

    def _judge(self, key: Key, entry: Entry, lsn: int, table: Table, refill) -> Matches | None:
        matches, _, stamp, spares = entry
        if stamp == lsn:
            return matches
        if spares is None or stamp > lsn:
            return None
        listed = tuple(m for m in matches if table.visible_row(m.rowid, lsn))
        if len(listed) == len(matches):
            return matches
        spares = tuple(r for r in spares if table.visible_row(r, lsn))
        answer = refill(listed, spares) if len(listed) + len(spares) >= len(matches) else None
        if answer is not None:
            self._admit(key, answer, lsn, tuple(r for r in spares if r > answer[-1].rowid))
        return answer

    def store(
        self, key: Key, query: XdbQuery, matches: list[SectionMatch], lsn: int,
        ranked: Iterable[RowId],
    ) -> None:
        """Admit ``query``'s complete answer of resolved matches, read at
        ``lsn``, under ``key`` in place of whatever entry is there;
        ``ranked`` is its plan's candidates in rank order."""
        full = (
            query.kind in {"context", "combined"} and matches and len(matches) == query.limit
            and all(match.rowid is not None for match in matches)
        )
        last = matches[-1].rowid if full else None
        spares = tuple(islice((r for r in ranked if r > last), query.limit)) if full else None
        self._admit(key, matches, lsn, spares)

    def _admit(self, key: Key, matches: Iterable[SectionMatch], lsn: int, spares) -> None:
        size = sum(len(m.context) + len(m.content) + _MATCH_OVERHEAD for m in matches)
        evicted = 0
        with self._lock:
            # Interned before the old entry lets go of what they share.
            entry = (tuple(map(self._intern, matches)), size, lsn, spares)
            old = self._entries.pop(key, None)
            if old is not None:
                self._release(old)
            self._entries[key] = entry
            self._bytes += size
            while (
                len(self._entries) > self.capacity
                or (self._bytes > self.max_bytes and len(self._entries) > 1)
            ):
                self._release(self._entries.popitem(last=False)[1])
                self.evictions += 1
                evicted += 1
            total_bytes = self._bytes
        if evicted:
            obs.inc("repro_cache_evictions_total", evicted, cache="result")
        obs.set_gauge("repro_cache_bytes", total_bytes, cache="result")

    def clear(self) -> None:
        """Drop every entry: a row was edited in place (``fsck --repair``)."""
        with self._lock:
            self._entries.clear()
            self._shared.clear()
            self._bytes = 0
        obs.set_gauge("repro_cache_bytes", 0, cache="result")

    def _intern(self, match: SectionMatch) -> SectionMatch:
        """The one match held for this section at this score (under the lock)."""
        if match.rowid is None:
            return match
        slot = self._shared.setdefault((match.rowid, match.score, match.source), [match, 0])
        slot[1] += 1
        return slot[0]

    def _release(self, entry: Entry) -> None:
        """Take ``entry``'s bytes and references out (under the lock)."""
        self._bytes -= entry[1]
        for match in entry[0]:
            if match.rowid is not None:
                shared = (match.rowid, match.score, match.source)
                self._shared[shared][1] -= 1
                if not self._shared[shared][1]:
                    del self._shared[shared]

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
