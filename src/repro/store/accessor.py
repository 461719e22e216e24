"""Batched, memoized node access for the read path.

The paper's traversal story (§2.1.4) is ROWID hops — each parent /
sibling / child step is an O(1) physical fetch.  Correct, but the seed
implementation paid one *point* ``Table.fetch`` per hop and re-fetched
the same rows again and again while walking overlapping sections.  A
:class:`NodeAccessor` is the per-query fix:

* **batching** — rowid lists (index postings, child sets, subtree
  frontiers) are pulled through :meth:`~repro.ordbms.table.Table.fetch_many`
  in one call instead of N;
* **memoization** — node rows, child sets, governing contexts, section
  scopes and titles are computed once per accessor and reused across
  every operator of a query plan (and across the lazy
  :class:`~repro.query.results.SectionMatch` resolutions that follow);
* **invalidation** — every cache is guarded by the XML table's
  write-generation counter; any insert/update/delete/restore moves the
  counter and the next read through the accessor drops all cached state
  before answering.  A stale answer is therefore impossible: laziness
  never outlives a write.
* **snapshot pinning** — constructed with a
  :class:`~repro.ordbms.mvcc.Snapshot`, the accessor reads *through* the
  pin instead: every row resolves to its version as of the snapshot's
  commit LSN, index probes are patched with the rows that changed since
  (generation-aware probing), and the caches never invalidate — the
  pinned view cannot go stale because it never moves.  This is what lets
  a whole query (plan operators plus lazy match resolution) execute
  against one consistent generation while ingest runs concurrently.
* **shared lifts** — constructed with a
  :class:`~repro.store.liftcache.LiftCache` (cache-enabled query
  engines pass the store's), the five structural memos additionally
  read through the cross-query pool, so a lift one query computed is a
  hit for the next.  The pool is keyed by the *same* write-generation
  counter that guards the private memos (live mode) or by the pinned
  commit LSN (snapshot mode), so shared state can never outlive a write
  the private memos would have noticed — one source of truth, two cache
  tiers.

Accessors are cheap to construct; the query engine makes one per query,
and an :class:`~repro.store.xmlstore.XmlStore` keeps a long-lived one for
reconstruction.  This class is the only traversal implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.errors import RowIdError
from repro.ordbms import Database, RowId, Snapshot
from repro.ordbms.table import ROWID_PSEUDO
from repro.ordbms.textindex import TextIndex
from repro.sgml.nodetypes import NodeType
from repro.store.liftcache import MISS as _SHARED_MISS
from repro.store.liftcache import LiftCache
from repro.store.schema import XML_TABLE

Row = dict[str, Any]

#: Cache-miss sentinel (``None`` is a legal memoized value).
_MISS: Any = object()


@dataclass
class AccessorStats:
    """Work counters for one accessor — the bench's hop/fetch evidence."""

    point_fetches: int = 0
    batch_fetches: int = 0
    rows_fetched: int = 0
    cache_hits: int = 0
    parent_hops: int = 0
    sibling_hops: int = 0
    child_lookups: int = 0
    invalidations: int = 0
    #: Cross-query :class:`~repro.store.liftcache.LiftCache` traffic
    #: (zero unless the accessor was built with a shared pool).
    shared_hits: int = 0
    shared_misses: int = 0

    def reset(self) -> None:
        for field_name in self.__dataclass_fields__:
            setattr(self, field_name, 0)


class NodeAccessor:
    """Memoizing, batch-fetching view over one store's XML table."""

    def __init__(
        self,
        database: Database,
        snapshot: Snapshot | None = None,
        lifts: LiftCache | None = None,
    ) -> None:
        self.database = database
        self.table = database.table(XML_TABLE)
        self.stats = AccessorStats()
        #: Pinned MVCC snapshot; None means "live" (generation-guarded).
        self.snapshot = snapshot
        #: Cross-query lift pool; None means "private memos only".
        self._lifts = lifts
        self._generation = (
            snapshot.lsn if snapshot is not None else self.table.generation
        )
        self._rows: dict[RowId, Row] = {}
        self._children: dict[int, tuple[RowId, ...]] = {}
        self._governing: dict[RowId, RowId | None] = {}
        self._ancestor: dict[RowId, RowId | None] = {}
        self._scopes: dict[RowId, tuple[RowId, ...]] = {}
        self._titles: dict[RowId, str] = {}
        self._texts: dict[RowId, str] = {}

    # -- generation guard ---------------------------------------------------

    def _sync(self) -> None:
        """Drop every cache if the table has been written to since."""
        if self.snapshot is not None:
            return  # the pinned view never moves, so caches never stale
        generation = self.table.generation
        if generation != self._generation:
            self._generation = generation
            self.stats.invalidations += 1
            self._rows.clear()
            self._children.clear()
            self._governing.clear()
            self._ancestor.clear()
            self._scopes.clear()
            self._titles.clear()
            self._texts.clear()
            if self._lifts is not None:
                # Same tripwire, same counter: if the store's write hooks
                # already advanced the shared pool this is a no-op; a
                # write that bypassed the facade clears it wholesale.
                self._lifts.observe(generation, self.database.mvcc.lsn)

    @property
    def generation(self) -> int:
        """The table write generation this accessor's caches reflect."""
        return self._generation

    # -- shared lift pool ---------------------------------------------------

    def _lift_token(self) -> tuple[str, int]:
        """The version this accessor's reads are valid at (see LiftCache)."""
        if self.snapshot is not None:
            return ("lsn", self.snapshot.lsn)
        return ("gen", self._generation)

    def _lift_get(self, row: Row, kind: str, rowid: RowId) -> Any:
        if self._lifts is None:
            return _SHARED_MISS
        value = self._lifts.get(
            row["DOC_ID"], kind, rowid, self._lift_token()
        )
        if value is _SHARED_MISS:
            self.stats.shared_misses += 1
        else:
            self.stats.shared_hits += 1
        return value

    def _lift_put(self, row: Row, kind: str, rowid: RowId, value: Any) -> None:
        if self._lifts is not None:
            self._lifts.put(
                row["DOC_ID"], kind, rowid, value, self._lift_token()
            )

    # -- row access ---------------------------------------------------------

    def node(self, rowid: RowId) -> Row:
        """One node row by physical ROWID, memoized."""
        self._sync()
        row = self._rows.get(rowid)
        if row is not None:
            self.stats.cache_hits += 1
            return row
        if self.snapshot is not None:
            pinned = self.table.visible_row(rowid, self.snapshot.lsn)
            if pinned is None:
                raise RowIdError(
                    f"ROWID {rowid} is not visible at LSN "
                    f"{self.snapshot.lsn}"
                )
            row = pinned
        else:
            row = self.database.fetch(XML_TABLE, rowid)
        self.stats.point_fetches += 1
        self.stats.rows_fetched += 1
        self._rows[rowid] = row
        return row

    def _fetch_batch(self, rowids: list[RowId]) -> list[Row]:
        """One batched fetch, through the pin when one is set."""
        if self.snapshot is not None:
            return self.table.visible_many(rowids, self.snapshot.lsn)
        return self.database.fetch_many(XML_TABLE, rowids)

    def nodes(self, rowids: Sequence[RowId]) -> list[Row]:
        """Rows for ``rowids`` in order; missing ones come in ONE batch."""
        self._sync()
        missing = [rowid for rowid in rowids if rowid not in self._rows]
        if missing:
            fetched = self._fetch_batch(missing)
            self.stats.batch_fetches += 1
            self.stats.rows_fetched += len(fetched)
            for row in fetched:
                self._rows[row[ROWID_PSEUDO]] = row
        self.stats.cache_hits += len(rowids) - len(missing)
        return [self._rows[rowid] for rowid in rowids]

    def prefetch_ancestors(self, rows: Sequence[Row]) -> None:
        """Warm the cache with every proper ancestor of ``rows``.

        One batched fetch per tree *level* instead of one point fetch per
        parent hop: the lifts call this before walking a whole candidate
        set upward, so the subsequent per-row walks run entirely against
        cached rows.  Purely a cache warmer — results are unaffected.
        """
        self._sync()
        frontier = {
            row["PARENTROWID"]
            for row in rows
            if row["PARENTROWID"] is not None
        }
        while frontier:
            missing = [
                rowid for rowid in frontier if rowid not in self._rows
            ]
            if missing:
                fetched = self._fetch_batch(missing)
                self.stats.batch_fetches += 1
                self.stats.rows_fetched += len(fetched)
                for row in fetched:
                    self._rows[row[ROWID_PSEUDO]] = row
            frontier = {
                self._rows[rowid]["PARENTROWID"]
                for rowid in frontier
                if self._rows[rowid]["PARENTROWID"] is not None
            }

    # -- single hops ---------------------------------------------------------

    def parent(self, row: Row) -> Row | None:
        """Follow ``PARENTROWID`` up one level (None at the root)."""
        parent_rowid = row["PARENTROWID"]
        if parent_rowid is None:
            return None
        self.stats.parent_hops += 1
        return self.node(parent_rowid)

    def next_sibling(self, row: Row) -> Row | None:
        """Follow ``SIBLINGID`` across one hop (None for the last child)."""
        sibling_rowid = row["SIBLINGID"]
        if sibling_rowid is None:
            return None
        self.stats.sibling_hops += 1
        return self.node(sibling_rowid)

    def children(self, row: Row) -> list[Row]:
        """Direct children in document order — one batched fetch."""
        self._sync()
        node_id = row["NODEID"]
        cached = self._children.get(node_id)
        if cached is not None:
            self.stats.cache_hits += 1
            return [self._rows[rowid] for rowid in cached]
        self.stats.child_lookups += 1
        if self.snapshot is not None:
            child_rows = self.table.snapshot_search(
                "PARENTNODEID", node_id, self.snapshot.lsn
            )
        else:
            index = self.table.index_on("PARENTNODEID")  # schema-created
            child_rows = self.nodes(index.search(node_id))
        child_rows.sort(key=lambda child: child["ORDINAL"])
        for child in child_rows:
            self._rows[child[ROWID_PSEUDO]] = child
        self._children[node_id] = tuple(
            child[ROWID_PSEUDO] for child in child_rows
        )
        return child_rows

    # -- generation-aware probes (MVCC) -----------------------------------------

    def probe_text(
        self,
        lookup: Callable[[TextIndex], Iterable[RowId]],
        predicate: Callable[[str], bool],
    ) -> list[RowId]:
        """A text-index probe whose result is correct *as of the pin*.

        ``lookup`` runs the raw probe against the live NODEDATA index;
        ``predicate`` re-evaluates the probe's semantics against a row's
        visible NODEDATA.  Live mode: exactly the raw probe.  Snapshot
        mode: rows unchanged since the pin keep the index's verdict,
        while every row that changed after the pin (updated, deleted, or
        inserted — whether or not it is still in the postings) is
        re-judged on its pinned text.  The probe runs before the
        changed-set read, so a racing statement either lands in the
        postings we read or in the changed set we read after — never in
        neither.
        """
        index = self.table.text_index_on("NODEDATA")
        if index is None:
            return []
        if self.snapshot is None:
            return list(lookup(index))
        pin = self.snapshot.lsn
        current = self.table.stable_read(lambda: set(lookup(index)))
        changed = self.table.changed_rowids_since(pin)
        visible = sorted(current - changed)
        for rowid in sorted(changed):
            row = self.table.visible_row(rowid, pin)
            if row is None:
                continue
            data = row.get("NODEDATA")
            if isinstance(data, str) and data and predicate(data):
                visible.append(rowid)
        visible.sort()  # physical order: deterministic regardless of races
        return visible

    def lookup_rows(self, column: str, value: Any) -> list[Row]:
        """Equality lookup through the pin (live mode: ``Table.lookup``)."""
        if self.snapshot is None:
            return self.table.lookup(column, value)
        rows = self.table.snapshot_search(column, value, self.snapshot.lsn)
        for row in rows:
            self._rows[row[ROWID_PSEUDO]] = row
        return rows

    # -- node predicates -------------------------------------------------------

    @staticmethod
    def is_context(row: Row) -> bool:
        return row["NODETYPE"] == int(NodeType.CONTEXT)

    @staticmethod
    def is_text(row: Row) -> bool:
        return row["NODETYPE"] == int(NodeType.TEXT)

    # -- traversal (paper §2.1.4), memoized ------------------------------------

    def context_ancestor(self, row: Row) -> Row | None:
        """Nearest *proper ancestor* CONTEXT element (else None)."""
        self._sync()
        rowid = row[ROWID_PSEUDO]
        memo = self._ancestor.get(rowid, _MISS)
        if memo is not _MISS:
            self.stats.cache_hits += 1
            return None if memo is None else self.node(memo)
        shared = self._lift_get(row, "ancestor", rowid)
        if shared is not _SHARED_MISS:
            self._ancestor[rowid] = shared
            return None if shared is None else self.node(shared)
        current = row
        found: Row | None = None
        while True:
            parent = self.parent(current)
            if parent is None:
                break
            if self.is_context(parent):
                found = parent
                break
            current = parent
        memo = None if found is None else found[ROWID_PSEUDO]
        self._ancestor[rowid] = memo
        self._lift_put(row, "ancestor", rowid, memo)
        return found

    def governing_context(self, row: Row) -> Row | None:
        """Nearest enclosing/preceding CONTEXT for any node row.

        Walk up parent links; at each level, an enclosing CONTEXT wins,
        else the latest *preceding* CONTEXT sibling does.  None for
        front matter preceding every context.
        """
        self._sync()
        rowid = row[ROWID_PSEUDO]
        memo = self._governing.get(rowid, _MISS)
        if memo is not _MISS:
            self.stats.cache_hits += 1
            return None if memo is None else self.node(memo)
        shared = self._lift_get(row, "governing", rowid)
        if shared is not _SHARED_MISS:
            self._governing[rowid] = shared
            return None if shared is None else self.node(shared)
        current = row
        found: Row | None = None
        while True:
            parent = self.parent(current)
            if parent is None:
                break
            if self.is_context(parent):
                found = parent
                break
            best: Row | None = None
            for sibling in self.children(parent):
                if sibling["ORDINAL"] >= current["ORDINAL"]:
                    break
                if self.is_context(sibling):
                    best = sibling
            if best is not None:
                found = best
                break
            current = parent
        memo = None if found is None else found[ROWID_PSEUDO]
        self._governing[rowid] = memo
        self._lift_put(row, "governing", rowid, memo)
        return found

    def subtree(self, row: Row) -> list[Row]:
        """All descendant rows in document order (children batched)."""
        result: list[Row] = []
        for child in self.children(row):
            result.append(child)
            result.extend(self.subtree(child))
        return result

    def section_scope(self, context_row: Row) -> list[Row]:
        """Rows of the section governed by ``context_row``.

        Every following sibling (plus its subtree) up to, but not
        including, the next CONTEXT sibling — the paper's "traversing
        back down the tree structure via the sibling node".
        """
        self._sync()
        rowid = context_row[ROWID_PSEUDO]
        cached = self._scopes.get(rowid)
        if cached is not None:
            self.stats.cache_hits += 1
            return [self._rows[scope_rowid] for scope_rowid in cached]
        shared = self._lift_get(context_row, "scope", rowid)
        if shared is not _SHARED_MISS:
            # Shared entries carry rowids only (immutable, thread-safe);
            # the rows themselves come through this accessor's own
            # fetch path, so snapshot pinning still applies.
            self._scopes[rowid] = shared
            return self.nodes(list(shared))
        scope: list[Row] = []
        sibling = self.next_sibling(context_row)
        while sibling is not None:
            if self.is_context(sibling):
                break
            scope.append(sibling)
            scope.extend(self.subtree(sibling))
            sibling = self.next_sibling(sibling)
        rowids = tuple(scope_row[ROWID_PSEUDO] for scope_row in scope)
        self._scopes[rowid] = rowids
        self._lift_put(context_row, "scope", rowid, rowids)
        return scope

    def scope_rowids(self, context_row: Row) -> set[RowId]:
        """Physical rowids of a section scope (containment tests)."""
        return {
            scope_row[ROWID_PSEUDO]
            for scope_row in self.section_scope(context_row)
        }

    def section_text(self, context_row: Row) -> str:
        """Concatenated TEXT data of the scope — the "content portion"."""
        self._sync()
        rowid = context_row[ROWID_PSEUDO]
        cached = self._texts.get(rowid)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        shared = self._lift_get(context_row, "text", rowid)
        if shared is not _SHARED_MISS:
            self._texts[rowid] = shared
            return shared
        text = _joined_text(
            scope_row
            for scope_row in self.section_scope(context_row)
            if self.is_text(scope_row)
        )
        self._texts[rowid] = text
        self._lift_put(context_row, "text", rowid, text)
        return text

    def context_title(self, context_row: Row) -> str:
        """Heading text of a CONTEXT element (its TEXT descendants)."""
        self._sync()
        rowid = context_row[ROWID_PSEUDO]
        cached = self._titles.get(rowid)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        shared = self._lift_get(context_row, "title", rowid)
        if shared is not _SHARED_MISS:
            self._titles[rowid] = shared
            return shared
        title = _joined_text(
            descendant
            for descendant in self.subtree(context_row)
            if self.is_text(descendant)
        )
        self._titles[rowid] = title
        self._lift_put(context_row, "title", rowid, title)
        return title


def _joined_text(rows) -> str:
    pieces = [
        (row["NODEDATA"] or "").strip()
        for row in rows
        if row["NODEDATA"]
    ]
    return " ".join(piece for piece in pieces if piece)
