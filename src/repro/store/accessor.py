"""Batched, memoized node access for the read path.

The paper's traversal story (§2.1.4) is ROWID hops — each parent /
sibling / child step an O(1) physical fetch.  A :class:`NodeAccessor`
keeps the hops and asks for rows last:

* **batching** — rowid lists (index postings, ancestor frontiers, memo
  answers) come through one ``visible_many`` call;
* **forward reads** — a document's rows are one contiguous ROWID run in
  document order (DESIGN.md §17), so a subtree or a whole section is the
  rows stored right after its first (:meth:`NodeAccessor.subtree`), read
  in one pass instead of a child probe per element and a hop per sibling;
* **rows as stored** — a node row is the table's own object
  (:data:`~repro.store.schema.XmlRow`: ``row.NODETYPE``, ``row.rowid``),
  immutable and shared with every other reader; nothing is decoded or
  copied between the heap and a plan operator;
* **memoization** — node rows, child sets and the five structural lifts
  (context ancestor, governing context, section scope, text, title) are
  computed once per accessor and reused by every operator of a plan and
  by the lazy :class:`~repro.query.results.SectionMatch` loaders;
* **one commit LSN** — an accessor is a view at :attr:`NodeAccessor.lsn`,
  fixed at construction: rows resolve to their version as of it, index
  probes are patched with the rows that changed since, and the caches
  never invalidate, because the view never moves.  A later write is
  seen by a new accessor, not this one;
* **shared facts** — constructed with a
  :class:`~repro.store.liftcache.LiftCache`, the memo reads through the
  cross-query pool.  Stored rows never change, so a lift is a fact about
  its ROWID for every reader that can see the row, and the pool needs no
  version.

Accessors are cheap to construct: the query engine makes one per query
and an :class:`~repro.store.xmlstore.XmlStore` one per reconstruction.
This class is the only traversal implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.ordbms import Database, RowId, Snapshot
from repro.ordbms.textindex import TextIndex
from repro.sgml.nodetypes import NodeType
from repro.store.liftcache import MISS as _MISS  # None is a legal memo value
from repro.store.liftcache import LiftCache
from repro.store.schema import XML_TABLE, XmlRow


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
    #: Cross-query :class:`~repro.store.liftcache.LiftCache` traffic
    #: (zero unless the accessor was built with a shared pool).
    shared_hits: int = 0
    shared_misses: int = 0

    def reset(self) -> None:
        for field_name in self.__dataclass_fields__:
            setattr(self, field_name, 0)


class NodeAccessor:
    """Memoizing, batch-fetching view over one store's XML table at one
    commit LSN.

    With ``snapshot`` the view is the pin's and stays exact for as long
    as the caller holds it.  Without one it is what a snapshot opened
    now would pin, unheld: no table call shows part of a transaction,
    and the view is exact until the next commit reclaims history.  The
    calls made after that see the commit too — an index probe finds what
    it wrote and misses what it deleted, a fetch or a forward read of a
    deleted row raises the typed :class:`~repro.errors.RowIdError`.
    """

    def __init__(
        self,
        database: Database,
        snapshot: Snapshot | None = None,
        lifts: LiftCache | None = None,
    ) -> None:
        self.table = database.table(XML_TABLE)
        self.stats = AccessorStats()
        #: The commit LSN every read of this accessor resolves at.
        self.lsn = database.mvcc.read_lsn(snapshot)
        #: Cross-query memo pool; None means "private memos only".
        self._lifts = lifts
        self._rows: dict[RowId, XmlRow] = {}
        self._children: dict[int, tuple[RowId, ...]] = {}
        #: The one memo: the five structural lifts keyed ``(kind,
        #: rowid)`` and catalog entries keyed ``("entry", doc_id)``.
        self._memo: dict[tuple[str, Hashable], Any] = {}

    # -- the memo: private first, then the shared pool -----------------------

    def _recall(self, kind: str, key: Hashable) -> Any:
        """The memoized ``kind`` fact about ``key``, or ``_MISS``.

        One read of the private memo, then at most one of the shared
        pool, whose answer the private memo adopts — so however often a
        fact is asked for, the pool is asked once.
        """
        value = self._memo.get((kind, key), _MISS)
        if value is not _MISS:
            self.stats.cache_hits += 1
        elif self._lifts is not None:
            value = self._lifts.get(kind, key)
            if value is _MISS:
                self.stats.shared_misses += 1
            else:
                self.stats.shared_hits += 1
                self._memo[kind, key] = value
        return value

    def _remember(self, kind: str, key: Hashable, value: Any) -> Any:
        """Memoize a computed fact privately and in the shared pool."""
        self._memo[kind, key] = value
        if self._lifts is not None:
            self._lifts.put(kind, key, value)
        return value

    def memoized(
        self, kind: str, key: Hashable, compute: Callable[..., Any], *args: Any
    ) -> Any:
        """The ``kind`` fact about ``key`` (a ROWID, or a doc id for the
        plan's catalog entries): ``compute(*args)``, at most once."""
        value = self._recall(kind, key)
        if value is _MISS:
            value = self._remember(kind, key, compute(*args))
        return value

    # -- row access ---------------------------------------------------------

    def node(self, rowid: RowId) -> XmlRow:
        """One node row by physical ROWID, memoized."""
        row = self._rows.get(rowid)
        if row is not None:
            self.stats.cache_hits += 1
            return row
        [row] = self.table.visible_many([rowid], self.lsn)
        self.stats.point_fetches += 1
        self.stats.rows_fetched += 1
        self._rows[rowid] = row
        return row

    def nodes(self, rowids: Sequence[RowId]) -> list[XmlRow]:
        """Rows for ``rowids`` in order; missing ones come in ONE batch."""
        missing = [rowid for rowid in rowids if rowid not in self._rows]
        if missing:
            fetched = self.table.visible_many(missing, self.lsn)
            self.stats.batch_fetches += 1
            self.stats.rows_fetched += len(fetched)
            for row in fetched:
                self._rows[row.rowid] = row
        self.stats.cache_hits += len(rowids) - len(missing)
        return [self._rows[rowid] for rowid in rowids]

    def prefetch_ancestors(self, rows: Sequence[XmlRow]) -> None:
        """Warm the cache with every proper ancestor of ``rows``.

        One batched fetch per tree *level* instead of one point fetch per
        parent hop, so the per-row walks upward that follow run entirely
        against cached rows.  Purely a cache warmer.
        """
        while rows:
            frontier = {row.PARENTROWID for row in rows} - {None}
            rows = self.nodes(list(frontier))

    # -- single hops ---------------------------------------------------------

    def parent(self, row: XmlRow) -> XmlRow | None:
        """Follow ``PARENTROWID`` up one level (None at the root)."""
        parent_rowid = row.PARENTROWID
        if parent_rowid is None:
            return None
        self.stats.parent_hops += 1
        return self.node(parent_rowid)

    def next_sibling(self, row: XmlRow) -> XmlRow | None:
        """Follow ``SIBLINGID`` across one hop (None for the last child)."""
        sibling_rowid = row.SIBLINGID
        if sibling_rowid is None:
            return None
        self.stats.sibling_hops += 1
        return self.node(sibling_rowid)

    def children(self, row: XmlRow) -> list[XmlRow]:
        """Direct children in document order — one batched fetch."""
        node_id = row.NODEID
        cached = self._children.get(node_id)
        if cached is not None:
            self.stats.cache_hits += 1
            return [self._rows[rowid] for rowid in cached]
        self.stats.child_lookups += 1
        child_rows = self.lookup_rows("PARENTNODEID", node_id)
        child_rows.sort(key=lambda child: child.ORDINAL)
        self._children[node_id] = tuple(
            child.rowid for child in child_rows
        )
        return child_rows

    # -- probes as of the LSN ----------------------------------------------------

    def probe_text(
        self,
        lookup: Callable[[TextIndex], Iterable[RowId]],
        predicate: Callable[[str], bool],
    ) -> list[RowId]:
        """A text-index probe whose result is correct as of :attr:`lsn`.

        ``lookup`` runs the raw probe against the NODEDATA index;
        ``predicate`` re-evaluates the probe's semantics against a row's
        visible NODEDATA
        (:meth:`~repro.ordbms.table.Table.snapshot_text_rowids`): rows
        unchanged since the LSN keep the index's verdict, every row that
        changed after it is re-judged on its text as of then.
        """
        if self.table.text_index_on("NODEDATA") is None:
            return []
        return self.table.snapshot_text_rowids(
            "NODEDATA", lookup, predicate, self.lsn
        )

    def lookup_rowids(self, column: str, value: Any) -> list[RowId]:
        """Addresses of the rows whose (indexed) ``column`` equals
        ``value``, in physical order — no row fetched."""
        return self.table.snapshot_rowids(column, value, self.lsn)

    def lookup_rows(self, column: str, value: Any) -> list[XmlRow]:
        """The rows at :meth:`lookup_rowids`, in one batch."""
        return self.nodes(self.lookup_rowids(column, value))

    # -- node predicates -------------------------------------------------------

    @staticmethod
    def is_context(row: XmlRow) -> bool:
        return row.NODETYPE == int(NodeType.CONTEXT)

    @staticmethod
    def is_text(row: XmlRow) -> bool:
        return row.NODETYPE == int(NodeType.TEXT)

    # -- traversal (paper §2.1.4), memoized ------------------------------------

    def context_ancestor(self, row: XmlRow) -> XmlRow | None:
        """Nearest *proper ancestor* CONTEXT element (else None)."""
        memo = self.memoized(
            "ancestor", row.rowid, self._walk_up, row
        )
        return None if memo is None else self.node(memo)

    def governing_context(self, row: XmlRow) -> XmlRow | None:
        """Nearest enclosing/preceding CONTEXT for any node row (None for
        front matter preceding every context)."""
        memo = self.memoized(
            "governing", row.rowid, self._walk_up, row, True
        )
        return None if memo is None else self.node(memo)

    def lift_all(self, rows: Sequence[XmlRow], governing: bool) -> list[XmlRow | None]:
        """:meth:`governing_context` (else :meth:`context_ancestor`) of
        every row, asking the memos before fetching anything.

        Each hit is resolved against the private memo and the shared
        pool exactly once; ancestors are prefetched, level by level,
        only for the hits neither could answer, and the answers' CONTEXT
        rows arrive in one batch.
        """
        kind = "governing" if governing else "ancestor"
        memos = [self._recall(kind, row.rowid) for row in rows]
        self.prefetch_ancestors(
            [row for row, memo in zip(rows, memos) if memo is _MISS]
        )
        for position, row in enumerate(rows):
            if memos[position] is _MISS:
                memos[position] = self._remember(
                    kind, row.rowid,
                    self._walk_up(row, preceding=governing),
                )
        self.nodes(list(dict.fromkeys(m for m in memos if m is not None)))
        return [None if m is None else self._rows[m] for m in memos]

    def _walk_up(self, row: XmlRow, preceding: bool = False) -> RowId | None:
        """Walk up parent links to the first CONTEXT: at each level an
        enclosing CONTEXT wins, else — with ``preceding``, the governing
        lift — the latest *preceding* CONTEXT sibling does."""
        current = row
        while True:
            parent = self.parent(current)
            if parent is None:
                return None
            if self.is_context(parent):
                return parent.rowid
            best: XmlRow | None = None
            for sibling in self.children(parent) if preceding else ():
                if sibling.ORDINAL >= current.ORDINAL:
                    break
                if self.is_context(sibling):
                    best = sibling
            if best is not None:
                return best.rowid
            current = parent

    def subtree(self, row: XmlRow, siblings: bool = False) -> list[XmlRow]:
        """All descendant rows in document order — one forward read.

        A document's rows sit in one contiguous ROWID run in document
        order (DESIGN.md §17), so the descendants of ``row`` are the
        rows stored right after it, up to the first whose parent is not
        in the run.  With ``siblings`` the run also admits the following
        non-CONTEXT siblings of ``row`` and their subtrees — the paper's
        walk "back down the tree structure via the sibling node", i.e.
        the whole section a CONTEXT ``row`` heads.  Another document's
        row, or a slot with no row in this view, ends the run: a
        document is visible whole or not at all.
        """
        doc_id, beside = row.DOC_ID, row.PARENTROWID
        inside = {row.rowid}
        run: list[XmlRow] = []
        following = self.table.rows_after(row.rowid, self.lsn)
        self.stats.batch_fetches += 1
        for candidate in following:
            self.stats.rows_fetched += 1
            above = candidate.PARENTROWID
            if candidate.DOC_ID != doc_id or not (
                above in inside
                or (
                    siblings and above == beside
                    and not self.is_context(candidate)
                )
            ):
                break
            rowid = candidate.rowid
            inside.add(rowid)
            self._rows[rowid] = candidate
            run.append(candidate)
        following.close()  # publishes the read's row count now
        return run

    def section_scope(self, context_row: XmlRow) -> list[XmlRow]:
        """Rows of the section governed by ``context_row``.

        Every following sibling (plus its subtree) up to, but not
        including, the next CONTEXT sibling.  The memo (and the shared
        pool) carries rowids only — immutable, thread-safe; the rows
        come through this accessor's own fetch path, as of its LSN.
        """
        return self.nodes(self.memoized(
            "scope", context_row.rowid, self._walk_scope, context_row
        ))

    def _walk_scope(self, context_row: XmlRow) -> tuple[RowId, ...]:
        beside = context_row.PARENTROWID
        run = self.subtree(context_row, siblings=True)
        for first, row in enumerate(run):
            if row.PARENTROWID == beside:  # before it: the heading's own
                return tuple(row.rowid for row in run[first:])
        return ()

    def section_text(self, context_row: XmlRow) -> str:
        """Concatenated TEXT data of the scope — the "content portion"."""
        return self.memoized(
            "text", context_row.rowid,
            lambda: self._joined_text(self.section_scope(context_row)),
        )

    def context_title(self, context_row: XmlRow) -> str:
        """Heading text of a CONTEXT element (its TEXT descendants)."""
        return self.memoized(
            "title", context_row.rowid,
            lambda: self._joined_text(self.subtree(context_row)),
        )

    def _joined_text(self, rows: Iterable[XmlRow]) -> str:
        pieces = [
            (row.NODEDATA or "").strip()
            for row in rows
            if self.is_text(row) and row.NODEDATA
        ]
        return " ".join(piece for piece in pieces if piece)
