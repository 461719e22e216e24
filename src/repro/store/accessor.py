"""Batched, memoized node access for the read path.

The paper's traversal story (§2.1.4) is ROWID hops — each parent /
sibling / child step an O(1) physical fetch.  A :class:`NodeAccessor`
keeps the hops and asks for rows last:

* **batching** — rowid lists (memo answers, postings to walk) come
  through one ``visible_many`` call;
* **forward reads** — a document's rows are one contiguous ROWID run in
  document order (DESIGN.md §17), so a subtree or a whole section is the
  rows stored right after its first (:meth:`NodeAccessor.subtree`), read
  in one pass instead of a child probe per element and a hop per sibling;
* **rows as stored** — a node row is the table's own object
  (:data:`~repro.store.schema.XmlRow`: ``row.NODETYPE``, ``row.rowid``),
  immutable and shared with every other reader; nothing is decoded or
  copied between the heap and a plan operator;
* **facts written once** — which sections a TEXT row's text belongs to
  is decided as the row is written (:class:`SectionPass`) and read off
  the text index (:meth:`NodeAccessor.text_facts`); the hop walk that
  says the same is kept as the reference (:meth:`NodeAccessor.walk_facts`);
* **memoization** — node rows, child sets and the four structural lifts
  (governing context, section scope, text, title) are computed once per
  accessor and reused by every operator of a plan and by the lazy
  :class:`~repro.query.results.SectionMatch` loaders;
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
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

from repro.errors import StoreError
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


Fact = tuple[tuple[RowId, ...], RowId | None, bool]
_TEXT, _CONTEXT, _INTENSE = map(
    int, (NodeType.TEXT, NodeType.CONTEXT, NodeType.INTENSE)
)


class SectionPass:
    """One streaming pass over XML rows in document order: what every
    TEXT row's text belongs to, decided as the row is written.

    ``facts[rowid]`` is ``(sections, ancestor, emphasised)``: the ROWIDs
    of every CONTEXT whose title or scope holds the row
    (:meth:`NodeAccessor.context_title` / ``section_scope``), governing
    context first; its nearest CONTEXT ancestor (heading text only);
    whether it sits under INTENSE — equal to
    :meth:`NodeAccessor.walk_facts`.  State is per open element, dropped
    at the next document's root; rows of one section share one fact.
    """

    def __init__(self, facts: dict[RowId, Any]) -> None:
        self._facts = facts  # the index's own dict: TEXT ROWID -> fact
        #: element ROWID -> [the fact of what hangs below it come what
        #: may, the fact of a TEXT child arriving now: the same, plus the
        #: latest CONTEXT child, whose scope the later children are]
        self._open: dict[RowId | None, list[Any]] = {}
        #: parent ROWID -> rows that came before it (an undone delete
        #: restores a document newest row first)
        self._early: dict[RowId, list[XmlRow]] = {}

    def __call__(self, row: XmlRow) -> None:
        above, kind, rowid = row.PARENTROWID, row.NODETYPE, row.rowid
        if above is None:
            self._open = {None: [((), None, False)] * 2}
        state = self._open.get(above)
        if state is None:
            self._early.setdefault(above, []).append(row)
        elif kind == _TEXT:
            self._facts[rowid] = state[1]
        else:
            below, ancestor, intense = state[0]
            if kind == _CONTEXT:
                own = ((rowid,) + below, rowid, False)
                # Under a CONTEXT parent that parent still governs.
                lead = 1 if ancestor == above else 0
                now = below[:lead] + (rowid,) + below[lead:]
                state[1] = (now, ancestor, intense)
            else:
                own = (state[1][0], ancestor, intense or kind == _INTENSE)
            self._open[rowid] = [own, own]
            if self._early:
                early = self._early.pop(rowid, ())
                for child in sorted(early, key=lambda row: row.rowid):
                    self(child)


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
        #: The one memo: the four structural lifts keyed ``(kind,
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
            raise StoreError("an indexed search needs the XML.NODEDATA text index")
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

    def governing_context(self, row: XmlRow) -> XmlRow | None:
        """Nearest enclosing/preceding CONTEXT for any node row (None for
        front matter preceding every context)."""
        memo = self.memoized("governing", row.rowid, self._walk_up, row)
        return None if memo is None else self.node(memo)

    def text_facts(self, rowids: Sequence[RowId], indexed: bool = True) -> list[Fact]:
        """``(sections, ancestor, emphasised)`` of the TEXT rows at
        ``rowids`` (:class:`SectionPass` says what each means), read off
        the text index — no row is fetched.  A row with no fact there
        (it changed after :attr:`lsn`: its live fact went with it), and
        every row when ``indexed`` is false (the scan path), is fetched
        and walked: :meth:`walk_facts`, the reference."""
        index = self.table.text_index_on("NODEDATA")
        carried = (indexed and index is not None and index.facts) or {}
        facts = [carried.get(rowid) for rowid in rowids]
        if None in facts:
            absent = [r for r, fact in zip(rowids, facts) if fact is None]
            walked = dict(zip(absent, map(self.walk_facts, self.nodes(absent))))
            facts = [fact or walked[r] for r, fact in zip(rowids, facts)]
        return facts

    def walk_facts(self, row: XmlRow) -> Fact:
        """:meth:`text_facts` of one row by parent and sibling hops, all
        the way to the root (:meth:`_climb`)."""
        sections: list[RowId] = []
        ancestor = emphasised = None
        for found, above in self._climb(row):
            if self.is_context(found):
                sections.append(found.rowid)
                if above:
                    ancestor, emphasised = ancestor or found.rowid, emphasised or False
            elif emphasised is None and found.NODETYPE == _INTENSE:
                emphasised = True
        return tuple(sections), ancestor, bool(emphasised)

    def _walk_up(self, row: XmlRow) -> RowId | None:
        """The governing lift: the first CONTEXT on the climb."""
        for found, _ in self._climb(row):
            if self.is_context(found):
                return found.rowid
        return None

    def _climb(self, row: XmlRow) -> Iterator[tuple[XmlRow, bool]]:
        """Bottom-up, one level per hop: the parent (flagged True), then —
        unless the node on the path is itself a CONTEXT, which ends the
        scope before it — the latest CONTEXT sibling preceding it."""
        current = row
        while (parent := self.parent(current)) is not None:
            yield parent, True
            best = None
            for sibling in () if self.is_context(current) else self.children(parent):
                if sibling.ORDINAL >= current.ORDINAL:
                    break
                if self.is_context(sibling):
                    best = sibling
            if best is not None:
                yield best, False
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
