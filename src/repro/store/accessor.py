"""Batched, memoized node access for the read path.

The paper's traversal story (§2.1.4) is ROWID hops — up from a text hit
to its CONTEXT, back down through the siblings.  A :class:`NodeAccessor`
reads what those hops would find in document order, and asks for rows
last:

* **batching** — rowid lists (memo answers, postings to resolve) come
  through one ``visible_many`` call;
* **forward reads** — a document's rows are one contiguous ROWID run in
  document order (DESIGN.md §17), so a subtree or a whole section is the
  rows stored right after its first (:meth:`NodeAccessor.subtree`), read
  in one pass instead of a child probe per element and a hop per sibling;
* **rows as stored** — a node row is the table's own object
  (:data:`~repro.store.schema.XmlRow`: ``row.NODETYPE``, ``row.rowid``),
  immutable and shared with every other reader; nothing is decoded or
  copied between the heap and a plan operator;
* **one section derivation** — which sections a row belongs to is what
  one streaming pass in document order says (:class:`SectionPass`): the
  index's pass as each TEXT row is written, read off the text index
  (:meth:`NodeAccessor.text_facts`), else a fresh pass over the row's
  document as of the LSN (the scan path, rows changed since the LSN,
  an element's governing CONTEXT);
* **memoization** — node rows and the three structural lifts (section
  scope, text, title) are computed once per accessor and reused by
  every operator of a plan and by the lazy
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
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.errors import RowIdError, StoreError
from repro.ordbms import Database, RowId, Snapshot
from repro.ordbms.textindex import TextIndex
from repro.sgml.nodetypes import NodeType
from repro.store.liftcache import MISS as _MISS  # None is a legal memo value
from repro.store.liftcache import LiftCache
from repro.store.schema import XML_TABLE, XmlRow


@dataclass
class AccessorStats:
    """Work counters for one accessor — the bench's fetch evidence."""

    point_fetches: int = 0
    batch_fetches: int = 0
    rows_fetched: int = 0
    cache_hits: int = 0
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
    whether it sits under INTENSE.  State is per open element, dropped
    at the next document's root; rows of one section share one fact.
    """

    def __init__(self, facts: dict[RowId, Any]) -> None:
        self.facts = facts  # e.g. the index's own dict: TEXT ROWID -> fact
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
            self.facts[rowid] = state[1]
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

    def governing(self, rowid: RowId) -> RowId | None:
        """The governing CONTEXT of the element at ``rowid``, of the
        document this pass took last: the head of the sections its state
        opened with — the element itself when it is a CONTEXT."""
        sections = self._open[rowid][0][0]
        return sections[0] if sections else None


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
        #: doc id -> the pass over its rows, never pooled (:meth:`_pass`).
        self._passes: dict[int, SectionPass] = {}
        #: The one memo: the three structural lifts keyed ``(kind,
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

    def text_facts(self, rowids: Sequence[RowId], indexed: bool = True) -> list[Fact]:
        """``(sections, ancestor, emphasised)`` of the TEXT rows at
        ``rowids`` (:class:`SectionPass` says what each means), read off
        the text index — no row is fetched.  A row with no fact there
        (it changed after :attr:`lsn`: its live fact went with it), and
        every row when ``indexed`` is false (the scan path), is fetched
        and answered by its document's pass (:meth:`_pass`)."""
        index = self.table.text_index_on("NODEDATA")
        carried = (indexed and index is not None and index.facts) or {}
        facts = [carried.get(rowid) for rowid in rowids]
        if None in facts:
            absent = [r for r, fact in zip(rowids, facts) if fact is None]
            passed = {row.rowid: self._pass(row.DOC_ID).facts[row.rowid]
                      for row in self.nodes(absent)}
            facts = [fact or passed[r] for r, fact in zip(rowids, facts)]
        return facts

    def governing(self, row: XmlRow) -> XmlRow | None:
        """The CONTEXT governing element ``row`` — itself, if it is one —
        by its document's pass; None for front matter."""
        head = self._pass(row.DOC_ID).governing(row.rowid)
        return None if head is None else self.node(head)

    def _pass(self, doc_id: int) -> SectionPass:
        """A fresh :class:`SectionPass` over document ``doc_id``'s rows as
        of :attr:`lsn` — ROWID order is document order (fsck
        ``doc-order``) — once per accessor.  Facts describe immutable
        ROWIDs, so it says what the index said of each row when it was
        written, the document deleted since or not."""
        done = self._passes.get(doc_id)
        if done is None:
            rows = self.lookup_rows("DOC_ID", doc_id)
            if not rows:
                raise RowIdError(f"document {doc_id} is not visible at LSN {self.lsn}")
            done = self._passes[doc_id] = SectionPass({})
            for row in rows:
                done(row)
        return done

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
