"""Batched node access for the read path.

The paper's traversal story (§2.1.4) is ROWID hops — up from a text hit
to its CONTEXT, back down through the siblings.  A :class:`NodeAccessor`
reads what those hops would find in document order, and asks for rows
last:

* **batching** — rowid lists (postings to resolve) come through one
  ``visible_many`` call;
* **forward reads** — a document's rows are one contiguous ROWID run in
  document order (DESIGN.md §17), so a subtree or a whole section is the
  rows stored right after its first (:meth:`NodeAccessor.run`), read
  in one pass instead of a child probe per element and a hop per sibling;
  a run is a list, a row in it when its parent's slot is at or after the
  first's, and a section's holds its heading and its scope
  (:func:`split_section`);
* **rows as stored** — a node row is the table's own object
  (:data:`~repro.store.schema.XmlRow`: ``row.NODETYPE``, ``row.rowid``),
  immutable and shared with every other reader; nothing is decoded or
  copied between the heap and a plan operator;
* **one section derivation** — which sections a row belongs to is what
  one streaming pass in document order says (:class:`SectionPass`): the
  index's pass as each TEXT row is written, read off the text index
  (:meth:`NodeAccessor.text_facts`), else a fresh pass over the row's
  run as of the LSN (the scan path, rows changed since the LSN,
  an element's governing CONTEXT);
* **a row's document is its run's** (:meth:`NodeAccessor.document_of`);
* **one query-scoped memo** — rows read by address and runs' passes are kept
  for the accessor's lifetime, one query, and reused by every operator
  of a plan and by the lazy :class:`~repro.query.results.SectionMatch`
  loaders;
* **one commit LSN** — an accessor is a view at :attr:`NodeAccessor.lsn`,
  fixed at construction: rows resolve to their version as of it, index
  probes are patched with the rows that changed since, and the memo
  never invalidates, because the view never moves.  A later write is
  seen by a new accessor, not this one.

Accessors are cheap to construct: the query engine makes one per query
and an :class:`~repro.store.xmlstore.XmlStore` one per reconstruction.
This class is the only traversal implementation.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any, Iterable, Sequence

from repro import obs
from repro.errors import RowIdError, StoreError
from repro.ordbms import Database, RowId, Snapshot, Table
from repro.sgml.nodetypes import NodeType
from repro.store.schema import DOC_TABLE, XML_TABLE, DocRow, XmlRow


@dataclass
class AccessorStats:
    """Work counters for one accessor — the bench's fetch evidence."""

    point_fetches: int = 0
    batch_fetches: int = 0
    rows_fetched: int = 0
    cache_hits: int = 0

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
    (:func:`split_section`), governing context first; its nearest CONTEXT ancestor (heading text only);
    whether it sits under INTENSE.  State is per open element, dropped
    at the next document's root; rows of one section share one fact.
    """

    def __init__(self, facts: dict[RowId, Any]) -> None:
        self.facts = facts  # e.g. the index's own dict: TEXT ROWID -> fact
        #: element ROWID -> [the fact of what hangs below it come what
        #: may, the fact of a TEXT child arriving now: the same, plus the
        #: latest CONTEXT child, whose scope the later children are]
        self._open: dict[RowId | None, list[Any]] = {}
        #: parent ROWID -> rows that came before it (an in-place update
        #: re-feeds one row behind the rows fed after it)
        self._early: dict[RowId, list[XmlRow]] = {}
        self._last: RowId | None = None  # the ROWID fed last

    def __call__(self, row: XmlRow) -> None:
        above, kind, rowid = row.PARENTROWID, row.NODETYPE, row.rowid
        if self._last is not None and rowid <= self._last:
            # Behind the last row: an in-place update (``Database.update``), so
            # what is open describes later rows and its parent must arrive afresh.
            self._open = {}
        self._last = rowid
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

    #: The text index's heading test: a fact has a CONTEXT ancestor (slot
    #: 0 is one) for heading text alone — the rows a ``Context=`` probe can keep.
    is_heading = staticmethod(lambda fact: fact[1] is not None)
    #: The text index's sections test: every section a fact's row is in.
    sections = staticmethod(itemgetter(0))

    def governing(self, rowid: RowId) -> RowId | None:
        """The governing CONTEXT of the element at ``rowid``, of the
        document this pass took last: the head of the sections its state
        opened with — the element itself when it is a CONTEXT."""
        sections = self._open[rowid][0][0]
        return sections[0] if sections else None


class RunRoots:
    """``docs``: a run's root slot -> the id of the first DOC row naming
    it; ``roots``: those slots, sorted.  Fed every DOC row written (live,
    replayed or shipped) and the live ones at open (``Table.derive_facts``
    on DOC); never logged, only added to (no slot is reused): a pin held
    across a delete or a rebuild still resolves the deleted rows.  A root
    is the XML heap's tail or a parentless row: a damaged one claims no run."""

    def __init__(self, runs: Table) -> None:
        self._runs = runs  # the XML table
        self.docs: dict[RowId, int] = {}
        self.roots: list[RowId] = []

    def __call__(self, row: DocRow) -> None:
        root, runs = row.ROOTROWID, self._runs
        if root not in self.docs and (root == runs.next_rowids(1)[0] or (
                runs.exists(root) and runs.fetch(root).PARENTROWID is None)):
            self.docs[root] = row.DOC_ID  # first: a reader that finds the root reads it
            insort(self.roots, root)


class NodeAccessor:
    """Batch-fetching view over one store's XML table at one commit LSN.

    With ``snapshot`` the view is the pin's and stays exact for as long
    as the caller holds it.  Without one it is what a snapshot opened
    now would pin, unheld: no table call shows part of a statement,
    and the view is exact until the next commit reclaims history.  The
    calls made after that see the commit too — an index probe finds what
    it wrote and misses what it deleted, a fetch or a forward read of a
    deleted row raises the typed :class:`~repro.errors.RowIdError`.
    """

    def __init__(
        self, database: Database, roots: RunRoots, snapshot: Snapshot | None = None
    ) -> None:
        self.table, self._docs = database.table(XML_TABLE), database.table(DOC_TABLE)
        self._roots = roots
        self.stats = AccessorStats()
        #: The commit LSN every read of this accessor resolves at.
        self.lsn = database.mvcc.read_lsn(snapshot)
        self._rows: dict[RowId, XmlRow] = {}
        #: How many of ``stats.rows_fetched`` :meth:`publish` has counted.
        self._published = 0
        #: run root -> the pass over its run, and that run (:meth:`_pass`).
        self._passes: dict[RowId, SectionPass] = {}
        self._held: dict[RowId, list[XmlRow]] = {}

    def publish(self) -> None:
        """Count the rows read since the last call into
        ``repro_ordbms_rows_read_total`` — the table doors count none.
        One bump where a read ends: the plan's drain, a render, a facade
        call (a ``stats.reset`` starts the count afresh)."""
        fetched = self.stats.rows_fetched
        rows, self._published = fetched - self._published, fetched
        if rows > 0:
            obs.inc("repro_ordbms_rows_read_total", rows, table=XML_TABLE, path="snapshot")

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

    def lookup_rows(self, column: str, value: Any) -> list[XmlRow]:
        """The rows whose (indexed) ``column`` equals ``value``, in
        physical order, in one batch."""
        return self.nodes(self.table.snapshot_rowids(column, value, self.lsn))

    # -- node predicates -------------------------------------------------------

    @staticmethod
    def is_context(row: XmlRow) -> bool:
        return row.NODETYPE == _CONTEXT

    @staticmethod
    def is_text(row: XmlRow) -> bool:
        return row.NODETYPE == _TEXT

    # -- traversal (paper §2.1.4) ---------------------------------------------

    def text_facts(self, rowids: Sequence[RowId], indexed: bool = True) -> list[Fact]:
        """``(sections, ancestor, emphasised)`` of the TEXT rows at
        ``rowids`` (:class:`SectionPass` says what each means), read off
        the text index — no row is fetched.  A row with no fact there
        (it changed after :attr:`lsn`: its live fact went with it), and
        every row when ``indexed`` is false (the scan path), is fetched
        and answered by its run's pass (:meth:`_pass`)."""
        index = self.table.text_index_on("NODEDATA")
        carried = (indexed and index is not None and index.facts) or {}
        facts = [carried.get(rowid) for rowid in rowids]
        if None in facts:
            absent = [r for r, fact in zip(rowids, facts) if fact is None]
            passed = {row.rowid: self._pass(row).facts[row.rowid] for row in self.nodes(absent)}
            facts = [fact or passed[r] for r, fact in zip(rowids, facts)]
        return facts

    def governing(self, row: XmlRow) -> XmlRow | None:
        """The CONTEXT governing element ``row`` — itself, if it is one —
        by its run's pass; None for front matter."""
        head = self._pass(row).governing(row.rowid)
        return None if head is None else self.node(head)

    def document_of(self, row: XmlRow) -> tuple[RowId, int]:
        """The root of ``row``'s run (:class:`RunRoots`) and its doc id."""
        roots = self._roots.roots
        at = bisect_right(roots, row.rowid) - 1
        if at < 0:
            raise RowIdError(f"ROWID {row.rowid} lies before every document's root")
        return roots[at], self._roots.docs[roots[at]]

    def _pass(self, row: XmlRow) -> SectionPass:
        """A fresh :class:`SectionPass` over the run ``row`` sits in — its
        document's rows as of :attr:`lsn`, read from the root; ROWID order
        is document order (fsck ``doc-order``) — once per accessor.  Facts
        describe immutable ROWIDs, so it says what the index said of each
        row when it was written, the document deleted since or not."""
        root = self.document_of(row)[0]
        done = self._passes.get(root)
        if done is None:
            rows = self._held[root] = self.run(self.node(root))
            done = self._passes[root] = SectionPass({})
            for row in rows:
                self._rows[row.rowid] = row
                done(row)
        return done

    def document(self, doc_id: int) -> list[XmlRow]:
        """Document ``doc_id``'s rows as of :attr:`lsn`, in document order:
        one hop from its DOC row's ``ROOTROWID`` to the root — a parentless
        element whose run is this document's — and the root's :meth:`run`,
        which the next parentless row ends.  It publishes what it read."""
        docs = self._docs.snapshot_search("DOC_ID", doc_id, self.lsn)
        if not docs:
            raise RowIdError(f"document {doc_id} is not visible at LSN {self.lsn}")
        root = self.node(docs[0].ROOTROWID)
        if root.PARENTROWID is not None or self.is_text(root) or (
                self.document_of(root) != (root.rowid, doc_id)):
            raise StoreError(f"document {doc_id}'s ROOTROWID {root.rowid} is not its root element")
        rows = self.run(root)
        self.publish()
        return rows

    def run(self, row: XmlRow, siblings: bool = False) -> list[XmlRow]:
        """``row`` and all its descendant rows in document order — one
        forward read.

        A document's rows sit in one contiguous ROWID run in document
        order (DESIGN.md §17), so the descendants of ``row`` are the
        rows stored right after it, up to the first whose parent is not
        in the run.  With ``siblings`` the run also admits the following
        non-CONTEXT siblings of ``row`` and their subtrees — the paper's
        walk "back down the tree structure via the sibling node", i.e.
        the whole section a CONTEXT ``row`` heads, its heading and its
        scope (:func:`split_section` parts them).  A row with no parent
        — the next document's root — or a slot with no row in this view
        ends the run: a document is visible whole or not at all.
        """
        self.stats.batch_fetches += 1
        run, stopped = self.table.rows_after(
            row.rowid, self.lsn, lambda rows: _run(row, rows, siblings)
        )
        self.stats.rows_fetched += len(run) - 1 + stopped  # the rows pulled
        return run

    def context_title(self, context_row: XmlRow) -> str:
        """Heading text of a CONTEXT element (its TEXT descendants): off
        the rows its run's pass read, if :meth:`_pass` ran, else one
        forward read."""
        held = self._held.get(self.document_of(context_row)[0])
        if held is None:
            return joined_text(self.run(context_row))
        head = bisect_right(held, context_row.rowid, key=attrgetter("rowid"))
        after = (held[at] for at in range(head, len(held)))
        return joined_text(_run(context_row, after, False)[0])


def _run(head: XmlRow, rows: Iterable[XmlRow], siblings: bool) -> tuple[list[XmlRow], int]:
    """``head`` and the run of ``rows`` after it that :meth:`NodeAccessor.run`
    takes, and whether a row ended it.

    A parent's slot comes before its child's (fsck ``doc-order``), so
    while the run is unbroken a row's parent is in it exactly when the
    parent's slot is at or after the head's: membership is one compare
    of slot numbers.  The rest of the run are the admitted siblings.  A
    parentless row is the next document's root: the run ends there."""
    beside, first = head.PARENTROWID, head.rowid
    run = [head]
    for candidate in rows:
        above = candidate.PARENTROWID
        if above is None or not (
            above >= first
            or siblings and above == beside and candidate.NODETYPE != _CONTEXT
        ):
            return run, 1
        run.append(candidate)
    return run, 0


def split_section(run: list[XmlRow]) -> tuple[list[XmlRow], list[XmlRow]]:
    """A section's run (:meth:`NodeAccessor.run` with ``siblings``) as its heading —
    the CONTEXT row's descendants — and its scope, which starts at the
    first row beside the CONTEXT row."""
    beside = run[0].PARENTROWID
    for first in range(1, len(run)):
        if run[first].PARENTROWID == beside:
            return run[1:first], run[first:]
    return run[1:], []


def joined_text(rows: Iterable[XmlRow]) -> str:
    """The TEXT rows' data, each stripped, joined by one space."""
    pieces = ((row.NODEDATA or "").strip() for row in rows if row.NODETYPE == _TEXT)
    return " ".join(piece for piece in pieces if piece)
