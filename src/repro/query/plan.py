"""Query plans: explicit operator trees with lazy cursors.

The engine (:mod:`repro.query.engine`) compiles every XDB query into a
small tree of :class:`PlanNode` operators and then *pulls* matches out of
the root.  Each operator is a lazy cursor — ``rows()`` yields items one
at a time and counts them — so a downstream ``Limit`` stops the whole
pipeline early: no section is walked, no title resolved, no match
materialized beyond what the limit requires.

Operator inventory (leaf → root; each class says the rest):

``TextSource`` (``index-probe`` / ``scan``)
    The inverted-index probe of paper §2.1.4, or the full-table fallback
    used by the ABL-IDX ablation.  Yields ROWIDs — postings — not rows.
``ContextLift`` / ``GoverningLift``
    The upward traversal, read off the facts the index carries for each
    posting (the scan path runs its documents' pass): heading hits lift
    to their CONTEXT *ancestor* (context search), content hits to their
    *governing* context (content search, which also accumulates INTENSE
    score boosts and collects document-level hits that precede every
    context).  From here on a candidate is a section ROWID and a score.
``NodenameProbe``, ``Spares``, ``DocFilter`` / ``FormatFilter``
    The nodename source, a cached answer's spares (the result cache's
    refill) and the ``Doc=`` / ``Format=`` narrowing filters.
    Every source emits in ROWID order, which is (document, node) order:
    the presentation order.
``Intersect``
    Section-level semijoin (combined and multi-term ``all`` queries): the
    candidate sections holding the content terms, from the index alone
    (postings, facts and section members) — exact for one-token terms.
``Rank`` … ``Limit`` … ``Present``
    ``Rank`` (blocking) re-orders by descending score, so ``Limit`` is
    *rank-aware*; ``Present`` restores presentation order afterwards.
``SectionWalk`` / ``ContentFilter``
    The expensive per-candidate content test, directly under ``Limit``:
    one forward read of the candidate's section (heading included) or a
    nodename match's element; a walk the index ``decided`` skips the test.
``Materialize``
    Converts surviving candidates into lazy
    :class:`~repro.query.results.SectionMatch` objects.

``Explain=1`` renders the tree with each operator's observed row count —
see :meth:`PlanNode.explain_element`.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import QueryError
from repro.ordbms import RowId
from repro.ordbms.textindex import TextIndex, tokenize
from repro.query.ast import ContentSpec
from repro.query.results import SectionMatch
from repro.sgml.dom import Element, TreeWriter
from repro.sgml.nodetypes import NodeType
from repro.sgml.serializer import XmlWriter
from repro.store.accessor import NodeAccessor, joined_text, split_section
from repro.store.compose import tree_of, write_rows
from repro.store.schema import XmlRow
from repro.store.xmlstore import StoredDocument, XmlStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.deadline import Budget


def _run_in(needle: list[str], haystack: list[str]) -> bool:
    """Do the tokens of ``needle`` occur consecutively in ``haystack``?"""
    span = len(needle)
    if span == 1:
        return needle[0] in haystack
    return span > 0 and any(
        haystack[start:start + span] == needle
        for start in range(len(haystack) - span + 1)
    )


def phrase_in(phrase: str, text: str) -> bool:
    """Token-level phrase containment, case-insensitive.

    ``Budget`` is contained in ``FY04 Budget Summary`` but not in
    ``Budgetary`` — token boundaries matter, substring match does not.
    """
    return _run_in(tokenize(phrase, keep_stopwords=True), tokenize(text, keep_stopwords=True))


def text_satisfies(text: str, spec: ContentSpec) -> bool:
    """Does free text satisfy a content spec (phrase / any / all)?

    A term holds when its tokens occur consecutively — ``cost-benefit``,
    ``U.S.`` and ``FY04/05`` are two tokens each to the tokenizer, and
    match the text they were typed from.
    """
    haystack = tokenize(text, keep_stopwords=True)
    holds = (_run_in(tokenize(term, keep_stopwords=True), haystack) for term in spec.held)
    return any(holds) if spec.mode == "any" else all(holds)


class PlanContext:
    """Shared execution state for one query's plan.

    Owns the per-query :class:`NodeAccessor` (batch-fetching row access
    at one commit LSN, which every operator reads at).  Catalog entries
    come from the store's map (:meth:`XmlStore.cached_entry`): a
    document's entry costs one B+tree probe the first time any plan asks
    for it.
    """

    def __init__(
        self, store: XmlStore, accessor: NodeAccessor, use_index: bool,
        budget: "Budget | None" = None,
    ) -> None:
        self.store = store
        self.accessor = accessor
        self.use_index = use_index
        #: The request's time-and-cancellation budget
        #: (:class:`repro.resilience.deadline.Budget`); every operator
        #: checks it at its pull boundary, so one expired deadline stops
        #: the whole tree cooperatively.  None = unbounded.
        self.budget = budget
        #: What ``Rank`` ordered; a full answer's cache entry keeps some.
        self.ranked: list[Candidate] = []

    def entry(self, row: XmlRow) -> StoredDocument:
        """Catalog entry of the document ``row`` is in, at this plan's LSN."""
        return self.store.cached_entry(self.accessor.document_of(row)[1], self.accessor.lsn)


@dataclass
class Candidate:
    """One item flowing through a plan: a potential match, pre-materialization.

    ``kind`` is "section" (``rowid`` addresses a CONTEXT row), "document"
    (the document's first context-less content hit) or "node" (an element
    row from a nodename search).  The row is read when something first
    asks for it — under ``Limit``, for a section.  A section that
    :class:`SectionWalk` walked, or a node :class:`ContentFilter` tested,
    carries the ``run`` it read, which its match is rendered from.
    """

    kind: str
    rowid: RowId
    accessor: NodeAccessor = field(repr=False)
    score: float = 1.0
    run: list[XmlRow] | None = field(default=None, repr=False)

    @property
    def row(self) -> XmlRow:
        return self.accessor.node(self.rowid)


class PlanNode:
    """One operator: a lazy cursor over :class:`Candidate` items.

    ``rows()`` is the pull interface; it counts what flows out so
    ``Explain=1`` can report observed per-operator cardinalities.
    """

    name = "operator"

    def __init__(self, ctx: PlanContext, *children: "PlanNode", detail: str = "") -> None:
        self.ctx = ctx
        self.children = list(children)
        self.detail = detail
        self.rows_out = 0

    def rows(self) -> Iterator[Any]:
        budget = self.ctx.budget
        for item in self._produce():
            # Cooperative cancellation: the budget check is this
            # operator's batch boundary.  ``admits`` raises on
            # cancellation or a hard deadline; with ``Partial=1`` it
            # returns False and the whole tree stops pulling, leaving
            # downstream operators with a truncated (partial) prefix.
            if budget is not None and not budget.admits(self.name):
                return
            self.rows_out += 1
            yield item

    def _produce(self) -> Iterator[Any]:
        raise QueryError(f"plan node {type(self).__name__} has no cursor")

    def ticks(self) -> int:
        """Inclusive cost in ``Explain=profile`` work units: the rows
        surfaced anywhere in this operator's subtree while it ran.

        Every row a child surfaces is pulled inside one of this
        operator's own pulls, so the count is the subtree's ``rows_out``
        sum: deterministic, and the same on every machine.
        """
        return self.rows_out + sum(child.ticks() for child in self.children)

    def explain_element(self, profile: bool = False) -> Element:
        """``<operator name=… rows=…>`` with child operators nested;
        with ``profile`` each operator also carries its :meth:`ticks`."""
        attributes = {"name": self.name, "rows": str(self.rows_out)}
        if profile:
            attributes["ticks"] = str(self.ticks())
        if self.detail:
            attributes["detail"] = self.detail
        element = Element("operator", attributes)
        for child in self.children:
            element.append(child.explain_element(profile))
        return element


# -- leaf sources -------------------------------------------------------------


class TextSource(PlanNode):
    """A leaf yielding the ROWIDs — postings, not rows — of the TEXT rows
    whose NODEDATA matches one search key: the inverted-index probe of
    paper §2.1.4, correct as of the plan's LSN, or (``use_index=False``,
    the ABL-IDX ablation) a full scan judging every row's text.  With
    ``headings`` (a phrase under :class:`ContextLift`) the probe reads the
    heading postings alone: all the lift can keep (a body row changed
    since the LSN is still judged by its text, and the lift drops it)."""

    def __init__(
        self, ctx: PlanContext, key: str, phrase_mode: bool, headings: bool = False
    ) -> None:
        kind = "phrase" if phrase_mode else "terms"
        super().__init__(ctx, detail=f'{kind} "{key}"')
        self.name = "index-probe" if ctx.use_index else "scan"
        self.key, self.phrase_mode, self.headings = key, phrase_mode, headings

    def _matches(self, data: str | None) -> bool:
        """The probe's meaning on one row's text: the scan path's test,
        and the index path's for rows changed since its LSN."""
        if data is None:
            return False
        if self.phrase_mode:
            return phrase_in(self.key, data)
        wanted = tokenize(self.key)  # all stop words: no posting to find
        return bool(wanted) and set(wanted) <= set(tokenize(data, keep_stopwords=True))

    def _lookup(self, index: TextIndex) -> set[Any]:
        if self.phrase_mode:
            return index.lookup_phrase(self.key, self.headings)
        return index.lookup_all(tokenize(self.key))

    def _produce(self) -> Iterator[RowId]:
        accessor = self.ctx.accessor
        if self.ctx.use_index:
            yield from accessor.table.snapshot_text_rowids(
                "NODEDATA", self._lookup, self._matches, accessor.lsn
            )
            return
        for row in accessor.table.snapshot_scan(accessor.lsn):
            if row.NODETYPE == int(NodeType.TEXT) and self._matches(row.NODEDATA):
                yield row.rowid


# -- upward traversal ---------------------------------------------------------


class Lift(PlanNode):
    """Postings of every child source, once each, to section candidates —
    by the facts the index carries per posting; the scan path takes the
    same facts from a pass over each hit's document
    (:meth:`NodeAccessor.text_facts`)."""

    def _hits(self) -> tuple[list[RowId], list[Any]]:
        hits = list(dict.fromkeys(r for child in self.children for r in child.rows()))
        return hits, self.ctx.accessor.text_facts(hits, self.ctx.use_index)


class ContextLift(Lift):
    """Lift heading hits to their CONTEXT ancestors (context search).

    A hit holds the whole phrase in one heading node, so its heading
    holds it.  Indexed sources read only the heading postings; a hit
    outside any heading (scanned, or changed since the LSN) has no
    ancestor and drops out.  Emitted in ROWID order, which is (document,
    node) order — the presentation order (fsck ``doc-order``).
    """

    name = "context-lift"

    def _produce(self) -> Iterator[Candidate]:
        ancestors = {ancestor for _, ancestor, _ in self._hits()[1]} - {None}
        for rowid in sorted(ancestors):
            yield Candidate("section", rowid, self.ctx.accessor)


class GoverningLift(Lift):
    """Lift content hits to their governing contexts (content search).

    Blocking: scores (INTENSE boosts) accumulate across *all* hits of a
    context.  Emits the distinct contexts in ROWID order with their
    final scores, then one document-level candidate per context-less
    document (its first hit row, whose data becomes the snippet).
    """

    name = "governing-lift"

    def _produce(self) -> Iterator[Candidate]:
        scores: dict[RowId, float] = {}
        unowned: list[RowId] = []
        for rowid, (sections, _, emphasised) in zip(*self._hits()):
            if sections:
                boost = 0.5 if emphasised else 0.0
                scores[sections[0]] = scores.get(sections[0], 1.0) + boost
            else:
                unowned.append(rowid)
        for rowid in sorted(scores):
            yield Candidate("section", rowid, self.ctx.accessor, scores[rowid])
        doc_level: dict[int, RowId] = {}
        for row in self.ctx.accessor.nodes(sorted(unowned)):
            doc_level.setdefault(self.ctx.accessor.document_of(row)[1], row.rowid)
        for doc_id in sorted(doc_level):
            yield Candidate("document", doc_level[doc_id], self.ctx.accessor)


class NodenameProbe(PlanNode):
    """B+tree probe on NODENAME: one candidate per element instance, in
    ROWID order."""

    name = "nodename-probe"

    def __init__(self, ctx: PlanContext, nodename: str) -> None:
        super().__init__(ctx, detail=nodename)
        self.nodename = nodename

    def _produce(self) -> Iterator[Candidate]:
        for row in self.ctx.accessor.lookup_rows("NODENAME", self.nodename):
            yield Candidate("node", row.rowid, self.ctx.accessor)


class Spares(PlanNode):
    """Section candidates by ROWID: a cached answer's spares (:mod:`repro.query.cache`)."""

    name = "spares"

    def __init__(self, ctx: PlanContext, rowids: tuple[RowId, ...]) -> None:
        super().__init__(ctx)
        self.rowids = rowids

    def _produce(self) -> Iterator[Candidate]:
        return (Candidate("section", rowid, self.ctx.accessor) for rowid in self.rowids)


# -- filters ------------------------------------------------------------------


class DocFilter(PlanNode):
    """The ``Doc=`` narrowing filter: file-name substring, case-folded."""

    name = "doc-filter"

    def __init__(self, ctx: PlanContext, child: PlanNode, needle: str) -> None:
        super().__init__(ctx, child, detail=needle)
        self.needle = needle.lower()

    def _produce(self) -> Iterator[Candidate]:
        for candidate in self.children[0].rows():
            if self.needle in self.ctx.entry(candidate.row).file_name.lower():
                yield candidate


class FormatFilter(PlanNode):
    """The ``Format=`` narrowing filter (matched against the catalog)."""

    name = "format-filter"

    def __init__(self, ctx: PlanContext, child: PlanNode, wanted: str) -> None:
        super().__init__(ctx, child, detail=wanted)
        self.wanted = wanted

    def _produce(self) -> Iterator[Candidate]:
        for candidate in self.children[0].rows():
            if self.ctx.entry(candidate.row).format == self.wanted:
                yield candidate


class ContentTest(PlanNode):
    """An operator that holds candidates against the query's content spec;
    a ``decided`` one (a :class:`SectionWalk`) knows the index held them."""

    def __init__(
        self, ctx: PlanContext, child: PlanNode, spec: ContentSpec, decided: bool = False
    ) -> None:
        decision = "; decided by the index" if decided else ""
        super().__init__(ctx, child, detail=f"{spec.mode}: {spec.text}{decision}")
        self.spec, self.decided = spec, decided


class Intersect(ContentTest):
    """Section-level semijoin against content-term postings.

    A section's text — heading and scope — is the text of the TEXT rows
    whose ``sections`` fact names it, so a candidate holds a token when
    one of those rows does: one door, ``snapshot_text_sections``, answers
    that for every token at once from the smaller side (a row changed
    since the LSN takes its facts from :meth:`NodeAccessor.text_facts`).
    A term needs all its tokens there (``cost-benefit`` is two), ``all``
    every term, ``any`` one, a phrase every token: exactly what satisfies
    the spec when every term is one token, else a superset —
    :class:`SectionWalk`, under the limit, has the last word on
    adjacency.  Document-level candidates pass untested, as they pass the
    walk.  No row is fetched, no document probed.
    """

    name = "intersect"

    def _produce(self) -> Iterator[Candidate]:
        spec = self.spec
        per_term = [tokenize(term, keep_stopwords=True) for term in spec.held]
        candidates, accessor = list(self.children[0].rows()), self.ctx.accessor
        holding = accessor.table.snapshot_text_sections(
            "NODEDATA", [token for tokens in per_term for token in tokens],
            {candidate.rowid for candidate in candidates if candidate.kind == "section"},
            accessor.text_facts, accessor.lsn,
        )
        combine = set.union if spec.mode == "any" else set.intersection
        admitted = combine(*(
            set.intersection(*(holding[token] for token in tokens)) if tokens else set()
            for tokens in per_term
        ))
        for candidate in candidates:
            if candidate.kind == "document" or candidate.rowid in admitted:
                yield candidate


class SectionWalk(ContentTest):
    """The downward walk: content containment per candidate.

    This is the expensive operator — resolving a section's text means
    reading every row of the section — so it sits directly under
    ``Limit``: candidates beyond what the limit needs are never walked.
    The read is one forward read of the section's run, which the
    candidate carries on to its match.  Document-level candidates pass
    through untested (they matched on a context-less hit; there is no
    section to test).  The heading participates: ``Content=Shuttle``
    returns sections containing the term *anywhere*, headings included.
    A ``decided`` walk reads each run but skips the test: the index path
    answered it (:meth:`~repro.query.engine.QueryEngine.compile`).
    """

    name = "section-walk"

    def _produce(self) -> Iterator[Candidate]:
        accessor, tested = self.ctx.accessor, not self.decided
        for candidate in self.children[0].rows():
            if candidate.kind == "section":
                candidate.run = accessor.run(candidate.row, siblings=True)
                if tested and not text_satisfies(joined_text(candidate.run), self.spec):
                    continue
            yield candidate


def node_text(rows: list[XmlRow]) -> str:
    """An element's text from its run of rows (head first): its TEXT
    rows' data joined in document order, whitespace collapsed."""
    text = "".join([row.NODEDATA or "" for row in rows if NodeAccessor.is_text(row)])
    return re.sub(r"\s+", " ", text).strip()


class ContentFilter(ContentTest):
    """Nodename-search content test: one forward read of the element's
    rows, the test on their text, and the run on to its match."""

    name = "content-filter"

    def _produce(self) -> Iterator[Candidate]:
        accessor = self.ctx.accessor
        for candidate in self.children[0].rows():
            candidate.run = accessor.run(candidate.row)
            if text_satisfies(node_text(candidate.run), self.spec):
                yield candidate


# -- rank / limit / present ----------------------------------------------------


class Rank(PlanNode):
    """Emit by descending score (stable: ties keep presentation order).

    Blocking by necessity — ranking needs every score — but a candidate
    at this point is an address and a float; the expensive section
    resolution happens downstream, bounded by ``Limit``.
    """

    name = "rank"

    def _produce(self) -> Iterator[Candidate]:
        self.ctx.ranked = sorted(self.children[0].rows(), key=lambda c: -c.score)
        yield from self.ctx.ranked


class Limit(PlanNode):
    """Stop pulling after N rows; pass-through when no limit is set."""

    name = "limit"

    def __init__(self, ctx: PlanContext, child: PlanNode, limit: int | None) -> None:
        super().__init__(ctx, child, detail="" if limit is None else str(limit))
        self.limit = limit if limit is None else min(limit, sys.maxsize)  # islice's bound

    def _produce(self) -> Iterator[Any]:
        return islice(self.children[0].rows(), self.limit)


class Present(PlanNode):
    """Restore presentation order after rank-aware limiting: sections (or
    nodes), then document-level hits, each by ROWID; rows come in one batch."""

    name = "present"

    def _produce(self) -> Iterator[Candidate]:
        survivors = list(self.children[0].rows())
        self.ctx.accessor.nodes([candidate.rowid for candidate in survivors])
        yield from sorted(survivors, key=lambda c: (c.kind == "document", c.rowid))


# -- materialization ----------------------------------------------------------


@dataclass
class _Resolver:
    """What a lazy match's loader reads through: the plan's accessor, and
    the match's rows (:meth:`_run`) — handed on by the plan, else read at
    the first ask — which :meth:`kept` outlives it with."""

    ctx: PlanContext | None
    row: XmlRow
    _rows: list[XmlRow] | None = field(default=None, repr=False)

    #: Does the run take the row's following siblings (a section)?
    siblings = False

    def publish(self) -> None:
        if self.ctx is not None:
            self.ctx.accessor.publish()

    def kept(self) -> "_Resolver":
        """This loader without the accessor, for a resolved match: its
        section and a twin's ``<result>`` need only the (immutable) rows."""
        return type(self)(None, self.row, self._run())

    def _run(self) -> list[XmlRow]:
        """The row and what follows it in the match: one forward read, at most."""
        if self._rows is None:
            self._rows = self.ctx.accessor.run(self.row, self.siblings)
        return self._rows

    def section(self) -> Element | None:
        """A section under a synthetic ``<section>``; a node as itself."""
        return tree_of(self._run(), "section" if self.siblings else "")

    def write_section(self, writer: XmlWriter | TreeWriter) -> None:
        """The ``<result>``'s content: :meth:`section`'s children but a
        ``context`` one."""
        write_rows(self._run()[0 if self.siblings else 1:], writer, skip="context")


class SectionResolver(_Resolver):
    """Lazy-field loader for a section match: its heading's text, its
    scope's text and its ``<result>``, all from the section's run."""

    siblings = True

    def context(self) -> str:
        return joined_text(split_section(self._run())[0])

    def content(self) -> str:
        return joined_text(split_section(self._run())[1])


class NodeResolver(_Resolver):
    """Lazy-field loader for a nodename match: the element's rows serve
    its text, its ``<result>`` and its section."""

    def context(self) -> str:
        governing = self.ctx.accessor.governing(self.row)
        if governing is None:
            return self.ctx.entry(self.row).file_name
        return self.ctx.accessor.context_title(governing)

    def content(self) -> str:
        return node_text(self._run())


class Materialize(PlanNode):
    """Candidates → lazy :class:`SectionMatch` objects.

    Section and nodename matches get loader-backed lazy fields (title,
    content and ``<result>`` resolve on first access from the match's
    run: the one :class:`SectionWalk` or :class:`ContentFilter` read,
    else one forward read through the shared accessor); document-level
    matches are materialized eagerly from the hit row already in hand.
    """

    name = "materialize"

    def _produce(self) -> Iterator[SectionMatch]:
        ctx = self.ctx
        for candidate in self.children[0].rows():
            row = candidate.row
            entry = ctx.entry(row)
            if candidate.kind == "section":
                fields = {"loader": SectionResolver(ctx, row, candidate.run), "rowid": row.rowid}
            elif candidate.kind == "document":
                snippet = re.sub(r"\s+", " ", (row.NODEDATA or "").strip())
                fields = {"context": entry.file_name, "content": snippet, "section": None}
            else:  # nodename
                fields = {"loader": NodeResolver(ctx, row, candidate.run)}
            yield SectionMatch(entry.doc_id, entry.file_name, score=candidate.score, **fields)
