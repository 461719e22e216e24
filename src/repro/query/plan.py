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
    Section-level semijoin: the sections whose text holds the content
    terms, from postings and their facts alone, before any row is read.
``Rank`` … ``Limit`` … ``Present``
    ``Rank`` (blocking) re-orders by descending score, so ``Limit`` is
    *rank-aware*; ``Present`` restores presentation order afterwards.
``SectionWalk`` / ``ContentFilter``
    The expensive per-candidate content test, directly under ``Limit``:
    one forward read of the candidate's section (heading included), or,
    for a nodename search, of the composed element.
``Materialize``
    Converts surviving candidates into lazy
    :class:`~repro.query.results.SectionMatch` objects.

``Explain=1`` renders the tree with each operator's observed row count —
see :meth:`PlanNode.explain_element`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import DocumentNotFoundError, QueryError
from repro.obs import PlanProfiler
from repro.ordbms import RowId
from repro.ordbms.textindex import TextIndex, tokenize
from repro.query.ast import ContentSpec
from repro.query.results import SectionMatch
from repro.sgml.dom import Element, Text
from repro.sgml.nodetypes import NodeType
from repro.store.accessor import NodeAccessor
from repro.store.compose import compose_node, compose_section
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
    terms = [spec.text] if spec.mode == "phrase" else spec.terms
    holds = (_run_in(tokenize(term, keep_stopwords=True), haystack) for term in terms)
    return any(holds) if spec.mode == "any" else all(holds)


class PlanContext:
    """Shared execution state for one query's plan.

    Owns the per-query :class:`NodeAccessor` (memoized, batch-fetching
    row access at one commit LSN, which every operator reads at),
    through whose memo catalog entries go too: repeated
    ``describe`` lookups during filtering and materialization cost at
    most one B+tree probe per document, none when the store's pool
    already holds the entry.
    """

    def __init__(
        self, store: XmlStore, accessor: NodeAccessor, use_index: bool,
        profiler: PlanProfiler | None = None, budget: "Budget | None" = None,
    ) -> None:
        self.store = store
        self.accessor = accessor
        self.use_index = use_index
        self.profiler = profiler
        #: The request's time-and-cancellation budget
        #: (:class:`repro.resilience.deadline.Budget`); every operator
        #: checks it at its pull boundary, so one expired deadline stops
        #: the whole tree cooperatively.  None = unbounded.
        self.budget = budget
        #: What ``Rank`` ordered; a full answer's cache entry keeps some.
        self.ranked: list[Candidate] = []

    def entry(self, doc_id: int) -> StoredDocument:
        """Catalog entry for ``doc_id`` — a DOC row is as write-once as
        an XML row, so the entry is memoized like a lift."""
        return self.accessor.memoized(
            "entry", doc_id, self.store.entry_at, doc_id, self.accessor.lsn
        )


@dataclass
class Candidate:
    """One item flowing through a plan: a potential match, pre-materialization.

    ``kind`` is "section" (``rowid`` addresses a CONTEXT row), "document"
    (the document's first context-less content hit) or "node" (an element
    row from a nodename search).  The row is read when something first
    asks for it — under ``Limit``, for a section.
    """

    kind: str
    rowid: RowId
    accessor: NodeAccessor = field(repr=False)
    score: float = 1.0
    node: Element | Text | None = None
    text: str | None = None

    @property
    def row(self) -> XmlRow:
        return self.accessor.node(self.rowid)

    @property
    def doc_id(self) -> int:
        return self.row.DOC_ID


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
        self.ticks = 0
        self.wall_seconds = 0.0

    def rows(self) -> Iterator[Any]:
        if self.ctx.profiler is not None:
            yield from self._profiled_rows()
            return
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

    def _profiled_rows(self) -> Iterator[Any]:
        """The instrumented pull loop behind ``Explain=profile``.

        Inclusive cost per operator: the profiler's tick delta around
        each ``next()`` (every row surfaced anywhere in the subtree
        advances the clock) plus one tick for the row this operator
        itself surfaces.  Wall time, when a clock was injected, brackets
        the same ``next()`` calls — producer time only, consumer time
        (whatever the caller does between pulls) is excluded.
        """
        profiler = self.ctx.profiler
        budget = self.ctx.budget
        wall = profiler.wall_clock
        produce = self._produce()
        while True:
            start = profiler.now()
            wall_start = wall() if wall is not None else 0.0
            try:
                item = next(produce)
            except StopIteration:
                self.ticks += profiler.now() - start
                if wall is not None:
                    self.wall_seconds += wall() - wall_start
                return
            profiler.advance()
            self.ticks += profiler.now() - start
            if wall is not None:
                self.wall_seconds += wall() - wall_start
            if budget is not None and not budget.admits(self.name):
                return
            self.rows_out += 1
            yield item

    def _produce(self) -> Iterator[Any]:
        raise QueryError(f"plan node {type(self).__name__} has no cursor")

    def explain_element(self) -> Element:
        """``<operator name=… rows=…>`` with child operators nested.

        Under ``Explain=profile`` each operator also carries ``ticks``
        (inclusive work units — deterministic) and, when a wall clock was
        injected at the composition root, ``wall_ms``.
        """
        attributes = {"name": self.name, "rows": str(self.rows_out)}
        if self.ctx.profiler is not None:
            attributes["ticks"] = str(self.ticks)
            if self.ctx.profiler.wall_clock is not None:
                attributes["wall_ms"] = f"{self.wall_seconds * 1000.0:.3f}"
        if self.detail:
            attributes["detail"] = self.detail
        element = Element("operator", attributes)
        for child in self.children:
            element.append(child.explain_element())
        return element


# -- leaf sources -------------------------------------------------------------


class TextSource(PlanNode):
    """A leaf yielding the ROWIDs — postings, not rows — of the TEXT rows
    whose NODEDATA matches one search key: the inverted-index probe of
    paper §2.1.4, correct as of the plan's LSN, or (``use_index=False``,
    the ABL-IDX ablation) a full scan judging every row's text."""

    def __init__(self, ctx: PlanContext, key: str, phrase_mode: bool) -> None:
        kind = "phrase" if phrase_mode else "terms"
        super().__init__(ctx, detail=f'{kind} "{key}"')
        self.name = "index-probe" if ctx.use_index else "scan"
        self.key, self.phrase_mode = key, phrase_mode

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
            return index.lookup_phrase(self.key)
        return index.lookup_all(tokenize(self.key))

    def _produce(self) -> Iterator[RowId]:
        accessor = self.ctx.accessor
        if self.ctx.use_index:
            yield from accessor.probe_text(self._lookup, self._matches)
            return
        for row in self.ctx.store.xml_table.snapshot_scan(accessor.lsn):
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
    holds it; hits outside any heading have no ancestor and drop out.
    Emitted in ROWID order, which is (document, node) order — the
    presentation order (fsck ``doc-order``).
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
            doc_level.setdefault(row.DOC_ID, row.rowid)
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
            if self.needle in self.ctx.entry(candidate.doc_id).file_name.lower():
                yield candidate


class FormatFilter(PlanNode):
    """The ``Format=`` narrowing filter (matched against the catalog)."""

    name = "format-filter"

    def __init__(self, ctx: PlanContext, child: PlanNode, wanted: str) -> None:
        super().__init__(ctx, child, detail=wanted)
        self.wanted = wanted

    def _produce(self) -> Iterator[Candidate]:
        for candidate in self.children[0].rows():
            try:
                entry = self.ctx.entry(candidate.doc_id)
            except DocumentNotFoundError:
                yield candidate  # federated matches lack local entries
                continue
            if entry.format == self.wanted:
                yield candidate


class ContentTest(PlanNode):
    """An operator that holds candidates against the query's content spec."""

    def __init__(self, ctx: PlanContext, child: PlanNode, spec: ContentSpec) -> None:
        super().__init__(ctx, child, detail=f"{spec.mode}: {spec.text}")
        self.spec = spec


class Intersect(ContentTest):
    """Section-level semijoin against content-term postings.

    A section's text — heading and scope — is the text of the TEXT rows
    whose ``sections`` fact names it, so the sections holding a token
    are the union of its postings' facts.  A term needs all its tokens
    there (``cost-benefit`` is two), ``all`` every term, ``any`` one, a
    phrase every token: a superset of what satisfies the spec, or equal
    to it — :class:`SectionWalk`, under the limit, has the last word on
    adjacency.  No row is fetched, no document probed.
    """

    name = "intersect"

    def _holding(self, token: str) -> set[RowId]:
        """The sections whose text has ``token``."""
        accessor = self.ctx.accessor
        postings = accessor.probe_text(
            lambda index: index.lookup(token),
            lambda data: token in tokenize(data, keep_stopwords=True),
        )
        return {section for fact in accessor.text_facts(postings) for section in fact[0]}

    def _produce(self) -> Iterator[Candidate]:
        spec = self.spec
        terms = [spec.text] if spec.mode == "phrase" else spec.terms
        per_term = [
            set.intersection(*map(self._holding, tokens)) if tokens else set()
            for tokens in (tokenize(term, keep_stopwords=True) for term in terms)
        ]
        combine = set.union if spec.mode == "any" else set.intersection
        admitted = combine(*per_term)
        for candidate in self.children[0].rows():
            if candidate.rowid in admitted:
                yield candidate


class SectionWalk(ContentTest):
    """The downward walk: content containment per candidate.

    This is the expensive operator — resolving a section's text means
    reading every row of the section — so it sits directly under
    ``Limit``: candidates beyond what the limit needs are never walked.
    Document-level candidates pass through untested (they matched on a
    context-less hit; there is no section to test).  The heading
    participates: ``Content=Shuttle`` returns sections containing the
    term *anywhere*, headings included.
    """

    name = "section-walk"

    def _produce(self) -> Iterator[Candidate]:
        accessor = self.ctx.accessor
        for candidate in self.children[0].rows():
            if candidate.kind == "section":
                row = candidate.row
                text = accessor.context_title(row) + " " + accessor.section_text(row)
                if not text_satisfies(text, self.spec):
                    continue
            yield candidate


class ContentFilter(ContentTest):
    """Nodename-search content test: compose the element, test its text.

    The composed node and normalized text are cached on the candidate so
    materialization doesn't redo the work.
    """

    name = "content-filter"

    def _produce(self) -> Iterator[Candidate]:
        for candidate in self.children[0].rows():
            node = compose_node(candidate.row, self.ctx.accessor)
            text = re.sub(r"\s+", " ", node.text_content()).strip()
            if not text_satisfies(text, self.spec):
                continue
            candidate.node = node
            candidate.text = text
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
        self.limit = limit

    def _produce(self) -> Iterator[Any]:
        if self.limit is None:
            yield from self.children[0].rows()
            return
        emitted = 0
        for item in self.children[0].rows():
            yield item
            emitted += 1
            if emitted >= self.limit:
                break


class Present(PlanNode):
    """Restore presentation order after rank-aware limiting: sections
    (or nodes) by ROWID, then the document-level hits by ROWID."""

    name = "present"

    def _produce(self) -> Iterator[Candidate]:
        yield from sorted(self.children[0].rows(), key=lambda c: (c.kind == "document", c.rowid))


# -- materialization ----------------------------------------------------------


@dataclass
class SectionResolver:
    """Lazy-field loader for a section match (accessor-backed)."""

    ctx: PlanContext
    row: XmlRow

    def context(self) -> str:
        return self.ctx.accessor.context_title(self.row)

    def content(self) -> str:
        return self.ctx.accessor.section_text(self.row)

    def section(self) -> Element | None:
        return compose_section(self.row, self.ctx.accessor)


@dataclass
class NodeResolver:
    """Lazy-field loader for a nodename match."""

    ctx: PlanContext
    row: XmlRow
    node: Element | Text | None = None
    text: str | None = None
    _heading: str | None = field(default=None, repr=False)

    def _resolve_node(self) -> Element | Text:
        if self.node is None:
            self.node = compose_node(self.row, self.ctx.accessor)
        return self.node

    def context(self) -> str:
        if self._heading is None:
            governing = self.ctx.accessor.governing(self.row)
            self._heading = (
                self.ctx.accessor.context_title(governing)
                if governing is not None
                else self.ctx.entry(self.row.DOC_ID).file_name
            )
        return self._heading

    def content(self) -> str:
        if self.text is None:
            node = self._resolve_node()
            self.text = re.sub(r"\s+", " ", node.text_content()).strip()
        return self.text

    def section(self) -> Element | None:
        node = self._resolve_node()
        return node if isinstance(node, Element) else None


class Materialize(PlanNode):
    """Candidates → lazy :class:`SectionMatch` objects.

    Section and nodename matches get loader-backed lazy fields (title,
    content and DOM fragment resolve on first access through the shared
    accessor); document-level matches are materialized eagerly from the
    hit row already in hand.
    """

    name = "materialize"

    def _produce(self) -> Iterator[SectionMatch]:
        ctx = self.ctx
        for candidate in self.children[0].rows():
            entry = ctx.entry(candidate.doc_id)
            if candidate.kind == "section":
                yield SectionMatch(
                    doc_id=entry.doc_id,
                    file_name=entry.file_name,
                    score=candidate.score,
                    loader=SectionResolver(ctx, candidate.row),
                    rowid=candidate.rowid,
                )
            elif candidate.kind == "document":
                snippet = (candidate.row.NODEDATA or "").strip()
                snippet = re.sub(r"\s+", " ", snippet)
                yield SectionMatch(
                    doc_id=entry.doc_id,
                    file_name=entry.file_name,
                    context=entry.file_name,
                    content=snippet,
                    section=None,
                    score=candidate.score,
                )
            else:  # nodename
                yield SectionMatch(
                    doc_id=entry.doc_id,
                    file_name=entry.file_name,
                    score=candidate.score,
                    loader=NodeResolver(
                        ctx, candidate.row, candidate.node, candidate.text
                    ),
                )
