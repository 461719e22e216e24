"""Query plans: explicit operator trees with lazy cursors.

The engine (:mod:`repro.query.engine`) compiles every XDB query into a
small tree of :class:`PlanNode` operators and then *pulls* matches out of
the root.  Each operator is a lazy cursor — ``rows()`` yields items one
at a time and counts them — so a downstream ``Limit`` stops the whole
pipeline early: no section is walked, no title resolved, no match
materialized beyond what the limit requires.

Operator inventory (leaf → root; each class says the rest):

``IndexProbe`` / ``Scan``
    TEXT-row sources: the inverted-index probe of paper §2.1.4, or the
    full-table fallback used by the ABL-IDX ablation.
``Union``
    Order-preserving, ROWID-deduplicating merge of several probes.
``ContextLift`` / ``GoverningLift``
    The upward traversal: heading hits lift to their CONTEXT *ancestor*
    (context search), content hits to their *governing* context (content
    search, which also accumulates INTENSE score boosts and collects
    document-level hits that precede every context).
``NodenameProbe``, ``Sort``, ``DocFilter`` / ``FormatFilter``
    The nodename source, the stable (document, node) presentation order,
    and the ``Doc=`` / ``Format=`` narrowing filters.
``Intersect``
    Document-level semijoin: content terms must occur *somewhere* in a
    candidate's document, decided on index postings and row addresses
    alone, before any section is read.
``Rank`` … ``Limit`` … ``Present``
    ``Rank`` (blocking) tags presentation positions and re-orders by
    descending score, so ``Limit`` is *rank-aware*; ``Present`` restores
    presentation order afterwards.
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
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.errors import DocumentNotFoundError, QueryError
from repro.obs import PlanProfiler
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


def phrase_in(phrase: str | list[str], text: str) -> bool:
    """Token-level phrase containment, case-insensitive.

    ``Budget`` is contained in ``FY04 Budget Summary`` but not in
    ``Budgetary`` — token boundaries matter, substring match does not.
    A caller testing one phrase against many texts passes its tokens
    (``tokenize(phrase, keep_stopwords=True)``), tokenized once.
    """
    needle = (
        tokenize(phrase, keep_stopwords=True)
        if isinstance(phrase, str) else phrase
    )
    haystack = tokenize(text, keep_stopwords=True)
    if not needle:
        return False
    span = len(needle)
    return any(
        haystack[start:start + span] == needle
        for start in range(len(haystack) - span + 1)
    )


def text_satisfies(text: str, spec: ContentSpec) -> bool:
    """Does free text satisfy a content spec (phrase / any / all)?"""
    if spec.mode == "phrase":
        return phrase_in(spec.text, text)
    tokens = set(tokenize(text, keep_stopwords=True))
    wanted = [term.lower() for term in spec.terms]
    if spec.mode == "any":
        return any(term in tokens for term in wanted)
    return all(term in tokens for term in wanted)


def scan_match(key: str, data: str, phrase_mode: bool) -> bool:
    """The scan-path predicate mirroring one index probe."""
    if phrase_mode:
        return phrase_in(key, data)
    tokens = set(tokenize(data, keep_stopwords=True))
    return all(term.lower() in tokens for term in tokenize(key))


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
        self,
        store: XmlStore,
        accessor: NodeAccessor,
        use_index: bool,
        profiler: PlanProfiler | None = None,
        budget: "Budget | None" = None,
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

    def entry(self, doc_id: int) -> StoredDocument:
        """Catalog entry for ``doc_id`` — a DOC row is as write-once as
        an XML row, so the entry is memoized like a lift."""
        return self.accessor.memoized(
            "entry", doc_id, self.store.entry_at, doc_id, self.accessor.lsn
        )

    def file_name(self, doc_id: int) -> str:
        return self.entry(doc_id).file_name

    def text_index(self) -> TextIndex:
        """The NODEDATA inverted index (schema-created; absence is a fault)."""
        index = self.store.xml_table.text_index_on("NODEDATA")
        if index is None:
            raise QueryError(
                "indexed search requires the text index on XML.NODEDATA, "
                "which the schema normally creates"
            )
        return index

    def section_satisfies(self, context_row: XmlRow, spec: ContentSpec) -> bool:
        """Does the section under ``context_row`` satisfy the content spec?

        The heading participates: ``Content=Shuttle`` returns sections
        containing the term *anywhere*, headings included.
        """
        heading = self.accessor.context_title(context_row)
        text = heading + " " + self.accessor.section_text(context_row)
        return text_satisfies(text, spec)

    def is_emphasized(self, row: XmlRow) -> bool:
        """True when a text row sits inside INTENSE (emphasis) markup."""
        current = row
        while True:
            parent = self.accessor.parent(current)
            if parent is None:
                return False
            if parent.NODETYPE == int(NodeType.INTENSE):
                return True
            if parent.NODETYPE == int(NodeType.CONTEXT):
                return False
            current = parent


@dataclass
class Candidate:
    """One item flowing through a plan: a potential match, pre-materialization.

    ``kind`` is "section" (``row`` is a CONTEXT row), "document" (``row``
    is the first context-less content hit of the document) or "node"
    (``row`` is an element row from a nodename search).  ``order`` is the
    presentation position tagged by :class:`Rank` so :class:`Present`
    can restore it after rank-aware limiting.
    """

    kind: str
    doc_id: int
    row: XmlRow
    score: float = 1.0
    order: int = -1
    node: Element | Text | None = None
    text: str | None = None


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
    """A leaf yielding the TEXT rows whose NODEDATA matches one search key."""

    def __init__(self, ctx: PlanContext, key: str, phrase_mode: bool) -> None:
        kind = "phrase" if phrase_mode else "terms"
        super().__init__(ctx, detail=f'{kind} "{key}"')
        self.key = key
        self.phrase_mode = phrase_mode

    def _matches(self, data: str | None) -> bool:
        return data is not None and scan_match(self.key, data, self.phrase_mode)

    def _produce(self) -> Iterator[Candidate]:
        for row in self._rows():
            if row.NODETYPE == int(NodeType.TEXT):
                yield Candidate("text", row.DOC_ID, row)


class IndexProbe(TextSource):
    """Inverted-index probe over XML.NODEDATA.

    The posting list comes back as rowids; the rows arrive in ONE batched
    fetch through the accessor (and stay cached for later lifts/walks).
    """

    name = "index-probe"

    def _lookup(self, index: TextIndex) -> set[Any]:
        if self.phrase_mode:
            return index.lookup_phrase(self.key)
        return index.lookup_all(tokenize(self.key))

    def _rows(self) -> Iterable[XmlRow]:
        self.ctx.text_index()  # missing index is a fault even under MVCC
        accessor = self.ctx.accessor
        return accessor.nodes(accessor.probe_text(self._lookup, self._matches))


class Scan(TextSource):
    """Full-table scan source (the ABL-IDX ablation's ``use_index=False``)."""

    name = "scan"

    def _rows(self) -> Iterable[XmlRow]:
        rows = self.ctx.store.xml_table.snapshot_scan(self.ctx.accessor.lsn)
        return (row for row in rows if self._matches(row.NODEDATA))


class Union(PlanNode):
    """Order-preserving union of several sources, deduplicated by ROWID."""

    name = "union"

    def _produce(self) -> Iterator[Candidate]:
        seen: set[Any] = set()
        for child in self.children:
            for candidate in child.rows():
                rowid = candidate.row.rowid
                if rowid in seen:
                    continue
                seen.add(rowid)
                yield candidate


# -- upward traversal ---------------------------------------------------------


class ContextLift(PlanNode):
    """Lift heading hits to their CONTEXT ancestors (context search).

    Each child probe is paired with the phrase it searched for; a lifted
    context only survives if the *whole* phrase holds across its full
    (possibly multi-node) heading.  Confirmed contexts are deduplicated
    across phrases.
    """

    name = "context-lift"

    def __init__(
        self, ctx: PlanContext, pairs: list[tuple[PlanNode, str]]
    ) -> None:
        super().__init__(ctx, *[node for node, _ in pairs])
        self.pairs = pairs

    def _produce(self) -> Iterator[Candidate]:
        accessor = self.ctx.accessor
        confirmed: set[Any] = set()
        for source, phrase in self.pairs:
            needle = tokenize(phrase, keep_stopwords=True)
            hits = [hit.row for hit in source.rows()]
            for context in accessor.lift_all(hits, governing=False):
                if context is None:
                    continue
                rowid = context.rowid
                if rowid in confirmed:
                    continue
                # The index matched one TEXT node; confirm the phrase
                # holds across the whole heading.
                if phrase_in(needle, accessor.context_title(context)):
                    confirmed.add(rowid)
                    yield Candidate("section", context.DOC_ID, context)


class GoverningLift(PlanNode):
    """Lift content hits to their governing contexts (content search).

    Blocking: scores (INTENSE boosts) accumulate across *all* hits of a
    context, so nothing can flow until every hit is seen.  Emits the
    distinct contexts in stable (document, node) order with their final
    scores, then one document-level candidate per context-less document
    (carrying its first hit row, whose data becomes the snippet).
    """

    name = "governing-lift"

    def _produce(self) -> Iterator[Candidate]:
        accessor = self.ctx.accessor
        contexts: dict[Any, XmlRow] = {}
        boosts: dict[Any, float] = {}
        doc_level: dict[int, XmlRow] = {}
        hits = [hit.row for hit in self.children[0].rows()]
        # The emphasis test walks every hit's ancestors whatever the memos
        # say of its governing context: fetch them by level, not by hop.
        accessor.prefetch_ancestors(hits)
        lifted = accessor.lift_all(hits, governing=True)
        for row, context in zip(hits, lifted):
            if context is None:
                doc_level.setdefault(row.DOC_ID, row)
                continue
            key = context.rowid
            contexts.setdefault(key, context)
            if self.ctx.is_emphasized(row):
                boosts[key] = boosts.get(key, 0.0) + 0.5
        ordered = sorted(
            contexts.values(), key=lambda row: (row.DOC_ID, row.NODEID)
        )
        for row in ordered:
            score = 1.0 + boosts.get(row.rowid, 0.0)
            yield Candidate("section", row.DOC_ID, row, score=score)
        for doc_id in sorted(doc_level):
            yield Candidate("document", doc_id, doc_level[doc_id])


class NodenameProbe(PlanNode):
    """B+tree probe on NODENAME: one candidate per element instance."""

    name = "nodename-probe"

    def __init__(self, ctx: PlanContext, nodename: str) -> None:
        super().__init__(ctx, detail=nodename)
        self.nodename = nodename

    def _produce(self) -> Iterator[Candidate]:
        for row in self.ctx.accessor.lookup_rows("NODENAME", self.nodename):
            yield Candidate("node", row.DOC_ID, row)


class Sort(PlanNode):
    """Stable (document, node) ordering — the presentation order."""

    name = "sort"

    def _produce(self) -> Iterator[Candidate]:
        yield from sorted(
            self.children[0].rows(),
            key=lambda c: (c.row.DOC_ID, c.row.NODEID),
        )


# -- filters ------------------------------------------------------------------


class DocFilter(PlanNode):
    """The ``Doc=`` narrowing filter: file-name substring, case-folded."""

    name = "doc-filter"

    def __init__(self, ctx: PlanContext, child: PlanNode, needle: str) -> None:
        super().__init__(ctx, child, detail=needle)
        self.needle = needle.lower()

    def _produce(self) -> Iterator[Candidate]:
        for candidate in self.children[0].rows():
            if self.needle in self.ctx.file_name(candidate.doc_id).lower():
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

    def __init__(
        self, ctx: PlanContext, child: PlanNode, spec: ContentSpec
    ) -> None:
        super().__init__(ctx, child, detail=f"{spec.mode}: {spec.text}")
        self.spec = spec


class Intersect(ContentTest):
    """Document-level semijoin against content-term postings.

    A section's text (heading included) is drawn entirely from TEXT rows
    of its own document, and the joined text is space-separated, so every
    token of a matching section occurs as a token of *some* row the
    index has seen.  Hence: a candidate whose document lacks a required
    term can never satisfy the content spec — drop it before walking its
    section.  Only terms the tokenizer maps to themselves participate
    (``all`` intersects per-term document sets, ``any`` unions them,
    ``phrase`` intersects per-token sets); when a term falls outside
    that shape the semijoin abstains rather than guess.

    Membership, not rows: each token's postings stay a set of ROWIDs
    (:meth:`NodeAccessor.probe_text`, correct as of the pin) and a
    candidate's document is the set of its rows' addresses
    (:meth:`NodeAccessor.lookup_rowids`, one ``XML.DOC_ID`` probe per
    document) — the document has the token when the two intersect, and
    no posting row is fetched to learn its ``DOC_ID``.
    """

    name = "intersect"

    def _postings(self, token: str) -> set[Any]:
        self.ctx.text_index()  # missing index is a fault even under MVCC
        return set(self.ctx.accessor.probe_text(
            lambda index: index.lookup(token),
            lambda data: token.lower() in tokenize(data, keep_stopwords=True),
        ))

    def _required(self) -> tuple[list[set[Any]], bool] | None:
        """Per-token posting sets and whether every one must be met —
        None means "cannot prune"."""
        spec = self.spec
        if spec.mode == "phrase":
            tokens = tokenize(spec.text, keep_stopwords=True)
        else:
            tokens = [
                term.lower() for term in spec.terms
                if tokenize(term, keep_stopwords=True) == [term.lower()]
            ]
            if spec.mode == "any" and len(tokens) < len(spec.terms):
                return None  # an odd term: abstain ("all" just skips it)
        if not tokens:
            return None
        return [self._postings(token) for token in tokens], spec.mode != "any"

    def _produce(self) -> Iterator[Candidate]:
        required = self._required()
        if required is None:
            yield from self.children[0].rows()
            return
        postings, every = required
        quantifier = all if every else any
        admitted: dict[int, bool] = {}
        for candidate in self.children[0].rows():
            doc_id = candidate.doc_id
            if doc_id not in admitted:
                rowids = self.ctx.accessor.lookup_rowids("DOC_ID", doc_id)
                admitted[doc_id] = quantifier(
                    not found.isdisjoint(rowids) for found in postings
                )
            if admitted[doc_id]:
                yield candidate


class SectionWalk(ContentTest):
    """The downward walk: content containment per candidate.

    This is the expensive operator — resolving a section's text means
    reading every row of the section — so it sits directly under
    ``Limit``: candidates beyond what the limit needs are never walked.
    Document-level candidates pass through untested (they matched on a
    context-less hit; there is no section to test).
    """

    name = "section-walk"

    def _produce(self) -> Iterator[Candidate]:
        for candidate in self.children[0].rows():
            if candidate.kind != "section" or self.ctx.section_satisfies(
                candidate.row, self.spec
            ):
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
    """Tag presentation positions, then emit by descending score (stable).

    Blocking by necessity — ranking needs every score — but candidates
    at this point are cheap (already-fetched rows); the expensive
    section resolution happens downstream, bounded by ``Limit``.
    """

    name = "rank"

    def _produce(self) -> Iterator[Candidate]:
        candidates = list(self.children[0].rows())
        for position, candidate in enumerate(candidates):
            candidate.order = position
        candidates.sort(key=lambda c: -c.score)  # stable: ties keep order
        yield from candidates


class Limit(PlanNode):
    """Stop pulling after N rows; pass-through when no limit is set."""

    name = "limit"

    def __init__(
        self, ctx: PlanContext, child: PlanNode, limit: int | None
    ) -> None:
        super().__init__(
            ctx, child, detail="" if limit is None else str(limit)
        )
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
    """Restore presentation order after rank-aware limiting."""

    name = "present"

    def _produce(self) -> Iterator[Candidate]:
        yield from sorted(self.children[0].rows(), key=lambda c: c.order)


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
            accessor = self.ctx.accessor
            if accessor.is_context(self.row):
                self._heading = accessor.context_title(self.row)
            else:
                governing = accessor.governing_context(self.row)
                self._heading = (
                    accessor.context_title(governing)
                    if governing is not None
                    else self.ctx.file_name(self.row.DOC_ID)
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
                    rowid=candidate.row.rowid,
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
