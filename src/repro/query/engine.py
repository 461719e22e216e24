"""XDB Query evaluation (paper §2.1.3-2.1.4).

The engine implements the paper's strategy literally, compiled into an
explicit operator tree (:mod:`repro.query.plan`) and pulled lazily:

1. **Index probe.**  The search key goes to the text index over
   ``XML.NODEDATA`` — every hit is a TEXT node row (``TextSource``; the
   ABL-IDX ablation scans instead).
2. **Upward traversal.**  Each hit resolves "based on its designated
   unique ROWID ... traversing up the tree structure via its parent or
   sibling node until the first context is found" — a walk whose answer
   is a fact about the ROWID, so the loader takes it once, as it writes
   the row, and the index carries it beside the posting
   (:class:`~repro.store.accessor.SectionPass`; the scan path runs the
   same pass over each hit's document).  A *context* search takes the
   hit's CONTEXT ancestor (``ContextLift``), a *content* search its
   governing context — nearest enclosing or preceding CONTEXT
   (``GoverningLift``).
3. **Downward walk.**  The matched context's section — its following
   siblings up to the next context — is read in one forward pass over
   the rows stored after it (``SectionWalk``) and reconstructed lazily
   at materialization.

A combined ``Context=X&Content=Y`` query intersects: sections whose
heading matches X *and* whose text contains Y.  On the indexed path a
section-level semijoin (``Intersect``; a multi-term ``all`` content
query gets one too) keeps only the sections holding Y's tokens, before
any row is read; with one-token terms it decides the walk's test.

``limit`` pushes all the way down: ``Rank`` orders candidates by score
(stable within ties), ``Limit`` stops the pull, and the expensive
operators sit below it — a limit-5 query walks a handful of sections no
matter how large the corpus.  ``explain`` runs the same plan and returns
the operator tree with observed row counts instead of results.

All row access goes through one per-query
:class:`~repro.store.accessor.NodeAccessor` (batched, a view at one
commit LSN), shared with the lazy
:class:`~repro.query.results.SectionMatch` loaders the plan emits; a
section match that ``SectionWalk`` read is rendered from that read.
"""

from __future__ import annotations

from repro import obs
from repro.errors import QueryError
from repro.query.ast import XdbQuery
from repro.query.cache import QueryCache
from repro.query.language import format_query, parse_query
from repro.query.plan import (
    ContentFilter,
    ContextLift,
    DocFilter,
    FormatFilter,
    GoverningLift,
    Intersect,
    Limit,
    Materialize,
    NodenameProbe,
    PlanContext,
    PlanNode,
    Present,
    Rank,
    SectionWalk,
    Spares,
    TextSource,
    phrase_in,
)
from repro.ordbms import Snapshot
from repro.ordbms.textindex import tokenize
from repro.query.results import ResultSet
from repro.resilience.deadline import Budget, Deadline
from repro.sgml.dom import Document, Element
from repro.store.xmlstore import XmlStore

__all__ = ["QueryEngine", "phrase_in"]


class QueryEngine:
    """Evaluates XDB queries against one :class:`XmlStore`.

    With ``cache`` (a :class:`~repro.query.cache.QueryCache`) the engine
    serves repeated queries from the result cache, byte-identical by
    construction; ``Cache=0`` on a query opts that request out.  Without
    ``cache`` (the default) every query runs its plan — benchmarks and
    ablations construct bare engines on purpose.  Bare or cached, plans
    read catalog entries through the store's map
    (:meth:`XmlStore.cached_entry`).
    """

    def __init__(
        self,
        store: XmlStore,
        use_index: bool = True,
        cache: QueryCache | None = None,
    ) -> None:
        self.store = store
        self.use_index = use_index
        self.cache = cache

    # -- public entry points ------------------------------------------------

    def execute(
        self, query: XdbQuery | str, snapshot: Snapshot | None = None,
        budget: Budget | Deadline | None = None,
    ) -> ResultSet:
        """Run a parsed query or a raw XDB query string.

        The whole plan — probes, lifts, walks, and the lazy match
        loaders the result carries — executes at one commit LSN, never
        blocked by concurrent ingest: ``snapshot``'s (see
        :meth:`XmlStore.snapshot`), immune to later commits while the
        pin is held, else the LSN a snapshot opened now would pin,
        unheld — resolve the lazy fields before the next commit.

        With ``budget`` (a :class:`~repro.resilience.deadline.Budget`,
        or a bare :class:`~repro.resilience.deadline.Deadline` as
        shorthand) every plan operator checks for expiry/cancellation at
        its pull boundary: the run raises
        :class:`~repro.errors.QueryTimeoutError` on expiry, or — when
        the budget (or the query's ``Partial=1``) allows partial answers
        — returns whatever was collected, with ``deadline_expired`` set.
        The engine has no clock of its own: the query's ``Deadline=``
        parameter is turned into a budget by the HTTP layer, which does.
        """
        if isinstance(query, str):
            query = parse_query(query)
        budget = Budget.of(budget, query.partial_ok)
        key = None
        # Deadline-bounded (or already-cancelled) runs bypass the cache
        # both ways: their contract is "bound the work of THIS run", so
        # a replayed complete answer would defeat truncation/cancellation
        # semantics, and their own answers may be partial.  A plain
        # worker-pool budget (no deadline, token not tripped) cannot
        # truncate, so it stays cacheable — the pool is the hot path.
        bounded = budget is not None and (budget.deadline is not None or budget.cancelled)
        if (
            self.cache is not None and query.cache and not query.explain
            and query.deadline_ticks is None and not bounded
        ):
            # An entry is judged against the LSN this read resolves at; a
            # miss stores under the LSN its plan did read at.
            key = QueryCache.key_for(query, self.use_index)
            lsn = self.store.database.mvcc.read_lsn(snapshot)
            hit = self.cache.lookup(
                key, lsn, self.store.xml_table,
                lambda listed, spares: self._refill(query, snapshot, lsn, listed, spares),
            )
            if hit is not None:
                obs.inc("repro_query_queries_total", kind=query.kind)
                obs.inc("repro_query_rows_returned_total", len(hit))
                return ResultSet(format_query(query), list(hit), cached=True)
        ctx, root = self.compile(query, snapshot=snapshot, budget=budget)
        if budget is None or budget.admits("execute"):
            matches = list(root.rows())
        else:
            matches = []  # expired before the first pull, Partial=1
        obs.inc("repro_query_rows_returned_total", len(matches))
        self._publish_plan_stats(ctx)
        result = ResultSet(format_query(query), matches)
        if budget is not None and budget.timed_out:
            result.partial = True
            result.deadline_expired = True
            obs.inc("repro_query_deadline_partials_total")
        result = result.limited(query.limit)
        if key is not None and not result.partial:
            # Only complete answers are cacheable, with nothing left to
            # load or build (``SectionMatch.resolve`` says why).
            self.cache.store(
                key, query, [match.resolve() for match in result.matches],
                ctx.accessor.lsn, (candidate.rowid for candidate in ctx.ranked),
            )
        return result

    def _refill(self, query, snapshot, lsn, listed, spares):
        """``listed``, then the ``spares`` that pass the content test, in
        order and resolved, up to the limit; None unless that fills it."""
        accessor = self.store.new_accessor(snapshot)
        ctx = PlanContext(self.store, accessor, self.use_index)
        node = Spares(ctx, spares if accessor.lsn == lsn else ())
        if query.content is not None:
            node = SectionWalk(ctx, node, query.content)
        node = Materialize(ctx, Limit(ctx, node, query.limit - len(listed)))
        answer = listed + tuple(match.resolve() for match in node.rows())
        accessor.publish()
        return answer if len(answer) == query.limit else None

    def explain(
        self, query: XdbQuery | str, snapshot: Snapshot | None = None
    ) -> Document:
        """Execute the query's plan and render it with observed row counts.

        The plan runs to completion (so the counts reflect real work,
        limit pushdown included) but no match is materialized beyond its
        lazy shell.  The result::

            <plan query="Context=Budget&amp;limit=5" kind="context">
              <operator name="materialize" rows="5">
                <operator name="present" rows="5">
                  ...

        With ``query.profile`` set (``Explain=profile``) the plan element
        additionally carries ``profile="work-units"`` and
        ``total-ticks``, and every operator its inclusive ``ticks``
        (:meth:`PlanNode.ticks`): rows surfaced in its subtree, a
        deterministic, machine-independent analogue of inclusive time.
        """
        if isinstance(query, str):
            query = parse_query(query)
        ctx, root = self.compile(query, snapshot=snapshot)
        for _ in root.rows():
            pass
        self._publish_plan_stats(ctx)
        attributes = {"query": format_query(query), "kind": query.kind}
        if query.profile:
            attributes["profile"] = "work-units"
            attributes["total-ticks"] = str(root.ticks())
            # Explain runs always bypass the result cache (a plan tree is
            # diagnostics), so it is reported as a mode, not a count.
            attributes["result-cache"] = "bypassed" if self.cache is not None else "off"
        plan_element = Element("plan", attributes)
        plan_element.append(root.explain_element(query.profile))
        return Document(plan_element, name="plan.xml")

    @staticmethod
    def _publish_plan_stats(ctx: PlanContext) -> None:
        """Fold the query's accessor traffic into the metric registry.

        The accessor's own counters are plain ints on the hot path (row
        reads run thousands of times per query); one aggregate publish per
        executed plan keeps the metrics layer off that path.  These
        series describe plan execution, not the *lazy* loads after the
        drain — except rows read, which :meth:`~repro.store.accessor.NodeAccessor.publish`
        counts here and again wherever a later read ends.
        """
        ctx.accessor.publish()
        stats = ctx.accessor.stats
        for count, series in (
            (stats.rows_fetched, "repro_store_accessor_rows_fetched_total"),
            (stats.batch_fetches, "repro_store_accessor_batch_fetches_total"),
            (stats.cache_hits, "repro_store_accessor_cache_hits_total"),
        ):
            if count:
                obs.inc(series, count)

    # -- plan construction ------------------------------------------------------

    def compile(
        self, query: XdbQuery, snapshot: Snapshot | None = None,
        budget: Budget | None = None,
    ) -> tuple[PlanContext, PlanNode]:
        """Build the operator tree for ``query`` (root is a Materialize).

        The shape by query kind (leaf → root), shared tail elided::

            context:   probe* > context-lift   > ...
            content:   probe* > governing-lift > [intersect] > ...
            combined:  probe* > context-lift   > intersect > ...
            nodename:  nodename-probe          > ...

        Tail: doc/format filters, ``rank``, the expensive per-candidate
        test (``section-walk`` — decided by the index for one-token
        terms — or ``content-filter``) when the kind has one, ``limit``,
        ``present``, ``materialize``.  The expensive test sits *under*
        the limit on purpose: that is the pushdown.
        """
        obs.inc("repro_query_queries_total", kind=query.kind)
        ctx = PlanContext(self.store, self.store.new_accessor(snapshot), self.use_index, budget)
        kind = query.kind
        content = self._spec(query.content) if kind in {"content", "combined"} else None
        if kind in {"context", "combined"}:
            phrases = self._spec(query.context).phrases
            node = ContextLift(ctx, *[TextSource(ctx, p, True, headings=True) for p in phrases])
        elif content is not None:
            # Every term's postings ("any" and "all" alike) or the phrase's.
            phrase = content.mode == "phrase"
            node = GoverningLift(ctx, *[TextSource(ctx, t, phrase) for t in content.held])
        else:  # nodename
            node = NodenameProbe(ctx, self._spec(query.nodename))
        # A lift keeps a section for one term's posting: the other terms
        # of a combined or a multi-term "all" query take the semijoin.
        if content is not None and self.use_index and (
            kind == "combined" or content.mode == "all" and len(content.terms) > 1
        ):
            node = Intersect(ctx, node, content)
        if query.doc:
            node = DocFilter(ctx, node, query.doc)
        if query.format:
            node = FormatFilter(ctx, node, query.format)
        node = Rank(ctx, node)
        # The expensive per-candidate test goes under the limit so only
        # candidates the limit admits ever pay for it.
        if content is not None:
            # One-token terms are decided on the index path: by an exact
            # semijoin, or by the posting a section was lifted from.
            one_token = all(len(tokenize(t, keep_stopwords=True)) == 1 for t in content.held)
            node = SectionWalk(ctx, node, content, decided=self.use_index and one_token)
        elif query.content is not None:
            node = ContentFilter(ctx, node, query.content)
        node = Limit(ctx, node, query.limit)
        node = Present(ctx, node)
        return ctx, Materialize(ctx, node)

    @staticmethod
    def _spec(value):
        """Narrow an optional query field the kind dispatch guarantees."""
        if value is None:
            raise QueryError("query kind dispatch produced an incomplete specification")
        return value
