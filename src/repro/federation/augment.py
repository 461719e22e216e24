"""Query augmentation: run what the source can, finish the rest client-side.

The paper's worked example (§2.1.5): for
``Context=Title&Content=Engine`` against the Lessons Learned server,
"NETMARK will pass on to the original source whatever portions of the
query it can process (... retrieving documents that contain the word
'Engine').  Further processing is then done in NETMARK where NETMARK then
extracts the 'Title' sections from only those documents that contain the
word 'Engine' in the 'Title' section, from amongst the initial results
returned by the original server."

:func:`plan` decides the split; :func:`execute_augmented` performs it:

1. strip the query down to the source's declared capabilities,
2. run the stripped query natively (candidate documents),
3. fetch each candidate's raw content, upmark it through the normal
   converter pipeline into a *scratch* NETMARK store, and
4. run the **full** original query against the scratch store.

Step 3/4 reuse the production ingestion and query paths rather than a
separate matching implementation, so augmented semantics are identical to
native NETMARK semantics by construction — and the work they do is
metered (`residual_documents`, `residual_nodes`) for the ABL-AUG bench.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CapabilityError
from repro.federation.capabilities import Capability, supports
from repro.federation.sources import InformationSource
from repro.query.ast import ContentSpec, XdbQuery
from repro.query.engine import QueryEngine
from repro.query.results import SectionMatch
from repro.resilience.deadline import Budget
from repro.store.xmlstore import XmlStore


@dataclass(frozen=True)
class AugmentationPlan:
    """The capability split for one (query, source) pair."""

    native_query: XdbQuery | None  # what the source runs (None: fetch-all)
    needs_residual: bool  # client-side pass required?

    @property
    def fully_native(self) -> bool:
        return self.native_query is not None and not self.needs_residual


@dataclass
class AugmentationReport:
    """Work accounting for one augmented execution."""

    native_candidates: int = 0
    residual_documents: int = 0
    residual_nodes: int = 0


def plan(query: XdbQuery, source: InformationSource) -> AugmentationPlan:
    """Decide what ``source`` runs natively and whether residual work remains."""
    if supports(source.capabilities, query):
        return AugmentationPlan(native_query=query, needs_residual=False)
    native = _strip_to_capabilities(query, source.capabilities)
    if native is None and not (source.capabilities & Capability.DOCUMENT_FETCH):
        raise CapabilityError(
            f"source {source.name!r} supports neither the query nor "
            "document fetch; it cannot participate"
        )
    return AugmentationPlan(native_query=native, needs_residual=True)


def _strip_to_capabilities(
    query: XdbQuery, capabilities: Capability
) -> XdbQuery | None:
    """Largest sub-query the source can answer natively (None if empty)."""
    context = query.context
    content = query.content
    if context is not None and not (capabilities & Capability.CONTEXT_SEARCH):
        context = None
    if content is not None:
        if not (capabilities & Capability.CONTENT_SEARCH):
            content = None
        elif content.mode == "phrase" and not (
            capabilities & Capability.PHRASE_SEARCH
        ):
            # Degrade the phrase to a conjunctive bag of terms; this can
            # only over-return, never miss, so the residual pass stays
            # sound and complete.
            from repro.ordbms.textindex import tokenize

            content = ContentSpec(tuple(tokenize(content.text)), "all")
    if context is None and content is None:
        return None
    return XdbQuery(context=context, content=content)


def execute_augmented(
    query: XdbQuery,
    source: InformationSource,
    report: AugmentationReport | None = None,
    budget: Budget | None = None,
) -> list[SectionMatch]:
    """Run ``query`` against ``source``, augmenting as planned.

    ``budget`` is the request's remaining deadline envelope; it rides
    into the native search, gates each residual document fetch, and
    bounds the residual query — so one slow source cannot spend another
    source's share of the request.
    """
    the_plan = plan(query, source)
    if the_plan.fully_native:
        return _native_search(source, query, budget)

    report = report if report is not None else AugmentationReport()
    if the_plan.native_query is not None:
        native_matches = _native_search(
            source, the_plan.native_query, budget
        )
        candidate_names = list(dict.fromkeys(match.file_name for match in native_matches))
    else:
        candidate_names = source.document_names()
    report.native_candidates = len(candidate_names)

    # Residual pass: re-ingest candidates into a scratch store and run the
    # full query through the normal engine.
    scratch = XmlStore()
    name_map: dict[int, str] = {}
    for file_name in candidate_names:
        if budget is not None and not budget.admits(source.name):
            break
        raw = source.fetch_document(file_name)
        result = scratch.store_text(raw, file_name)
        name_map[result.doc_id] = file_name
        report.residual_documents += 1
        report.residual_nodes += result.node_count
    engine = QueryEngine(scratch)
    refined = engine.execute(
        XdbQuery(
            context=query.context, content=query.content, limit=query.limit
        ),
        budget=budget,
    )
    attributed: list[SectionMatch] = []
    for match in refined:
        clone = match.with_source(source.name)
        clone.file_name = name_map.get(match.doc_id, match.file_name)
        clone.score = 1.0  # federated answers rank uniformly
        attributed.append(clone)
    return attributed


def _native_search(
    source: InformationSource, query: XdbQuery, budget: Budget | None
) -> list[SectionMatch]:
    """Dispatch a native search, passing the budget only when one exists.

    Sources are duck-typed at the federation boundary; an adapter written
    before deadlines existed keeps working as long as no deadline is in
    play (and under one, a budget-blind source simply runs to completion
    — the router's own boundary check still bounds the fan-out).
    """
    if budget is None:
        return source.native_search(query)
    return source.native_search(query, budget=budget)
