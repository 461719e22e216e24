"""The thin router.

"Middleware requirements are reduced to needing just a thin router
capability across the various information sources." (§2.1.5)

The router is deliberately dumb: given a query naming a databank, it fans
the query out to every declared source, augmenting per source capability,
and concatenates the answers in stable (source, document, context) order.
There is no global schema, no view unfolding, no reconciliation — the
paper's whole point.

It is, however, *fault-tolerant*: a failing source is isolated, retried
under the optional :class:`~repro.resilience.policy.ResiliencePolicy`,
skipped outright while its circuit breaker is open, and reported in the
:class:`RoutingReport` — the answer degrades to a partial
:class:`ResultSet` instead of dying on the first exception.  Only a
total loss (every source failed or skipped) raises
:class:`~repro.errors.AllSourcesFailedError`.  ``last_report`` is set
before any raise, so post-mortems always see what happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.errors import (
    AllSourcesFailedError,
    FederationError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
)
from repro.federation.augment import AugmentationReport, execute_augmented, plan
from repro.federation.databank import Databank, DatabankRegistry
from repro.federation.sources import InformationSource
from repro.query.ast import XdbQuery
from repro.query.language import format_query, parse_query
from repro.query.results import ResultSet, SectionMatch
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN
from repro.resilience.deadline import Budget, Deadline
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.retry import RetryStats, call_with_retry
from repro.sgml.dom import Document, Element


@dataclass
class RoutingReport:
    """What one fan-out did, per source — including what went wrong."""

    databank: str = ""
    source_matches: dict[str, int] = field(default_factory=dict)
    augmented_sources: list[str] = field(default_factory=list)
    augmentation: dict[str, AugmentationReport] = field(default_factory=dict)
    #: source name -> error summary, for sources that failed (after retries).
    failed_sources: dict[str, str] = field(default_factory=dict)
    #: sources not contacted because their circuit breaker was open.
    skipped_sources: list[str] = field(default_factory=list)
    #: sources not contacted because the limit was already satisfied.
    limit_skipped_sources: list[str] = field(default_factory=list)
    #: sources not contacted because the request's deadline had already
    #: expired when the fan-out reached them.
    deadline_skipped_sources: list[str] = field(default_factory=list)
    #: source name -> retry count, for sources that needed retries.
    retries: dict[str, int] = field(default_factory=dict)

    @property
    def fan_out(self) -> int:
        """Sources this query was routed at (answered, failed, or skipped)."""
        return (
            len(self.source_matches)
            + len(self.failed_sources)
            + len(self.skipped_sources)
        )

    @property
    def degraded(self) -> bool:
        """Did any source fail to contribute?"""
        return bool(
            self.failed_sources
            or self.skipped_sources
            or self.deadline_skipped_sources
        )

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    def error_summary(self) -> dict[str, str]:
        """Per-source trouble, failed and skipped alike (for results)."""
        summary = dict(self.failed_sources)
        for name in self.skipped_sources:
            summary[name] = "skipped: circuit open"
        for name in self.deadline_skipped_sources:
            summary[name] = "skipped: deadline expired"
        return summary


#: Breaker states as gauge values: closed=0, half-open=1, open=2 — the
#: conventional "bigger is worse" encoding, so dashboards can alert on
#: ``repro_federation_breaker_state > 0``.
_BREAKER_STATE_VALUES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


def _note_breaker(name: str, breaker) -> None:
    obs.set_gauge(
        "repro_federation_breaker_state",
        _BREAKER_STATE_VALUES.get(breaker.state, 2),
        source=name,
    )


class Router:
    """Fans XDB queries out across a databank's sources."""

    def __init__(
        self,
        registry: DatabankRegistry | None = None,
        aliases: "ContextAliasRegistry | None" = None,
        resilience: ResiliencePolicy | None = None,
    ) -> None:
        from repro.federation.aliases import ContextAliasRegistry

        # Explicit None tests: an empty registry is falsy (len == 0) but
        # must still be honoured — the caller will fill it later.
        self.registry = registry if registry is not None else DatabankRegistry()
        self.aliases = aliases if aliases is not None else ContextAliasRegistry()
        self.resilience = resilience
        self.last_report: RoutingReport | None = None

    # -- administration (delegates kept for a one-stop facade) -----------------

    def create_databank(self, name: str, description: str = "") -> Databank:
        return self.registry.create(name, description)

    # -- query execution ----------------------------------------------------------

    def execute(
        self,
        query: XdbQuery | str,
        databank: str | None = None,
        budget: "Budget | Deadline | None" = None,
    ) -> ResultSet:
        """Run ``query`` against ``databank`` (or the query's own databank).

        With ``budget`` each source receives the *remaining* request
        deadline (the budget carries an absolute expiry on the shared
        clock, so whatever one source spends is gone for the next).
        When the deadline expires mid-fan-out, the uncontacted sources
        are folded into the ``<partial>`` envelope as
        ``skipped: deadline expired`` — unless the budget forbids
        partial answers, in which case the fan-out raises
        :class:`~repro.errors.QueryTimeoutError`.
        """
        if isinstance(query, str):
            query = parse_query(query)
        query = self.aliases.rewrite(query)
        budget = Budget.of(budget, query.partial_ok)
        target = databank or query.databank
        if target is None:
            self.last_report = RoutingReport()
            raise FederationError("query names no databank and none was given")
        report = RoutingReport(databank=target)
        self.last_report = report
        bank = self.registry.get(target)
        matches: list[SectionMatch] = []
        for position, source in enumerate(bank.sources):
            remaining = bank.sources[position:]
            if budget is not None and not budget.admits("router fan-out"):
                report.deadline_skipped_sources = [
                    skipped.name for skipped in remaining
                ]
                obs.inc(
                    "repro_federation_deadline_skips_total", len(remaining)
                )
                break
            if self._limit_satisfied(query.limit, matches, remaining):
                report.limit_skipped_sources = [
                    skipped.name for skipped in remaining
                ]
                break
            matches.extend(
                self._route_to_source(query, source, report, budget)
            )
        if (
            bank.sources
            and not report.source_matches
            and not report.deadline_skipped_sources
        ):
            # A deadline that expired before any source answered is a
            # timeout (handled above), not a source outage: with
            # Partial=1 the honest answer is an empty partial result.
            raise AllSourcesFailedError(
                f"databank {target!r}: no source answered "
                f"(failed: {sorted(report.failed_sources)}, "
                f"skipped: {report.skipped_sources})"
            )
        matches.sort(key=lambda match: (match.source, match.file_name, match.context))
        result = ResultSet(
            format_query(query),
            partial=report.degraded,
            source_errors=report.error_summary(),
            deadline_expired=bool(
                report.deadline_skipped_sources
                or (budget is not None and budget.timed_out)
            ),
        )
        result.extend(matches)
        return result.limited(query.limit)

    def explain(
        self, query: XdbQuery | str, databank: str | None = None
    ) -> Document:
        """Run the fan-out and render the federated plan with row counts.

        The tree has one ``<source>`` element per databank source, in
        routing order, with the observed match count (``rows``), its
        status (answered / failed / skipped / not-contacted when limit
        pushdown stopped the fan-out early) and whether augmentation was
        needed — plus a final ``<limit>`` operator with the row count
        actually returned.
        """
        if isinstance(query, str):
            query = parse_query(query)
        result = self.execute(query, databank)
        report = self.last_report
        if report is None:  # execute always sets it; belt and braces
            raise FederationError("routing produced no report to explain")
        plan_element = Element(
            "plan",
            {
                "query": format_query(query),
                "kind": "federated",
                "databank": report.databank,
            },
        )
        for name in sorted(report.source_matches):
            attributes = {
                "name": name,
                "rows": str(report.source_matches[name]),
                "status": "answered",
            }
            if name in report.augmented_sources:
                attributes["augmented"] = "true"
            plan_element.append(Element("source", attributes))
        for name in sorted(report.failed_sources):
            failed = Element("source", {"name": name, "status": "failed"})
            failed.append_text(report.failed_sources[name])
            plan_element.append(failed)
        for status, names in (
            ("skipped", report.skipped_sources),
            ("deadline-skipped", report.deadline_skipped_sources),
            ("not-contacted", report.limit_skipped_sources),
        ):
            for name in names:
                plan_element.append(Element("source", {"name": name, "status": status}))
        limit_element = Element(
            "operator", {"name": "limit", "rows": str(len(result))}
        )
        if query.limit is not None:
            limit_element.attributes["detail"] = str(query.limit)
        plan_element.append(limit_element)
        return Document(plan_element, name="plan.xml")

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _limit_satisfied(
        limit: int | None,
        matches: list[SectionMatch],
        remaining: list[InformationSource],
    ) -> bool:
        """Can the remaining sources be skipped without changing the answer?

        Sound only when every collected match ranks uniformly (score
        1.0, which the source adapters normalize to): the final order is
        then the stable (source, document, context) sort, so once
        ``limit`` matches come from sources whose names sort *before*
        every remaining source's name, nothing a remaining source could
        return displaces them.
        """
        if limit is None or not remaining:
            return False
        floor = min(source.name for source in remaining)
        guaranteed = 0
        for match in matches:
            if match.score != 1.0:
                return False  # ranked scores: cannot reason positionally
            if match.source < floor:
                guaranteed += 1
        return guaranteed >= limit

    def _route_to_source(
        self,
        query: XdbQuery,
        source: InformationSource,
        report: RoutingReport,
        budget: Budget | None = None,
    ) -> list[SectionMatch]:
        """One source's contribution; failures land in ``report``, not up."""
        policy = self.resilience
        breaker = (
            policy.breakers.breaker(source.name) if policy is not None else None
        )
        if breaker is not None and not breaker.allow():
            report.skipped_sources.append(source.name)
            obs.inc(
                "repro_federation_source_requests_total",
                source=source.name, status="skipped",
            )
            _note_breaker(source.name, breaker)
            return []

        def attempt() -> tuple[bool, AugmentationReport, list[SectionMatch]]:
            # Fresh augmentation accounting per attempt: a retried source
            # must not double-count the work of its failed tries.
            augmentation = AugmentationReport()
            source_plan = plan(query, source)
            found = execute_augmented(query, source, augmentation, budget)
            return source_plan.fully_native, augmentation, found

        stats = RetryStats()
        started = policy.clock.now() if policy is not None else None
        try:
            if policy is not None:
                native, augmentation, found = call_with_retry(
                    attempt, policy.retry, policy.clock, policy.rng, stats
                )
            else:
                native, augmentation, found = attempt()
        except (QueryTimeoutError, QueryCancelledError):
            # The *request* ran out of time (or its client left) — that
            # is not a source failure to degrade around; it propagates
            # so the HTTP layer can answer 504 (or 499).
            raise
        except ReproError as error:
            failure: ReproError | None = error
        else:
            failure = None
        if stats.retries:
            report.retries[source.name] = stats.retries
            obs.inc(
                "repro_federation_retries_total", stats.retries,
                source=source.name,
            )
        if breaker is not None:
            if failure is None:
                breaker.record_success()
            else:
                breaker.record_failure()
            _note_breaker(source.name, breaker)
        self._note_latency(source.name, started)
        obs.inc(
            "repro_federation_source_requests_total",
            source=source.name, status="answered" if failure is None else "failed",
        )
        if failure is not None:
            report.failed_sources[source.name] = f"{type(failure).__name__}: {failure}"
            return []
        report.source_matches[source.name] = len(found)
        if not native:
            report.augmented_sources.append(source.name)
            report.augmentation[source.name] = augmentation
        return found

    def _note_latency(self, name: str, started: int | None) -> None:
        """Record per-source latency in resilience-clock ticks.

        Only meaningful under a policy: the logical clock advances across
        retry backoffs (and injected faults), so the distribution shows
        which sources burn time before answering or giving up.
        """
        if started is not None and self.resilience is not None:
            obs.observe(
                "repro_federation_source_latency_ticks",
                self.resilience.clock.now() - started,
                source=name,
            )


class ReadBalancer:
    """Round-robin read fan-out over *replicas of one logical store*.

    Unlike the :class:`Router`, which merges answers from sources that
    hold *different* data, the balancer picks **one** source per query —
    every candidate is an in-sync replica holding identical state, so
    the first that answers is the whole answer.  A rotating cursor
    spreads queries across replicas; a failing replica is skipped and
    the next one tried (failover), and only a total loss raises
    :class:`~repro.errors.AllSourcesFailedError`.
    """

    def __init__(self) -> None:
        self._cursor = 0
        #: replica name that served the most recent query (post-mortems).
        self.last_served_by: str | None = None

    def execute(
        self,
        query: "XdbQuery | str",
        sources: list[InformationSource],
    ) -> tuple[list[SectionMatch], str]:
        """Answer ``query`` from one replica; returns (matches, name)."""
        if isinstance(query, str):
            query = parse_query(query)
        if not sources:
            raise AllSourcesFailedError(
                "no source answered: no in-sync replica is available"
            )
        start = self._cursor % len(sources)
        self._cursor += 1
        order = sources[start:] + sources[:start]
        failures: dict[str, str] = {}
        for source in order:
            try:
                found = source.native_search(query)
            except ReproError as error:
                failures[source.name] = f"{type(error).__name__}: {error}"
                obs.inc(
                    "repro_federation_replica_reads_total",
                    source=source.name, status="failed",
                )
                continue
            obs.inc(
                "repro_federation_replica_reads_total",
                source=source.name, status="answered",
            )
            self.last_served_by = source.name
            return found, source.name
        raise AllSourcesFailedError(
            f"no source answered: all {len(order)} replicas failed "
            f"({failures})"
        )
