"""The chaos rig: the FIG8 federated workload, under faults.

It builds a federation over the standard workload corpus, wraps the
sources in a :class:`~repro.resilience.FaultPlan`, drives XDB queries
through a :class:`~repro.federation.Router` under a
:class:`~repro.resilience.ResiliencePolicy`, and condenses what happened
into a :class:`ChaosReport` whose :meth:`~ChaosReport.signature` replays
bit-for-bit for one seed.  ``benchmarks/bench_fig8_faulty_federation.py``
loads this file by path and publishes its numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import FederationError
from repro.federation import NetmarkSource, Router
from repro.resilience import FaultPlan, ResiliencePolicy
from repro.store import XmlStore
from repro.workloads.corpus import CorpusSpec, generate_corpus

#: A pure context search, a planted-term content search, and a combined
#: query.
QUERIES = (
    "Context=Budget",
    "Content=chaos",
    "Context=Schedule&Content=chaos",
)


def build_sources():
    """Three deterministic NETMARK sources of six standard-corpus documents."""
    sources = []
    for index in range(3):
        store = XmlStore()
        spec = CorpusSpec(
            documents=6, seed=1400 + index, formats=("md",),
            planted_term="chaos", plant_every=3,
        )
        for file in generate_corpus(spec):
            store.store_text(file.text, f"s{index}-{file.name}")
        sources.append(NetmarkSource(f"src{index:02d}", store))
    return sources


@dataclass(frozen=True)
class ChaosOutcome:
    """One query's fate under the plan."""

    query: str
    status: str  # "complete" | "partial" | "failed"
    matches: int
    failed_sources: tuple[str, ...]
    skipped_sources: tuple[str, ...]
    retries: int


@dataclass(frozen=True)
class ChaosReport:
    """Everything one chaos run did, in replayable form."""

    outcomes: tuple[ChaosOutcome, ...]
    injected: int
    trips: int
    transitions: tuple[tuple[str, int, str, str], ...]

    def count(self, status: str) -> int:
        """Outcomes that were ``complete``, ``partial`` or ``failed``."""
        return sum(outcome.status == status for outcome in self.outcomes)

    @property
    def retries(self) -> int:
        return sum(outcome.retries for outcome in self.outcomes)

    def signature(self) -> tuple:
        """Deterministic fingerprint: equal across replays of one seed."""
        return (self.outcomes, self.injected, self.trips, self.transitions)


def federate(sources: Sequence[NetmarkSource], policy=None, plan=None) -> Router:
    """A router over ``sources``, each wrapped by ``plan`` if one is
    given, on one ``app`` databank."""
    router = Router(resilience=policy)
    bank = router.create_databank("app")
    for source in sources:
        bank.add_source(source if plan is None else plan.wrap_source(source))
    return router


def run_chaos(
    sources: Sequence[NetmarkSource],
    *,
    plan: FaultPlan | None = None,
    policy: ResiliencePolicy | None = None,
    rounds: int = 1,
) -> ChaosReport:
    """Fan :data:`QUERIES` out ``rounds`` times under ``plan`` and ``policy``."""
    router = federate(sources, policy, plan)
    outcomes = []
    for _ in range(rounds):
        for query in QUERIES:
            try:
                results = router.execute(f"{query}&databank=app")
                status = "partial" if results.partial else "complete"
                matches = len(results)
            except FederationError:
                status, matches = "failed", 0
            report = router.last_report
            outcomes.append(ChaosOutcome(
                query, status, matches, tuple(sorted(report.failed_sources)),
                tuple(report.skipped_sources), report.total_retries,
            ))
    return ChaosReport(
        outcomes=tuple(outcomes),
        injected=0 if plan is None else plan.injected(),
        trips=0 if policy is None else policy.breakers.trips,
        transitions=() if policy is None else tuple(
            (name, change.tick, change.old_state, change.new_state)
            for name, change in policy.breakers.transitions()
        ),
    )


def healthy_baseline(
    sources: Sequence[NetmarkSource], exclude: Sequence[str] = ()
) -> dict[str, int]:
    """Match counts per query from the sources not in ``exclude``: what a
    fan-out that lost exactly those sources must still return."""
    router = federate([source for source in sources if source.name not in exclude])
    return {query: len(router.execute(f"{query}&databank=app")) for query in QUERIES}
