"""FIG8 under fire — the federated fan-out with injected faults.

The paper's integration claim (applications ↔ thin routers ↔ data
sources) is only useful if a dead or flaky source degrades the answer
instead of destroying it.  This bench drives the FIG8 workload through
the chaos rig (``tests/resilience/chaos.py``) and reports:

* a killed source: every query still answers, flagged partial, with all
  matches the healthy sources hold — and the circuit breaker sheds the
  dead source after its failure threshold;
* a flaky source (N failures, then recovery): retries absorb the
  transient window and the fan-out returns to complete answers;
* the null case: with no faults scripted, the guarded router does zero
  retries, trips no breakers, and returns byte-identical XML to an
  unguarded router.

Everything is deterministic (logical clock + seeded RNG), so the table
rows replay exactly; ``tests/resilience/test_replay.py`` asserts that.
"""

import pytest
from conftest import load_driver, print_table, write_artifact

from repro.resilience import (
    BreakerConfig,
    FaultPlan,
    LogicalClock,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.sgml.serializer import serialize

rig = load_driver("tests/resilience/chaos.py")
healthy_baseline, run_chaos = rig.healthy_baseline, rig.run_chaos


@pytest.fixture(scope="module")
def sources():
    return rig.build_sources()


def test_report_killed_source_degrades(benchmark, sources):
    def report():
        clock = LogicalClock()
        plan = FaultPlan(clock=clock)
        plan.fail("src00", times=None)  # hard down for the whole run
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2),
            breaker=BreakerConfig(failure_threshold=2, cooldown=64),
            clock=clock,
        )
        degraded = healthy_baseline(sources, exclude=("src00",))
        chaos = run_chaos(sources, plan=plan, policy=policy, rounds=3)
        print_table(
            "FIG8 chaos: src00 killed (3 rounds, breaker threshold 2)",
            ["query", "status", "matches", "expected", "lost source"],
            [
                [
                    outcome.query,
                    outcome.status,
                    outcome.matches,
                    degraded[outcome.query],
                    ",".join(outcome.failed_sources + outcome.skipped_sources),
                ]
                for outcome in chaos.outcomes
            ],
        )
        write_artifact(
            "BENCH_fig8.json",
            "killed_source",
            {
                "rounds": 3,
                "queries": len(chaos.outcomes),
                "failed": chaos.count("failed"),
                "partial": chaos.count("partial"),
                "breaker_trips": chaos.trips,
                "outcomes": [
                    {
                        "query": o.query,
                        "status": o.status,
                        "matches": o.matches,
                        "expected": degraded[o.query],
                    }
                    for o in chaos.outcomes
                ],
            },
        )
        # Never a hard failure: every query answers, flagged partial.
        assert chaos.count("failed") == 0
        assert chaos.count("partial") == len(chaos.outcomes)
        # Completeness bound: partial answers hold every healthy match.
        for outcome in chaos.outcomes:
            assert outcome.matches == degraded[outcome.query]
        # The breaker opened once and then shed the dead source.
        assert chaos.trips == 1
        assert chaos.outcomes[-1].skipped_sources == ("src00",)
    benchmark.pedantic(report, rounds=1, iterations=1)


def test_report_flaky_source_recovers(benchmark, sources):
    def report():
        clock = LogicalClock()
        plan = FaultPlan(clock=clock)
        # One bad window: the first 2 searches fail, then full recovery.
        plan.fail("src01", "native_search", times=2)
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3), clock=clock
        )
        healthy = healthy_baseline(sources)
        chaos = run_chaos(sources, plan=plan, policy=policy, rounds=2)
        print_table(
            "FIG8 chaos: src01 flaky (2 transient failures, retry budget 3)",
            ["query", "status", "matches", "retries"],
            [
                [o.query, o.status, o.matches, o.retries]
                for o in chaos.outcomes
            ],
        )
        write_artifact(
            "BENCH_fig8.json",
            "flaky_source",
            {
                "rounds": 2,
                "queries": len(chaos.outcomes),
                "failed": chaos.count("failed"),
                "partial": chaos.count("partial"),
                "retries": chaos.retries,
                "faults_injected": chaos.injected,
                "breaker_trips": chaos.trips,
            },
        )
        # Retries absorbed the window: every answer stayed complete.
        assert chaos.count("partial") == chaos.count("failed") == 0
        assert chaos.retries == 2 and chaos.injected == 2
        assert chaos.trips == 0
        for outcome in chaos.outcomes:
            assert outcome.matches == healthy[outcome.query]
    benchmark.pedantic(report, rounds=1, iterations=1)


def test_report_no_faults_no_overhead(benchmark, sources):
    def report():
        guarded = run_chaos(
            sources, plan=None, policy=ResiliencePolicy(), rounds=1
        )
        plain = run_chaos(sources, plan=None, policy=None, rounds=1)
        rows = []
        for g, p in zip(guarded.outcomes, plain.outcomes):
            rows.append([g.query, g.status, g.matches, p.matches])
        print_table(
            "FIG8 chaos: null plan (guarded vs unguarded router)",
            ["query", "status", "matches", "unguarded matches"],
            rows,
        )
        write_artifact(
            "BENCH_fig8.json",
            "null_plan",
            {
                "queries": len(guarded.outcomes),
                "retries": guarded.retries,
                "breaker_trips": guarded.trips,
                "faults_injected": guarded.injected,
                "guarded_equals_unguarded": all(
                    g.status == "complete" and g.matches == p.matches
                    for g, p in zip(guarded.outcomes, plain.outcomes)
                ),
            },
        )
        assert guarded.retries == guarded.trips == guarded.injected == 0
        for g, p in zip(guarded.outcomes, plain.outcomes):
            assert g.status == "complete" and g.matches == p.matches
        # Byte-identical answers, proven on the serialized XML.
        for query in rig.QUERIES:
            assert _answer(sources, query, ResiliencePolicy()) == _answer(
                sources, query, None
            )
    benchmark.pedantic(report, rounds=1, iterations=1)


def _answer(sources, query, policy):
    results = rig.federate(sources, policy).execute(f"{query}&databank=app")
    return serialize(results.to_xml(), indent=2)


def test_bench_guarded_fanout(benchmark, sources):
    """Latency cost of the resilience layer on the happy path."""
    router = rig.federate(sources, ResiliencePolicy())
    benchmark(router.execute, "Content=chaos&databank=app")


def test_bench_degraded_fanout(benchmark, sources):
    """Fan-out latency once the breaker has shed a dead source."""
    clock = LogicalClock()
    plan = FaultPlan(clock=clock)
    plan.fail("src00", times=None)
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=1),
        breaker=BreakerConfig(failure_threshold=1, cooldown=1_000_000),
        clock=clock,
    )
    router = rig.federate(sources, policy, plan)
    router.execute("Content=chaos&databank=app")  # trips the breaker
    assert policy.breakers.open_names() == ["src00"]
    benchmark(router.execute, "Content=chaos&databank=app")
