"""Determinism contract: one seed, one history — across the whole stack."""

from repro.resilience import (
    BreakerConfig,
    FaultPlan,
    LogicalClock,
    ResiliencePolicy,
    RetryPolicy,
)
from tests.resilience.chaos import (
    ChaosReport,
    build_sources,
    healthy_baseline,
    run_chaos,
)


def chaos_run(seed: int) -> ChaosReport:
    clock = LogicalClock()
    plan = FaultPlan(seed=seed, clock=clock)
    plan.fail("src00", "native_search", times=None)
    plan.sometimes("src01", "native_search", probability=0.3)
    plan.slow("src02", "native_search", latency=2, times=3)
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=2, base_delay=2, max_delay=8),
        breaker=BreakerConfig(failure_threshold=2, cooldown=8),
        clock=clock,
        seed=seed,
    )
    sources = build_sources()
    return run_chaos(sources, plan=plan, policy=policy, rounds=3)


class TestReplay:
    def test_same_seed_identical_signature(self):
        # The acceptance contract: retry counts, breaker transitions,
        # injected faults, and per-query outcomes all replay bit-for-bit.
        assert chaos_run(seed=5).signature() == chaos_run(seed=5).signature()

    def test_different_seeds_diverge(self):
        # Not a hard guarantee for every pair, but these two seeds differ
        # on the probabilistic rule — a frozen-RNG bug would equate them.
        assert chaos_run(seed=5).signature() != chaos_run(seed=6).signature()

    def test_no_faults_means_no_resilience_activity(self):
        sources = build_sources()
        policy = ResiliencePolicy()
        report = run_chaos(sources, policy=policy, rounds=2)
        assert report.count("partial") == report.count("failed") == 0
        assert report.retries == report.trips == report.injected == 0
        assert report.transitions == ()
        baseline = healthy_baseline(sources)
        for outcome in report.outcomes:
            assert outcome.matches == baseline[outcome.query]

    def test_partial_answers_meet_completeness_bound(self):
        clock = LogicalClock()
        plan = FaultPlan(clock=clock)
        plan.fail("src00", times=None)
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2),
            breaker=BreakerConfig(failure_threshold=2, cooldown=1000),
            clock=clock,
        )
        sources = build_sources()
        degraded = healthy_baseline(sources, exclude=("src00",))
        report = run_chaos(sources, plan=plan, policy=policy, rounds=2)
        assert report.count("complete") == 0
        for outcome in report.outcomes:
            assert outcome.status == "partial"
            assert outcome.matches == degraded[outcome.query]
            assert set(outcome.failed_sources) | set(
                outcome.skipped_sources
            ) == {"src00"}
