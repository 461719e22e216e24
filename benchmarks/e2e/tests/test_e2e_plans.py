"""Inputs are a pure function of (workload, seed)."""

from collections import Counter

import pytest

import plans


@pytest.mark.parametrize("workload", list(plans.ROUND_SECONDS))
def test_same_seed_same_operations_different_seed_different(workload):
    first = plans.build_plan(workload, 7, documents=24).digest(rounds=2)
    again = plans.build_plan(workload, 7, documents=24).digest(rounds=2)
    other = plans.build_plan(workload, 8, documents=24).digest(rounds=2)
    assert first == again
    assert first != other


def test_query_universes():
    assert len(set(plans.cold_queries())) == 61
    assert len(set(plans.compose_queries())) == 60
    assert len(set(plans.mixed_queries())) == 1520
    assert all("Cache=0" in target for target in plans.cold_queries())
    assert all("xslt=report.xsl" in target for target in plans.compose_queries())
    # The three hottest compose queries are one of each result size.
    head = plans.compose_queries()[:3]
    assert ["limit=20" in t for t in head] == [True, False, False]
    assert ["limit=5" in t for t in head] == [False, True, False]


def test_round_shapes():
    def first_round(workload):
        return next(plans.build_plan(workload, 1, documents=24).rounds())

    ingest = first_round("ingest_durable")
    assert [op.kind for op in ingest] == ["write"] * 24

    cold = first_round("search_cold")
    assert len(cold) == 64
    # every round is the same multiset: each heading query once, the
    # heading-free query four times
    assert sorted(Counter(op.target for op in cold).values()) == [1] * 60 + [4]

    compose = first_round("search_compose")
    assert len(compose) == 250 and {op.kind for op in compose} == {"read"}

    mixed = first_round("mixed_rw")
    kinds = [op.kind for op in mixed]
    assert kinds.count("read") == 100 and kinds.count("write") == 25
    # one write before every 4th read, deterministically interleaved
    assert kinds[:6] == ["write", "read", "read", "read", "read", "write"]


def test_seconds_buy_whole_rounds_at_a_fixed_price():
    plan = plans.build_plan("search_cold", 1, documents=8)
    assert plan.round_count(12) == round(12 / 0.55) == 22
    assert plan.round_count(0.01) == 1  # never none
    assert plans.build_plan("ingest_durable", 1, documents=8).round_count(12) == 3


def test_ground_truth_counts():
    plan = plans.build_plan("search_cold", 3, documents=24)
    assert sum(plan.heading_counts().values()) == sum(len(g.headings) for g in plan.corpus)
    assert plan.plant_count() == sum(g.text.count("zephyr") for g in plan.corpus) > 0


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        plans.build_plan("nope", 1)
