"""OBS — what the observability layer costs on the Fig 6 workload.

The instrumentation contract (DESIGN.md §10) is "counters per call, not
per row; spans only at stage boundaries" — cheap enough to leave on in
production.  This bench holds the layer to that promise on the Fig 6
context-search workload with exact counts of one warm round: the metric
series it touches and the counter increments (``obs.inc`` calls) it
makes.  A change that bumps a counter per row, or mints a series per
value, moves them; ``check_regression.py`` holds both to the banked
baseline exactly.

Two timings are reported beside them, never gated (a shared machine
swings them by more than the budget): **metrics on** against the fully
disabled layer, and the **no-op tracer** (``NULL_TRACER``, what every
component uses until a composition root swaps in a real one).  Each is
best-of-``REPEATS`` over ``QUERIES_PER_ROUND`` queries.
"""

import time

import pytest
from conftest import print_table, write_artifact

from repro import obs
from repro.obs import NULL_TRACER
from repro.query.engine import QueryEngine
from repro.store import XmlStore
from repro.workloads import CorpusSpec, generate_corpus

DOCUMENTS = 400
HEADING = "Budget"
REPEATS = 15
QUERIES_PER_ROUND = 10

#: The mixed Fig 6 query diet: pure context, pure content, combined.
QUERIES = (
    f"Context={HEADING}",
    "Content=shuttle",
    f"Context={HEADING}&Content=resource",
)


@pytest.fixture(scope="module")
def store():
    files = generate_corpus(CorpusSpec(documents=DOCUMENTS, seed=200))
    loaded = XmlStore()
    for file in files:
        loaded.store_text(file.text, file.name)
    return loaded


def _best_round_seconds(run_round) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run_round()
        best = min(best, time.perf_counter() - start)
    return best


def _overhead_pct(base: float, measured: float) -> float:
    return round((measured - base) / base * 100.0, 2)


def _one_round_counts(run_round) -> tuple[int, int]:
    """``(series, increments)``: the metric series one round touches in
    a fresh registry and the ``obs.inc`` calls it makes."""
    calls = [0]
    inc = obs.inc

    def counting(*args, **labels):
        calls[0] += 1
        inc(*args, **labels)

    obs.push_registry()
    obs.inc = counting
    try:
        run_round()
    finally:
        obs.inc = inc
    return len(obs.snapshot()), calls[0]


def test_report_obs_overhead(benchmark, store):
    def report():
        engine = QueryEngine(store)

        def plain_round():
            for _ in range(QUERIES_PER_ROUND):
                for query in QUERIES:
                    engine.execute(query)

        def traced_round():
            # The disabled-layer round plus the no-op span every traced
            # request pays when tracing is off.
            for _ in range(QUERIES_PER_ROUND):
                for query in QUERIES:
                    with NULL_TRACER.span("request", query=query):
                        engine.execute(query)

        previous_registry = obs.push_registry()
        previous_enabled = obs.set_enabled(False)
        try:
            off_seconds = _best_round_seconds(plain_round)
            noop_tracer_seconds = _best_round_seconds(traced_round)
            obs.set_enabled(True)
            obs.push_registry()
            on_seconds = _best_round_seconds(plain_round)
            series_recorded = len(obs.snapshot())
            series_per_round, increments_per_round = _one_round_counts(plain_round)
        finally:
            obs.set_enabled(previous_enabled)
            obs.set_registry(previous_registry)

        metrics_pct = _overhead_pct(off_seconds, on_seconds)
        tracer_pct = _overhead_pct(off_seconds, noop_tracer_seconds)
        queries_per_round = QUERIES_PER_ROUND * len(QUERIES)
        print_table(
            f"OBS overhead: {queries_per_round} Fig6 queries/round, "
            f"{DOCUMENTS} docs, best of {REPEATS}",
            ["configuration", "round", "overhead"],
            [
                ["obs disabled", f"{off_seconds * 1000:.2f}ms", "-"],
                ["metrics on", f"{on_seconds * 1000:.2f}ms",
                 f"{metrics_pct:+.2f}%"],
                ["no-op tracer", f"{noop_tracer_seconds * 1000:.2f}ms",
                 f"{tracer_pct:+.2f}%"],
            ],
        )
        print_table(
            "OBS work per warm round (exact, gated)",
            ["metric series touched", "counter increments"],
            [[series_per_round, increments_per_round]],
        )
        write_artifact(
            "BENCH_obs_overhead.json",
            "fig6_overhead",
            {
                "documents": DOCUMENTS,
                "queries_per_round": queries_per_round,
                "repeats": REPEATS,
                "disabled_queries_per_second": round(
                    queries_per_round / off_seconds, 1
                ),
                "metrics_on_queries_per_second": round(
                    queries_per_round / on_seconds, 1
                ),
                "metrics_on_overhead_pct": metrics_pct,
                "noop_tracer_overhead_pct": tracer_pct,
                "metric_series_recorded": series_recorded,
                "metric_series_per_round": series_per_round,
                "counter_increments_per_round": increments_per_round,
            },
        )
        # Shape claims: the layer recorded real series, and a warm round
        # touches the ones a 15-round run touched — no series per value.
        assert 0 < series_per_round == series_recorded
        assert increments_per_round > 0
    benchmark.pedantic(report, rounds=1, iterations=1)
