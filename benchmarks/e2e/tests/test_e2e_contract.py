"""BENCHMARK.json and the runner name exactly the same things."""

import gc
import json
import re
from pathlib import Path

import pytest

import plans
from runner import WorkloadRun

SPEC = json.loads((Path(__file__).resolve().parents[3] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(autouse=True)
def _thaw():
    yield
    gc.unfreeze()  # the runner freezes its set-up; do not leak that into pytest


def test_names_are_well_formed_and_unique():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def test_workloads_match_the_plans():
    assert [w["name"] for w in SPEC["workloads"]] == list(plans.ROUND_SECONDS)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    # run_seconds buys three ingest rounds (a median of three recoveries)
    # and at least 1600 reads on the read-only workloads.
    rounds = {name: plans.build_plan(name, 1, 8).round_count(SPEC["run_seconds"]) for name in plans.ROUND_SECONDS}
    assert rounds["ingest_durable"] >= 3
    assert rounds["search_cold"] * 64 >= 1400 and rounds["search_compose"] * 250 >= 1600


@pytest.mark.parametrize("workload", list(plans.ROUND_SECONDS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_and_nothing_else(workload, trace, tmp_path):
    run = WorkloadRun(workload, 11, str(tmp_path), 1.0, documents=30, trace=trace)
    result = run.execute()
    assert result.failures == []
    assert result.attempted > 0
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result.metrics) == expected
    if not trace:
        assert all(value > 0 for value in result.metrics.values())


def test_layers_show_up_where_they_should(tmp_path):
    def traced(workload):
        return WorkloadRun(
            workload, 11, str(tmp_path / workload), 1.0, documents=30, trace=True
        ).execute().metrics

    for name in plans.ROUND_SECONDS:
        (tmp_path / name).mkdir()
    cold, compose = traced("search_cold"), traced("search_compose")
    ingest, mixed = traced("ingest_durable"), traced("mixed_rw")
    # xslt and the cache do nothing on the cold workload, the engine nearly
    # nothing on the composed one
    assert cold["xslt.compile_ms_per_read"] == cold["xslt.transform_ms_per_read"] == 0.0
    assert cold["query.cache.hit_ratio"] == 0.0
    assert compose["query.cache.hit_ratio"] >= 0.95
    assert compose["xslt.transform_ms_per_read"] > 0.0
    assert compose["query.engine.self_ms_per_read"] < 0.05 * compose["server.http.request_ms_per_read"]
    # the write path is silent on the read-only workloads, and the reverse
    for metrics in (cold, compose):
        assert all(
            value == 0.0
            for name, value in metrics.items()
            if name.endswith("_per_write") or name.startswith("ordbms.wal.")
        )
    assert ingest["server.http.request_ms_per_read"] == 0.0
    assert ingest["ordbms.table.deletes_per_write"] == 0.0 < mixed["ordbms.table.deletes_per_write"]
    assert ingest["ordbms.wal.syncs_per_write"] == 1.0
    assert ingest["ordbms.recovery.records_replayed"] > 0
    # restarts and write growth are measured where the node is built, only
    assert ingest["recover_s"] > 0.0 < ingest["write_growth_x"]
    assert cold["recover_s"] == mixed["recover_s"] == cold["write_growth_x"] == 0.0
    # every layer's self time is accounted for
    for metrics in (cold, compose, ingest, mixed):
        assert metrics["trace.attributed_share"] > 0.95


def test_exact_counts_repeat_bit_for_bit(tmp_path):
    exact = (
        "ordbms.table.inserts_per_write", "ordbms.table.updates_per_write",
        "ordbms.table.deletes_per_write", "ordbms.wal.appends_per_write",
        "ordbms.wal.bytes_per_write", "ordbms.wal.syncs_per_write",
        "server.http.response_bytes_per_read",
    )
    runs = []
    for attempt, trace in (("a", True), ("b", True), ("c", False), ("d", False)):
        (tmp_path / attempt).mkdir()
        run = WorkloadRun("mixed_rw", 5, str(tmp_path / attempt), 1.0, documents=30, trace=trace)
        runs.append(run.execute().metrics)
    assert [runs[0][name] for name in exact] == [runs[1][name] for name in exact]
    for name in ("wal_bytes_per_user_byte", "fsyncs_per_write"):
        assert runs[2][name] == runs[3][name]
    # 30 documents loaded with one flush each and one for the empty node,
    # then 25 replacements (delete + insert) with two
    assert runs[2]["fsyncs_per_write"] == (31 + 2 * 25) / (30 + 25)
