"""The perf gate gates: synthetic regressions must fail, noise must not.

``benchmarks/`` is a script directory, not a package, so the gate module
is loaded by file path.  The tests run the real ``check``/``main`` code
against fixture artifacts seeded with known perturbations — an exact
counter bumped by one, a timing float doubled, a ratio nudged inside
tolerance — and assert which of those the gate catches.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_GATE_PATH = (
    Path(__file__).resolve().parent.parent.parent
    / "benchmarks"
    / "check_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_regression", _GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


BASELINE = {
    "limit_pushdown": {
        "byte_identical": True,
        "call_reduction": 7.81,
        "documents": 400,
        "lazy_table_calls": 32,
        "queries_per_second": 20.0,
        "query": "Context=Budget&limit=5",
        "outcomes": [{"matches": 4, "status": "partial"}],
    },
    "result_cache": {
        "ratchet_speedup_floor": 5.0,
        "hot_hit_table_calls": 0,
    },
}


def _write(directory: Path, name: str, payload: dict) -> None:
    (directory / name).write_text(json.dumps(payload))


@pytest.fixture()
def dirs(tmp_path: Path) -> tuple[Path, Path]:
    fresh = tmp_path / "fresh"
    baselines = tmp_path / "baselines"
    fresh.mkdir()
    baselines.mkdir()
    _write(baselines, "BENCH_fig6.json", BASELINE)
    return fresh, baselines


def _gate(fresh: Path, baselines: Path, **kwargs):
    return gate.check(fresh, baselines, artifacts=("BENCH_fig6.json",), **kwargs)


class TestGateVerdicts:
    def test_identical_run_passes(self, dirs):
        fresh, baselines = dirs
        _write(fresh, "BENCH_fig6.json", BASELINE)
        deltas, errors = _gate(fresh, baselines)
        assert not errors
        assert all(d.status == "ok" for d in deltas)

    def test_counter_drift_is_a_regression(self, dirs):
        """Exact tier: a work counter off by one must fail the gate."""
        fresh, baselines = dirs
        perturbed = json.loads(json.dumps(BASELINE))
        perturbed["limit_pushdown"]["lazy_table_calls"] = 33
        _write(fresh, "BENCH_fig6.json", perturbed)
        deltas, _ = _gate(fresh, baselines)
        failed = [d for d in deltas if d.failed]
        assert [d.path for d in failed] == ["limit_pushdown.lazy_table_calls"]

    def test_flag_flip_is_a_regression(self, dirs):
        fresh, baselines = dirs
        perturbed = json.loads(json.dumps(BASELINE))
        perturbed["limit_pushdown"]["byte_identical"] = False
        _write(fresh, "BENCH_fig6.json", perturbed)
        deltas, _ = _gate(fresh, baselines)
        assert any(
            d.failed and d.path == "limit_pushdown.byte_identical"
            for d in deltas
        )

    def test_timing_noise_is_reported_not_gated(self, dirs):
        """A halved QPS on a shared runner is drift, not failure."""
        fresh, baselines = dirs
        perturbed = json.loads(json.dumps(BASELINE))
        perturbed["limit_pushdown"]["queries_per_second"] = 10.0
        _write(fresh, "BENCH_fig6.json", perturbed)
        deltas, _ = _gate(fresh, baselines)
        assert not any(d.failed for d in deltas)
        assert any(
            d.status == "drift"
            and d.path == "limit_pushdown.queries_per_second"
            for d in deltas
        )

    def test_gate_timings_turns_drift_into_failure(self, dirs):
        fresh, baselines = dirs
        perturbed = json.loads(json.dumps(BASELINE))
        perturbed["limit_pushdown"]["queries_per_second"] = 10.0
        _write(fresh, "BENCH_fig6.json", perturbed)
        deltas, _ = _gate(fresh, baselines, gate_timings=True)
        assert any(
            d.failed and d.path == "limit_pushdown.queries_per_second"
            for d in deltas
        )

    def test_ratio_within_tolerance_passes(self, dirs):
        fresh, baselines = dirs
        perturbed = json.loads(json.dumps(BASELINE))
        perturbed["limit_pushdown"]["call_reduction"] = 7.81 * 1.1
        _write(fresh, "BENCH_fig6.json", perturbed)
        deltas, _ = _gate(fresh, baselines)
        assert not any(d.failed for d in deltas)

    def test_ratio_beyond_tolerance_is_a_regression(self, dirs):
        fresh, baselines = dirs
        perturbed = json.loads(json.dumps(BASELINE))
        perturbed["limit_pushdown"]["call_reduction"] = 7.81 * 2
        _write(fresh, "BENCH_fig6.json", perturbed)
        deltas, _ = _gate(fresh, baselines)
        assert any(
            d.failed and d.path == "limit_pushdown.call_reduction"
            for d in deltas
        )

    def test_each_artifact_carries_its_own_tolerance(self, dirs):
        """One list names every gate: the same 10 % float drift passes a
        figure artifact and fails an end-to-end counter artifact, with
        no ``--tolerance`` on the command line."""
        fresh, baselines = dirs
        perturbed = json.loads(json.dumps(BASELINE))
        perturbed["limit_pushdown"]["call_reduction"] = 7.81 * 1.1
        exact = "BENCH_e2e_read.json"
        assert gate.GATED_ARTIFACTS["BENCH_fig6.json"] == gate.DEFAULT_TOLERANCE
        assert gate.GATED_ARTIFACTS[exact] == 0.0
        for name in ("BENCH_fig6.json", exact):
            _write(baselines, name, BASELINE)
            _write(fresh, name, perturbed)
        deltas, errors = gate.check(
            fresh, baselines, artifacts=("BENCH_fig6.json", exact)
        )
        assert not errors
        assert [(d.artifact, d.path) for d in deltas if d.failed] == [
            (exact, "limit_pushdown.call_reduction")
        ]
        # An explicit tolerance still overrides the table for a whole run.
        deltas, _ = gate.check(
            fresh, baselines, artifacts=("BENCH_fig6.json", exact),
            tolerance=0.25,
        )
        assert not [d for d in deltas if d.failed]

    def test_missing_key_is_a_regression_new_key_is_not(self, dirs):
        fresh, baselines = dirs
        perturbed = json.loads(json.dumps(BASELINE))
        del perturbed["limit_pushdown"]["documents"]
        perturbed["limit_pushdown"]["brand_new_metric"] = 1
        _write(fresh, "BENCH_fig6.json", perturbed)
        deltas, _ = _gate(fresh, baselines)
        by_path = {d.path: d.status for d in deltas}
        assert by_path["limit_pushdown.documents"] == "REGRESSION"
        assert by_path["limit_pushdown.brand_new_metric"] == "new"

    def test_ratchet_floor_may_hold_or_rise(self, dirs):
        """Monotone tier: equal and higher floors both pass."""
        fresh, baselines = dirs
        for floor in (5.0, 9.0):
            perturbed = json.loads(json.dumps(BASELINE))
            perturbed["result_cache"]["ratchet_speedup_floor"] = floor
            _write(fresh, "BENCH_fig6.json", perturbed)
            deltas, _ = _gate(fresh, baselines)
            assert not any(
                d.failed and d.path == "result_cache.ratchet_speedup_floor"
                for d in deltas
            )

    def test_lowered_ratchet_floor_is_a_regression(self, dirs):
        fresh, baselines = dirs
        perturbed = json.loads(json.dumps(BASELINE))
        perturbed["result_cache"]["ratchet_speedup_floor"] = 4.9
        _write(fresh, "BENCH_fig6.json", perturbed)
        deltas, _ = _gate(fresh, baselines)
        assert any(
            d.failed and d.path == "result_cache.ratchet_speedup_floor"
            for d in deltas
        )

    def test_ratchet_keys_have_no_timing_exemption(self, dirs):
        """Even a timing-suffixed ratchet key gates without --gate-timings."""
        fresh, baselines = dirs
        seeded = json.loads(json.dumps(BASELINE))
        seeded["result_cache"]["ratchet_hot_queries_per_second"] = 100.0
        _write(baselines, "BENCH_fig6.json", seeded)
        perturbed = json.loads(json.dumps(seeded))
        perturbed["result_cache"]["ratchet_hot_queries_per_second"] = 50.0
        _write(fresh, "BENCH_fig6.json", perturbed)
        deltas, _ = _gate(fresh, baselines)
        assert any(
            d.failed
            and d.path == "result_cache.ratchet_hot_queries_per_second"
            for d in deltas
        )

    def test_list_shrink_is_a_regression(self, dirs):
        """Dropped outcome rows change the list length (an exact int)."""
        fresh, baselines = dirs
        perturbed = json.loads(json.dumps(BASELINE))
        perturbed["limit_pushdown"]["outcomes"] = []
        _write(fresh, "BENCH_fig6.json", perturbed)
        deltas, _ = _gate(fresh, baselines)
        assert any(
            d.failed and d.path == "limit_pushdown.outcomes.len"
            for d in deltas
        )


class TestCli:
    def test_missing_fresh_artifact_errors(self, dirs):
        fresh, baselines = dirs
        deltas, errors = _gate(fresh, baselines)
        assert not deltas
        assert errors and "missing" in errors[0]

    def test_main_exit_codes(self, dirs, capsys):
        fresh, baselines = dirs
        common = [
            "--fresh-dir", str(fresh),
            "--baseline-dir", str(baselines),
            "BENCH_fig6.json",
        ]
        _write(fresh, "BENCH_fig6.json", BASELINE)
        assert gate.main(common) == 0
        perturbed = json.loads(json.dumps(BASELINE))
        perturbed["limit_pushdown"]["lazy_table_calls"] = 99
        _write(fresh, "BENCH_fig6.json", perturbed)
        assert gate.main(common) == 1
        out = capsys.readouterr()
        assert "lazy_table_calls" in out.out
        assert "FAIL" in out.err

    def test_update_baselines_round_trip(self, dirs, capsys):
        fresh, baselines = dirs
        perturbed = json.loads(json.dumps(BASELINE))
        perturbed["limit_pushdown"]["lazy_table_calls"] = 99
        _write(fresh, "BENCH_fig6.json", perturbed)
        common = [
            "--fresh-dir", str(fresh),
            "--baseline-dir", str(baselines),
            "BENCH_fig6.json",
        ]
        assert gate.main(common) == 1
        capsys.readouterr()
        assert gate.main(common + ["--update-baselines"]) == 0
        assert gate.main(common) == 0

    def test_real_committed_baselines_pass(self):
        """The repo's own artifacts must satisfy the committed baselines."""
        fresh = gate.REPO_ROOT
        baselines = gate.BASELINE_DIR
        present = [
            name for name in gate.GATED_ARTIFACTS
            if (fresh / name).exists() and (baselines / name).exists()
        ]
        if not present:  # pragma: no cover - artifacts not generated yet
            pytest.skip("figure artifacts not generated in this checkout")
        deltas, errors = gate.check(
            fresh, baselines, artifacts=tuple(present)
        )
        assert not errors
        assert not [d for d in deltas if d.failed]


_bank_spec = importlib.util.spec_from_file_location(
    "bank_e2e_counters", _GATE_PATH.with_name("bank_e2e_counters.py")
)
bank = importlib.util.module_from_spec(_bank_spec)
_bank_spec.loader.exec_module(bank)


class TestWritePathCounterGate:
    """``bank_e2e_counters.py`` + ``check_regression.py``: the artifact
    is gated at the tolerance ``GATED_ARTIFACTS`` gives it, which is 0."""

    RUN = bank.INGEST

    @classmethod
    def run_output(cls, **overrides: float) -> str:
        values = {name: 1.5 for name in cls.RUN.counters + cls.RUN.timings}
        values[cls.RUN.counters[1]] = 0.0
        values.update(overrides)
        metrics = {name: {"value": value, "unit": "x"} for name, value in values.items()}
        result = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
        return "# diagnostic lines come first\n" + json.dumps(result) + "\n"

    def gate(self, tmp_path: Path, fresh_output: str) -> list:
        fresh, baselines = tmp_path / "fresh", tmp_path / "baselines"
        fresh.mkdir()
        baselines.mkdir()
        for directory, output in ((baselines, self.run_output()), (fresh, fresh_output)):
            _write(
                directory, self.RUN.artifact,
                self.RUN.artifact_from(bank.metrics_from(output)),
            )
        assert gate.GATED_ARTIFACTS[self.RUN.artifact] == 0.0
        deltas, errors = gate.check(
            fresh, baselines, artifacts=(self.RUN.artifact,)
        )
        assert not errors
        return deltas

    def test_a_back_patch_creeping_back_fails_exactly(self, tmp_path):
        crept = self.RUN.counters[1]  # updates per write / rows fetched per match
        deltas = self.gate(tmp_path, self.run_output(**{crept: 0.0025}))
        assert [d.path for d in deltas if d.failed] == [f"counters.{crept}"]

    def test_timings_stay_out_of_the_artifact(self, tmp_path):
        doubled = {name: 3.0 for name in self.RUN.timings}
        deltas = self.gate(tmp_path, self.run_output(**doubled))
        assert {d.path.split(".")[0] for d in deltas} == {"counters", "run"}
        assert not [d for d in deltas if d.status != "ok"]

    def test_a_run_that_failed_its_own_checks_is_not_banked(self):
        broken = json.loads(self.run_output().splitlines()[-1])
        broken["failed"] = 1
        with pytest.raises(SystemExit):
            bank.metrics_from(json.dumps(broken))

    def test_committed_baseline_is_exactly_the_gated_counters(self):
        committed = json.loads((gate.BASELINE_DIR / self.RUN.artifact).read_text())
        assert set(committed) == {"run", "counters"}
        assert set(committed["counters"]) == set(self.RUN.counters)
        assert committed["run"]["workload"] == self.RUN.workload
        if self.RUN is bank.INGEST:
            assert committed["counters"]["ordbms.table.updates_per_write"] == 0.0


class TestReadPathCounterGate(TestWritePathCounterGate):
    """The same gate over the traced ``search_cold`` run's counters."""

    RUN = bank.READ


class TestComposePathCounterGate(TestWritePathCounterGate):
    """The same gate over the traced ``search_compose`` run's counters:
    a composed byte more or less, or a cache miss, fails exactly."""

    RUN = bank.COMPOSE

    def test_the_engine_is_bypassed_and_every_read_is_a_hit(self):
        committed = json.loads((gate.BASELINE_DIR / self.RUN.artifact).read_text())
        assert committed["counters"]["query.cache.hit_ratio"] == 1.0
        assert committed["counters"]["ordbms.btree.probes_per_read"] == 0.0
        assert committed["counters"]["server.http.response_bytes_per_read"] > 0.0


class TestMixedPathCounterGate(TestWritePathCounterGate):
    """The same gate over the traced ``mixed_rw`` run's counters: what a
    read probes and reads, what a replace inserts, deletes and logs."""

    RUN = bank.MIXED

    def test_a_read_no_longer_pays_per_posting(self):
        committed = json.loads((gate.BASELINE_DIR / self.RUN.artifact).read_text())
        assert committed["counters"]["ordbms.btree.probes_per_read"] <= 20.0
        assert committed["counters"]["query.engine.rows_read_per_match"] < 27.45
