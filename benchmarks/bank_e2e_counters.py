"""Bank the write, read, compose and mixed paths' work counters from
traced end-to-end runs.

Each entry of :data:`RUNS` runs ``benchmarks/e2e/run.py --workload W
--trace 1`` at a fixed seed and a short ``--seconds`` (a run executes
the same operations whatever the box's speed, so its counts repeat bit
for bit) and writes its artifact in the repo root for the perf gate::

    python benchmarks/bank_e2e_counters.py
    python benchmarks/check_regression.py

``check_regression.GATED_ARTIFACTS`` lists the four artifacts at
tolerance 0: every key in ``counters`` must equal the committed
baseline exactly — a sibling back-patch, a second fsync or a
fatter WAL record cannot come back unnoticed on the write side, nor an
ancestor prefetch, a per-element child probe or a posting-row fetch on
the read side, nor — on the compose side, where the engine is bypassed
and the counters say so — a composed byte more or less, a cache miss or
an index probe — nor, under one replace per four reads, a read that
probes or fetches per posting again, a cached answer dropped by a write
that cannot have changed it, or a replace that writes a row or a WAL
byte more.  Where the time went is printed for the CI log and kept
out of the artifacts: timings belong to the machine, and would churn
the committed baselines.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent


class BankedRun(NamedTuple):
    """One traced run: its identity, what is gated, what is only printed."""

    artifact: str
    workload: str
    seed: int
    seconds: int
    #: Per-layer metrics that are pure functions of the inputs.
    counters: tuple[str, ...]
    #: Where the time went: printed, never written to the artifact.
    timings: tuple[str, ...]

    def artifact_from(self, metrics: dict[str, float]) -> dict[str, object]:
        """The gate artifact: the run's identity and its exact counters."""
        return {
            "run": {
                "workload": self.workload, "seed": self.seed,
                "seconds": self.seconds,
            },
            "counters": {name: metrics[name] for name in self.counters},
        }


INGEST = BankedRun(
    "BENCH_e2e_ingest.json", "ingest_durable", 1, 4,  # one 400-document round
    counters=(
        "ordbms.table.inserts_per_write",
        "ordbms.table.updates_per_write",
        "ordbms.wal.appends_per_write",
        "ordbms.wal.bytes_per_write",
        "ordbms.wal.syncs_per_write",
    ),
    timings=(
        "server.daemon.write_ms_per_write",
        "server.daemon.self_ms_per_write",
        "store.xmlstore.lookup_ms_per_write",
        "store.decompose.self_ms_per_write",
        "ordbms.table.insert_ms_per_write",
        "ordbms.table.update_ms_per_write",
        "ordbms.wal.append_ms_per_write",
    ),
)
READ = BankedRun(
    "BENCH_e2e_read.json", "search_cold", 1, 1,  # two 64-request rounds
    counters=(
        "query.engine.rows_read_per_match",
        "store.accessor.rows_fetched_per_match",
        "ordbms.btree.probes_per_read",
        "ordbms.textindex.lookups_per_read",
        "server.http.response_bytes_per_read",
    ),
    timings=(
        "server.http.request_ms_per_read",
        "query.engine.self_ms_per_read",
        "query.results.self_ms_per_read",
        "sgml.serializer.self_ms_per_read",
    ),
)
COMPOSE = BankedRun(
    "BENCH_e2e_compose.json", "search_compose", 1, 1,  # one 250-request round
    counters=(
        # The whole workload's composed bytes: the cheap byte-size check
        # on anything that rewrites the XSLT processor or the serializer.
        "server.http.response_bytes_per_read",
        "query.cache.hit_ratio",
        "query.cache.evictions_per_read",
        "ordbms.btree.probes_per_read",
        "ordbms.mvcc.snapshots_per_read",
    ),
    timings=(
        "server.http.request_ms_per_read",
        "xslt.compile_ms_per_read",
        "xslt.transform_ms_per_read",
        "query.results.self_ms_per_read",
        "sgml.serializer.self_ms_per_read",
    ),
)
MIXED = BankedRun(
    "BENCH_e2e_mixed.json", "mixed_rw", 1, 2,  # one round: 100 reads, 25 replaces
    counters=(
        "ordbms.btree.probes_per_read",
        "query.engine.rows_read_per_match",
        "ordbms.textindex.lookups_per_read",
        "ordbms.table.inserts_per_write",
        "ordbms.table.deletes_per_write",
        "ordbms.wal.bytes_per_write",
        # Entries outlive the replaces that leave their sections visible.
        "query.cache.hit_ratio",
        "query.cache.evictions_per_read",
    ),
    timings=(
        "server.http.request_ms_per_read",
        "query.engine.self_ms_per_read",
        "server.daemon.write_ms_per_write",
        "ordbms.table.insert_ms_per_write",
        "ordbms.table.delete_ms_per_write",
    ),
)
RUNS = (INGEST, READ, COMPOSE, MIXED)


def metrics_from(output: str) -> dict[str, float]:
    """Every metric of a run that passed its own checks, by name
    (``run.py``'s last output line is its JSON result)."""
    result = json.loads(output.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"the traced run failed its own checks: {result}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main() -> int:
    for banked in RUNS:
        run = subprocess.run(
            [
                sys.executable, str(REPO_ROOT / "benchmarks" / "e2e" / "run.py"),
                "--workload", banked.workload, "--trace", "1",
                "--seed", str(banked.seed), "--seconds", str(banked.seconds),
            ],
            capture_output=True, text=True, check=False,
        )
        if run.returncode != 0:
            sys.stderr.write(run.stdout + run.stderr)
            return run.returncode
        metrics = metrics_from(run.stdout)
        (REPO_ROOT / banked.artifact).write_text(
            json.dumps(banked.artifact_from(metrics), indent=2, sort_keys=True)
            + "\n"
        )
        for kind, names in (
            ("counter", banked.counters), ("timing", banked.timings)
        ):
            for name in names:
                print(f"{kind:8s} {name:45s} {metrics[name]:12.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
