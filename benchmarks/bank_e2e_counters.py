"""Bank the write path's work counters from one traced end-to-end run.

Runs ``benchmarks/e2e/run.py --workload ingest_durable --trace 1`` at a
fixed seed and a short ``--seconds`` (the run executes the same
operations whatever the box's speed, so its counts repeat bit for bit)
and writes ``BENCH_e2e_ingest.json`` in the repo root for the perf gate::

    python benchmarks/bank_e2e_counters.py
    python benchmarks/check_regression.py BENCH_e2e_ingest.json --tolerance 0

Under ``--tolerance 0`` every key in ``counters`` must equal the
committed baseline exactly — a sibling back-patch, a second fsync or a
fatter WAL record cannot come back unnoticed — while the ``*_ms_*``
keys are timings: reported, never gated on shared runners.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = "BENCH_e2e_ingest.json"
WORKLOAD, SEED, SECONDS = "ingest_durable", 1, 4  # one 400-document round

#: Per-layer metrics that are pure functions of the inputs.
COUNTERS = (
    "ordbms.table.inserts_per_write",
    "ordbms.table.updates_per_write",
    "ordbms.table.deletes_per_write",
    "ordbms.wal.appends_per_write",
    "ordbms.wal.bytes_per_write",
    "ordbms.wal.syncs_per_write",
    "ordbms.mvcc.versions_reclaimed_per_write",
    "ordbms.recovery.records_replayed",
)
#: Where the time went, for the CI log (names match the gate's timing
#: patterns, so they drift without failing).
TIMINGS = (
    "server.daemon.write_ms_per_write",
    "server.daemon.self_ms_per_write",
    "store.xmlstore.lookup_ms_per_write",
    "store.decompose.self_ms_per_write",
    "ordbms.table.insert_ms_per_write",
    "ordbms.table.update_ms_per_write",
    "ordbms.wal.append_ms_per_write",
)


def artifact_from(output: str) -> dict[str, object]:
    """The gate artifact from ``run.py``'s output (its last line is JSON)."""
    result = json.loads(output.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"the traced run failed its own checks: {result}")
    metrics = result["metrics"]
    return {
        "run": {"workload": WORKLOAD, "seed": SEED, "seconds": SECONDS},
        "counters": {name: metrics[name]["value"] for name in COUNTERS},
        "timings": {name: round(metrics[name]["value"], 4) for name in TIMINGS},
    }


def main() -> int:
    run = subprocess.run(
        [
            sys.executable, str(REPO_ROOT / "benchmarks" / "e2e" / "run.py"),
            "--workload", WORKLOAD, "--trace", "1",
            "--seed", str(SEED), "--seconds", str(SECONDS),
        ],
        capture_output=True, text=True, check=False,
    )
    if run.returncode != 0:
        sys.stderr.write(run.stdout + run.stderr)
        return run.returncode
    artifact = artifact_from(run.stdout)
    (REPO_ROOT / ARTIFACT).write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n"
    )
    for section in ("counters", "timings"):
        for name, value in artifact[section].items():
            print(f"{section[:-1]:8s} {name:45s} {value:12.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
