"""Bank the write path's work counters from one traced end-to-end run.

Runs ``benchmarks/e2e/run.py --workload ingest_durable --trace 1`` at a
fixed seed and a short ``--seconds`` (the run executes the same
operations whatever the box's speed, so its counts repeat bit for bit)
and writes ``BENCH_e2e_ingest.json`` in the repo root for the perf gate::

    python benchmarks/bank_e2e_counters.py
    python benchmarks/check_regression.py BENCH_e2e_ingest.json --tolerance 0

Under ``--tolerance 0`` every key in ``counters`` must equal the
committed baseline exactly — a sibling back-patch, a second fsync or a
fatter WAL record cannot come back unnoticed.  Where the time went is
printed for the CI log and kept out of the artifact: timings belong to
the machine, and would churn the committed baseline.
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
    "ordbms.wal.appends_per_write",
    "ordbms.wal.bytes_per_write",
    "ordbms.wal.syncs_per_write",
)
#: Where the time went: printed, never written to the artifact.
TIMINGS = (
    "server.daemon.write_ms_per_write",
    "server.daemon.self_ms_per_write",
    "store.xmlstore.lookup_ms_per_write",
    "store.decompose.self_ms_per_write",
    "ordbms.table.insert_ms_per_write",
    "ordbms.table.update_ms_per_write",
    "ordbms.wal.append_ms_per_write",
)


def metrics_from(output: str) -> dict[str, float]:
    """Every metric of a run that passed its own checks, by name
    (``run.py``'s last output line is its JSON result)."""
    result = json.loads(output.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"the traced run failed its own checks: {result}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def artifact_from(metrics: dict[str, float]) -> dict[str, object]:
    """The gate artifact: the run's identity and its exact counters."""
    return {
        "run": {"workload": WORKLOAD, "seed": SEED, "seconds": SECONDS},
        "counters": {name: metrics[name] for name in COUNTERS},
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
    metrics = metrics_from(run.stdout)
    (REPO_ROOT / ARTIFACT).write_text(
        json.dumps(artifact_from(metrics), indent=2, sort_keys=True) + "\n"
    )
    for kind, names in (("counter", COUNTERS), ("timing", TIMINGS)):
        for name in names:
            print(f"{kind:8s} {name:45s} {metrics[name]:12.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
