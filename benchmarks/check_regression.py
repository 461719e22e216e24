"""The CI perf-regression gate: fresh BENCH_*.json vs committed baselines.

The figure benchmarks (``bench_fig6_context_search.py`` etc.) write their
measurements as JSON artifacts in the repo root.  Most of those numbers
are *deterministic work counters* — rows fetched, WAL appends, breaker
trips — which must match the committed baseline **exactly**: a drifted
counter means the engine silently started doing more (or less) work.
Timing-pattern numbers (``queries_per_second`` and friends) are
environment noise on shared CI runners, so they are reported but only
*gated* (at a relative tolerance) when ``--gate-timings`` is passed —
e.g. on a dedicated perf box.  Other floats (ratios like
``call_reduction``) sit in between and get the tolerance by default.

Keys whose leaf name starts with ``ratchet_`` are **monotone floors**:
the fresh value must be >= the committed baseline, always gated, no
timing exemption.  Benches write them as hard-asserted claims (e.g.
``ratchet_speedup_floor``), so once a win is banked in the baseline a
later change can only keep it or raise it — lowering the floor fails CI
until the regression is owned via ``--update-baselines`` *and* the
separate ``scripts/check_baseline_ratchet.py`` bench lock is re-locked.

The end-to-end counter artifacts (``BENCH_e2e_*.json``, written by
``bank_e2e_counters.py``) hold floats that are pure functions of the
inputs, so :data:`GATED_ARTIFACTS` gives them a tolerance of 0: one list
names every gated artifact and how exactly its floats must match.

Usage::

    python benchmarks/check_regression.py            # gate (CI mode)
    python benchmarks/check_regression.py --update-baselines

Exit status 1 on any gated regression; the delta table always prints.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_DIR = Path(__file__).resolve().parent / "baselines"

#: Relative tolerance for floats (timings under --gate-timings, ratios
#: always).  25% absorbs interpreter and allocator jitter while still
#: catching a real 2x regression.
DEFAULT_TOLERANCE = 0.25

#: Every artifact the gate watches (repo-root file name) with the
#: relative tolerance its floats get.  The end-to-end counters are exact.
GATED_ARTIFACTS = {
    "BENCH_fig6.json": DEFAULT_TOLERANCE,
    "BENCH_fig8.json": DEFAULT_TOLERANCE,
    "BENCH_crash_matrix.json": DEFAULT_TOLERANCE,
    "BENCH_cluster_failover.json": DEFAULT_TOLERANCE,
    "BENCH_concurrent.json": DEFAULT_TOLERANCE,
    "BENCH_overload.json": DEFAULT_TOLERANCE,
    "BENCH_cache_differential.json": DEFAULT_TOLERANCE,
    "BENCH_obs_overhead.json": DEFAULT_TOLERANCE,
    "BENCH_e2e_ingest.json": 0.0,
    "BENCH_e2e_read.json": 0.0,
    "BENCH_e2e_compose.json": 0.0,
    "BENCH_e2e_mixed.json": 0.0,
}

#: Leaf-name prefix marking a key as a monotone floor: fresh >= baseline
#: or the gate fails, regardless of type or timing pattern.
RATCHET_PREFIX = "ratchet_"

#: Key fragments that mark a float as a *timing* — noisy on shared CI,
#: gated only under ``--gate-timings``.  ``speedup`` and ``overhead`` are
#: ratios *of* timings, so they inherit the noise.
TIMING_PATTERNS = (
    "per_second", "_seconds", "_ms", "latency", "elapsed", "speedup",
    "overhead",
)


def is_timing_key(path: str) -> bool:
    leaf = path.rsplit(".", 1)[-1]
    return any(pattern in leaf for pattern in TIMING_PATTERNS)


def is_ratchet_key(path: str) -> bool:
    return path.rsplit(".", 1)[-1].startswith(RATCHET_PREFIX)


def flatten(value: object, prefix: str = "") -> dict[str, object]:
    """Nested JSON -> ``{dotted.path: scalar}`` (lists indexed)."""
    flat: dict[str, object] = {}
    if isinstance(value, dict):
        for key in sorted(value):
            child = f"{prefix}.{key}" if prefix else str(key)
            flat.update(flatten(value[key], child))
    elif isinstance(value, list):
        flat[f"{prefix}.len" if prefix else "len"] = len(value)
        for index, item in enumerate(value):
            flat.update(flatten(item, f"{prefix}[{index}]"))
    else:
        flat[prefix] = value
    return flat


class Delta:
    """One compared key: baseline vs fresh plus the gate verdict."""

    __slots__ = ("artifact", "path", "baseline", "fresh", "status")

    def __init__(
        self,
        artifact: str,
        path: str,
        baseline: object,
        fresh: object,
        status: str,
    ) -> None:
        self.artifact = artifact
        self.path = path
        self.baseline = baseline
        self.fresh = fresh
        self.status = status  # ok | drift | REGRESSION | missing | new

    @property
    def failed(self) -> bool:
        return self.status == "REGRESSION"


def compare_values(
    path: str,
    baseline: object,
    fresh: object,
    tolerance: float,
    gate_timings: bool,
) -> str:
    """The gate verdict for one key (see module docstring for the tiers)."""
    if type(baseline) is bool or type(fresh) is bool:
        return "ok" if baseline == fresh else "REGRESSION"
    if is_ratchet_key(path):
        # Monotone floor: the banked value may only hold or rise.  The
        # timing exemption deliberately does not apply — ratchet keys are
        # asserted claims the bench already enforced, not measurements.
        if isinstance(baseline, (int, float)) and isinstance(
            fresh, (int, float)
        ):
            return "ok" if float(fresh) >= float(baseline) else "REGRESSION"
        return "REGRESSION"
    if isinstance(baseline, (int, float)) and isinstance(fresh, (int, float)):
        if isinstance(baseline, int) and isinstance(fresh, int):
            # Work counters: exact.
            return "ok" if baseline == fresh else "REGRESSION"
        # Floats: relative tolerance; timings only gate when asked.
        scale = max(abs(float(baseline)), 1e-9)
        relative = abs(float(fresh) - float(baseline)) / scale
        if relative <= tolerance:
            return "ok"
        if is_timing_key(path) and not gate_timings:
            return "drift"
        return "REGRESSION"
    return "ok" if baseline == fresh else "REGRESSION"


def compare_artifact(
    name: str,
    baseline_data: object,
    fresh_data: object,
    tolerance: float,
    gate_timings: bool,
) -> list[Delta]:
    baseline_flat = flatten(baseline_data)
    fresh_flat = flatten(fresh_data)
    deltas: list[Delta] = []
    for path in sorted(set(baseline_flat) | set(fresh_flat)):
        if path not in fresh_flat:
            deltas.append(
                Delta(name, path, baseline_flat[path], None, "REGRESSION")
            )
        elif path not in baseline_flat:
            # New measurements are fine — they become part of the next
            # --update-baselines run.
            deltas.append(Delta(name, path, None, fresh_flat[path], "new"))
        else:
            status = compare_values(
                path,
                baseline_flat[path],
                fresh_flat[path],
                tolerance,
                gate_timings,
            )
            deltas.append(
                Delta(name, path, baseline_flat[path], fresh_flat[path], status)
            )
    return deltas


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_table(deltas: list[Delta], verbose: bool) -> str:
    """The human-readable delta table (only non-ok rows unless verbose)."""
    rows = [
        (d.artifact, d.path, _fmt(d.baseline), _fmt(d.fresh), d.status)
        for d in deltas
        if verbose or d.status != "ok"
    ]
    ok_count = sum(1 for d in deltas if d.status == "ok")
    headers = ("artifact", "key", "baseline", "fresh", "status")
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.append(
        f"{ok_count} key(s) ok, "
        f"{sum(1 for d in deltas if d.status == 'drift')} drifted (ungated), "
        f"{sum(1 for d in deltas if d.status == 'new')} new, "
        f"{sum(1 for d in deltas if d.failed)} regressed"
    )
    return "\n".join(lines)


def check(
    fresh_dir: Path,
    baseline_dir: Path,
    artifacts: tuple[str, ...] = tuple(GATED_ARTIFACTS),
    tolerance: float | None = None,
    gate_timings: bool = False,
) -> tuple[list[Delta], list[str]]:
    """Compare every artifact; returns (deltas, hard errors).

    Each artifact's floats get its :data:`GATED_ARTIFACTS` tolerance
    unless ``tolerance`` overrides it for the whole run.
    """
    deltas: list[Delta] = []
    errors: list[str] = []
    for name in artifacts:
        fresh_path = fresh_dir / name
        baseline_path = baseline_dir / name
        if not baseline_path.exists():
            errors.append(
                f"no committed baseline for {name}: run with "
                "--update-baselines after generating artifacts"
            )
            continue
        if not fresh_path.exists():
            errors.append(
                f"fresh artifact {name} missing from {fresh_dir}: run "
                "the figure benchmarks (pytest benchmarks/ -q) and "
                "benchmarks/bank_e2e_counters.py first"
            )
            continue
        if tolerance is None:
            allowed = GATED_ARTIFACTS.get(name, DEFAULT_TOLERANCE)
        else:
            allowed = tolerance
        deltas.extend(
            compare_artifact(
                name,
                json.loads(baseline_path.read_text()),
                json.loads(fresh_path.read_text()),
                allowed,
                gate_timings,
            )
        )
    return deltas, errors


def update_baselines(
    fresh_dir: Path,
    baseline_dir: Path,
    artifacts: tuple[str, ...] = tuple(GATED_ARTIFACTS),
) -> list[str]:
    """Copy fresh artifacts over the committed baselines."""
    baseline_dir.mkdir(parents=True, exist_ok=True)
    updated: list[str] = []
    for name in artifacts:
        fresh_path = fresh_dir / name
        if fresh_path.exists():
            shutil.copyfile(fresh_path, baseline_dir / name)
            updated.append(name)
    return updated


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "artifacts",
        nargs="*",
        default=list(GATED_ARTIFACTS),
        help="artifact file names to gate (default: every gated one)",
    )
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        default=REPO_ROOT,
        help="where the freshly generated BENCH_*.json live (repo root)",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=BASELINE_DIR,
        help="committed baseline directory (benchmarks/baselines)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=(
            "relative tolerance for float keys, overriding each "
            "artifact's own (0.25 for figures, 0 for end-to-end counters)"
        ),
    )
    parser.add_argument(
        "--gate-timings",
        action="store_true",
        help="also fail on timing-pattern floats (dedicated perf boxes)",
    )
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="copy the fresh artifacts over the committed baselines",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print every compared key, not just the interesting ones",
    )
    args = parser.parse_args(argv)
    artifacts = tuple(args.artifacts)

    if args.update_baselines:
        updated = update_baselines(args.fresh_dir, args.baseline_dir, artifacts)
        for name in updated:
            print(f"baseline updated: {args.baseline_dir / name}")
        if not updated:
            print("no fresh artifacts found; nothing updated", file=sys.stderr)
            return 1
        return 0

    deltas, errors = check(
        args.fresh_dir,
        args.baseline_dir,
        artifacts,
        args.tolerance,
        args.gate_timings,
    )
    print(render_table(deltas, args.verbose))
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    if errors or any(d.failed for d in deltas):
        print("perf gate: FAIL", file=sys.stderr)
        return 1
    print("perf gate: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
