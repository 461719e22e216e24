#!/usr/bin/env python3
"""Ratchets: source size may only shrink, banked perf may only rise.

Two locks, one guard:

**Bench ratchets** (``benchmarks/baselines/BENCH_*.json`` vs
``benchmarks/baselines/ratchets.lock``).  Benchmark keys whose leaf name
starts with ``ratchet_`` are banked performance floors (see
``benchmarks/check_regression.py``).  The committed *baseline* side of
those keys is what this guard ratchets: a committed ratchet value may
never drop below (or vanish from) the locked value, so a
``--update-baselines`` run cannot quietly launder a perf regression into
the baseline — lowering a floor fails here until the lock itself is
re-reviewed and rewritten with ``--update``.

**Source size** (``src/**/*.py`` vs ``src-lines.lock``).  The paper's
argument is leanness, so the physical line count of the source tree is a
tracked metric that may only fall: a tree larger than the lock fails, a
smaller one passes and suggests ``--update`` to bank the reduction.

The bench lock is one line per entry, tab-separated — line-diffable in
review, no JSON nesting to mis-merge — and the source lock is a single
number:

* bench:  ``artifact<TAB>dotted.key<TAB>value``
* source: ``lines``
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_BENCH_BASELINES = REPO_ROOT / "benchmarks" / "baselines"
DEFAULT_BENCH_LOCK = DEFAULT_BENCH_BASELINES / "ratchets.lock"
DEFAULT_SRC = REPO_ROOT / "src"
DEFAULT_SRC_LOCK = REPO_ROOT / "src-lines.lock"

#: Leaf-name prefix marking a benchmark key as a banked floor (kept in
#: sync with ``benchmarks/check_regression.py``).
RATCHET_PREFIX = "ratchet_"


def _flatten(value: object, prefix: str = "") -> dict[str, object]:
    """Nested JSON -> ``{dotted.path: scalar}`` (lists indexed)."""
    flat: dict[str, object] = {}
    if isinstance(value, dict):
        for key in sorted(value):
            child = f"{prefix}.{key}" if prefix else str(key)
            flat.update(_flatten(value[key], child))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            flat.update(_flatten(item, f"{prefix}[{index}]"))
    else:
        flat[prefix] = value
    return flat


def bench_ratchets(baseline_dir: Path) -> dict[tuple[str, str], float]:
    """Every ``ratchet_*`` key in the committed bench baselines."""
    ratchets: dict[tuple[str, str], float] = {}
    for artifact in sorted(baseline_dir.glob("BENCH_*.json")):
        flat = _flatten(json.loads(artifact.read_text()))
        for path, value in flat.items():
            leaf = path.rsplit(".", 1)[-1]
            if leaf.startswith(RATCHET_PREFIX) and isinstance(
                value, (int, float)
            ):
                ratchets[(artifact.name, path)] = float(value)
    return ratchets


def bench_lock(path: Path) -> dict[tuple[str, str], float]:
    locked: dict[tuple[str, str], float] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        artifact, key, value = line.split("\t")
        locked[(artifact, key)] = float(value)
    return locked


def write_bench_lock(
    path: Path, ratchets: dict[tuple[str, str], float]
) -> None:
    lines = [
        f"{artifact}\t{key}\t{value:g}"
        for (artifact, key), value in sorted(ratchets.items())
    ]
    path.write_text("".join(line + "\n" for line in lines))


def check_bench_ratchets(
    baseline_dir: Path, lock_path: Path
) -> tuple[int, list[str]]:
    """Returns (exit status, messages) for the bench-ratchet side."""
    ratchets = bench_ratchets(baseline_dir)
    if not lock_path.is_file():
        if not ratchets:
            return 0, []
        return 1, [
            f"error: {lock_path} is missing but the bench baselines carry "
            f"{len(ratchets)} ratchet key(s); run --update to create it"
        ]
    locked = bench_lock(lock_path)
    messages: list[str] = []
    status = 0
    for (artifact, key), floor in sorted(locked.items()):
        current = ratchets.get((artifact, key))
        if current is None:
            messages.append(
                f"bench ratchet: {artifact} lost its banked key {key} "
                f"(locked at {floor:g})"
            )
            status = 1
        elif current < floor:
            messages.append(
                f"bench ratchet: {artifact} {key} dropped to {current:g}, "
                f"below the locked floor {floor:g} — a perf win was "
                "un-banked; restore it or re-lock with --update after review"
            )
            status = 1
    grown = sorted(
        (entry, value)
        for entry, value in ratchets.items()
        if entry not in locked or value > locked[entry]
    )
    if status == 0 and grown:
        messages.append(
            f"bench ratchet: {len(grown)} key(s) rose above (or are new to) "
            "the lock; run --update to bank them"
        )
    if status == 0:
        messages.append(
            f"ok: {len(ratchets)} bench ratchet key(s), none below the lock"
        )
    return status, messages


def src_lines(src_dir: Path) -> int:
    """Physical lines of ``src/**/*.py`` (what ``cat | wc -l`` counts)."""
    return sum(
        path.read_bytes().count(b"\n") for path in src_dir.rglob("*.py")
    )


def check_src_lines(src_dir: Path, lock_path: Path) -> tuple[int, list[str]]:
    """Returns (exit status, messages) for the source-size side."""
    if not lock_path.is_file():
        return 1, [
            f"error: {lock_path} is missing; run --update to create it"
        ]
    locked = int(lock_path.read_text())
    current = src_lines(src_dir)
    if current > locked:
        return 1, [
            f"src ratchet: {src_dir.name}/ grew to {current} lines, above "
            f"the locked {locked} — delete as much as was added, or re-lock "
            "with --update after review"
        ]
    messages = []
    if current < locked:
        messages.append(
            f"src ratchet: {src_dir.name}/ shrank by {locked - current} "
            "line(s); run --update to tighten the lock"
        )
    messages.append(
        f"ok: {current} source line(s), not above the locked {locked}"
    )
    return 0, messages


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Fail when a committed bench ratchet drops or src/ gains "
            "lines."
        ),
    )
    parser.add_argument(
        "--bench-baselines", type=Path, default=DEFAULT_BENCH_BASELINES,
        metavar="DIR",
    )
    parser.add_argument(
        "--bench-lock", type=Path, default=DEFAULT_BENCH_LOCK,
        metavar="FILE",
    )
    parser.add_argument(
        "--src", type=Path, default=DEFAULT_SRC, metavar="DIR",
    )
    parser.add_argument(
        "--src-lock", type=Path, default=DEFAULT_SRC_LOCK, metavar="FILE",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite every lock from the current tree (after review)",
    )
    args = parser.parse_args(argv)

    if args.update:
        ratchets = bench_ratchets(args.bench_baselines)
        write_bench_lock(args.bench_lock, ratchets)
        print(
            f"locked {len(ratchets)} bench ratchet key(s) in "
            f"{args.bench_lock.name}"
        )
        lines = src_lines(args.src)
        args.src_lock.write_text(f"{lines}\n")
        print(f"locked {lines} source line(s) in {args.src_lock.name}")
        return 0
    bench_status, bench_messages = check_bench_ratchets(
        args.bench_baselines, args.bench_lock
    )
    src_status, src_messages = check_src_lines(args.src, args.src_lock)
    for message in bench_messages + src_messages:
        print(message)
    return max(bench_status, src_status)


if __name__ == "__main__":
    raise SystemExit(main())
