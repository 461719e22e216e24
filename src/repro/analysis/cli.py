"""Command line front end: ``python -m repro.analysis [paths]``.

Exit status: 0 when no unsuppressed violations, 1 when there are any,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TextIO

from repro.analysis.core import AnalysisReport, analyze_paths
from repro.analysis.rules import (
    ALL_PROJECT_RULES,
    ALL_RULES,
    DATAFLOW_RULE_IDS,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Check the repro architectural invariants.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--report", choices=("all", "dataflow"), default="all",
        help=(
            "rule selection: 'dataflow' runs only the whole-program "
            "concurrency/resource/exception-flow family (default: all)"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule ids and summaries, then exit",
    )
    return parser


def _render_human(report: AnalysisReport, out: TextIO) -> None:
    for violation in report.violations:
        out.write(violation.render() + "\n")
    out.write(
        f"{len(report.violations)} violation(s) across "
        f"{report.files_checked} file(s) "
        f"({len(report.pragma_suppressed)} pragma-suppressed)\n"
    )


def _render_json(report: AnalysisReport, out: TextIO) -> None:
    payload = {
        "ok": report.ok,
        "files_checked": report.files_checked,
        "violations": [
            {
                "rule": violation.rule,
                "path": violation.path,
                "line": violation.line,
                "column": violation.column,
                "message": violation.message,
            }
            for violation in report.violations
        ],
        "pragma_suppressed": len(report.pragma_suppressed),
        # The audited shared-state inventory: every guarded-by
        # annotation in the analyzed tree, with its lock and rationale.
        "guarded_state": [
            {
                "path": path,
                "line": annotation.line,
                "lock": annotation.lock,
                "rationale": annotation.rationale,
            }
            for path, annotation in report.guarded_inventory
        ],
    }
    out.write(json.dumps(payload, indent=2) + "\n")


def main(argv: list[str] | None = None, out: TextIO = sys.stdout) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in sorted(ALL_RULES, key=lambda rule: rule.id):
            out.write(f"{rule.id:24} {rule.summary}\n")
        return 0
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        out.write(f"error: no such path: {', '.join(missing)}\n")
        return 2
    if args.report == "dataflow":
        rules = [
            rule for rule in ALL_RULES if rule.id in DATAFLOW_RULE_IDS
        ]
        project_rules = ALL_PROJECT_RULES
    else:
        rules, project_rules = ALL_RULES, ALL_PROJECT_RULES
    report = analyze_paths(
        args.paths, rules=rules, project_rules=project_rules
    )
    if args.format == "json":
        _render_json(report, out)
    else:
        _render_human(report, out)
    return 0 if report.ok else 1
