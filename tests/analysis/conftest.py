"""Shared helpers for the analyzer test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze_source

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def run_fixture():
    """Analyze a fixture file as if it lived at a claimed source path.

    The claimed path decides layer identity (for ``layering``) and
    path-scoped exemptions (rowid minters, the transaction machinery),
    so each fixture can impersonate whichever unit makes its scenario
    real.
    """

    def runner(name: str, virtual_path: str, rule: str | None = None):
        source = (FIXTURES / name).read_text()
        violations = analyze_source(source, virtual_path)
        if rule is not None:
            violations = [v for v in violations if v.rule == rule]
        return violations

    return runner
