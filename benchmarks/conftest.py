"""Shared helpers for the benchmark harness.

Every bench module regenerates one table or figure of the paper (see
DESIGN.md §4).  Conventions:

* ``test_report_*`` functions print the paper-style rows/series (run with
  ``pytest benchmarks/ --benchmark-only -s`` to see them) and assert the
  *shape* claims — who wins, by roughly what factor, where the curves
  bend.  Absolute numbers are environment-specific and never asserted.
* ``test_bench_*`` functions time the underlying operations with
  pytest-benchmark.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from repro.sgml.dom import Element, Text

# Capture manager handle, filled in by pytest_configure, so experiment
# tables stay visible even though pytest captures test stdout.
_CAPTURE = [None]

#: Where figure artifacts (``BENCH_fig6.json`` etc.) land: the repo root,
#: so CI can upload them with a plain glob.
ARTIFACT_DIR = Path(__file__).resolve().parent.parent


def write_artifact(name: str, section: str, payload: object) -> None:
    """Merge one figure's measurements into its ``BENCH_*.json`` artifact.

    Each report test owns one ``section`` key; read-modify-write keeps
    the sections independent of test execution order.
    """
    path = ARTIFACT_DIR / name
    data: dict[str, object] = {}
    if path.exists():
        data = json.loads(path.read_text())
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@contextmanager
def dom_nodes_built():
    """Count the DOM nodes constructed inside the block, from outside.

    ``Element.__init__`` and ``Text.__init__`` are wrapped for the length
    of the block (as ``benchmarks/e2e/tracing.py`` wraps entry points:
    nothing under ``src/`` knows) and the running count is ``built[0]``.
    Around ``ResultSet.to_xml`` it is what a render constructs rather than
    lists: one node, the ``<results>`` root, when every match already
    holds its element.
    """
    built = [0]
    originals = (Element.__init__, Text.__init__)

    def counting(original):
        def __init__(self, *args, **kwargs):
            built[0] += 1
            original(self, *args, **kwargs)

        return __init__

    Element.__init__, Text.__init__ = map(counting, originals)
    try:
        yield built
    finally:
        Element.__init__, Text.__init__ = originals


def pytest_configure(config):
    _CAPTURE[0] = config.pluginmanager.getplugin("capturemanager")


def _emit(text: str) -> None:
    manager = _CAPTURE[0]
    if manager is not None:
        with manager.global_and_fixture_disabled():
            print(text)
    else:  # pragma: no cover - plugin always present under pytest
        print(text)


def print_table(title: str, headers: list[str], rows: list[list[object]]) -> None:
    """Print one aligned experiment table (bypasses pytest capture)."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(header), *(len(row[index]) for row in rendered)) if rendered
        else len(header)
        for index, header in enumerate(headers)
    ]
    lines = [f"\n=== {title} ==="]
    lines.append(
        "  ".join(header.ljust(width) for header, width in zip(headers, widths))
    )
    for row in rendered:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    _emit("\n".join(lines))
