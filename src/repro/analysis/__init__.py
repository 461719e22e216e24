"""Self-hosted static analysis: the architectural invariants as code.

The paper's "lean" discipline — every document type through two fixed
tables, a fixed node-type vocabulary, ROWIDs minted only by the physical
layer — lives in *convention*, not in any schema the runtime could check
(contrast the per-element-type DDL of DOM-shredding mappers).  This
package turns those conventions into executable rules so a refactor
cannot silently erode them.

Rule families
-------------

* **layering** — the import DAG between the ``repro.*`` subpackages
  (``ordbms`` at the bottom imports nothing above it; only ``server``,
  ``cluster``, ``apps`` and the experiment-support leaves may import
  ``federation``).
* **exception policy** — only ``repro.errors`` subclasses cross module
  boundaries; ``except Exception`` / bare ``except`` is banned unless
  annotated ``# lint: allow-broad-except(<reason>)``.
* **transaction & rowid discipline** — no cross-object mutation of
  private state outside ``ordbms/transaction.py``;
  no :class:`~repro.ordbms.rowid.RowId` minted from raw ints outside
  ``ordbms/rowid.py``.
* **determinism** — no wall-clock reads or unseeded randomness in
  library code (benchmarks exempt).
* **hygiene** — no ``print`` in library code.
* **whole-program dataflow** (``--report dataflow``) — the
  concurrency-readiness audit for the concurrent front end: mutated
  module/class state must declare its guard
  (``# repro: guarded-by(<lock>) <why>``), state written on both the
  ingest and query paths is escalated, nested locks must follow one
  global order, opened resources must be released on every CFG path,
  and public entry points may only let their module's declared
  exception policy escape.  Built on :mod:`repro.analysis.cfg`
  (intraprocedural CFGs), :mod:`repro.analysis.dataflow` (forward
  fixpoint engine) and :mod:`repro.analysis.callgraph` (project-wide
  symbol table and call graph).

Escape hatches, in order of preference: fix the code; annotate a
deliberate exception with ``# lint: allow-<rule>(<reason>)`` on the
offending line.  There is no third: a finding is fixed, or it carries
its reason where it stands.

Run it::

    python -m repro.analysis src/ --format human

The package deliberately imports nothing from the runtime stack except
:mod:`repro.errors` — it is itself subject to its own layering rule.
"""

from repro.analysis.config import AnalysisConfig, DEFAULT_CONFIG
from repro.analysis.core import (
    AnalysisReport,
    FileContext,
    ProjectRule,
    Rule,
    Violation,
    analyze_paths,
    analyze_project_sources,
    analyze_source,
)
from repro.analysis.rules import ALL_PROJECT_RULES, ALL_RULES

__all__ = [
    "ALL_PROJECT_RULES",
    "ALL_RULES",
    "AnalysisConfig",
    "AnalysisReport",
    "DEFAULT_CONFIG",
    "FileContext",
    "ProjectRule",
    "Rule",
    "Violation",
    "analyze_paths",
    "analyze_project_sources",
    "analyze_source",
]
