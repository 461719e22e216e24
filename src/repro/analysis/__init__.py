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
  ``federation``), narrowed to a module contract for the read-path hot
  spots.
* **exception policy** — only ``repro.errors`` subclasses cross module
  boundaries; ``except Exception`` / bare ``except`` is banned unless
  annotated ``# lint: allow-broad-except(<reason>)``.
* **private-state & rowid discipline** — no cross-object mutation of
  private state anywhere; no :class:`~repro.ordbms.rowid.RowId` minted
  from raw ints outside ``ordbms/rowid.py``.
* **banned names** — no ``print``, wall-clock read or global
  ``random.*`` in library code, called or passed by reference.
* **whole-program dataflow** — the concurrency-readiness audit for the
  concurrent front end: mutated module/class state must declare its
  guard (``# repro: guarded-by(<lock>) <why>``), and public entry
  points may only let their module's declared exception policy escape.
  Built on :mod:`repro.analysis.callgraph` (project-wide symbol table
  and call graph).
* **resource ownership** — every opened resource has an owner where it
  is opened: a ``with``, a ``return``, an object attribute, or the
  next statement (a ``try`` whose ``finally`` releases it, or a call
  it is handed to).

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
