"""Concurrency-readiness: shared mutable state must declare its guard.

The single-process NETMARK daemon tolerates module-level registries and
counters; the multi-worker front end on the roadmap does not.  These
rules build the audited inventory that work starts from:

* ``shared-state`` (whole-program) — a module-level variable that any
  code in the project *mutates* (mutator method call, subscript store,
  ``global`` rebind, augmented assignment) must carry a
  ``# repro: guarded-by(<lock>) <why>`` annotation on its binding line.
  Bindings nobody mutates are presumed import-time constants and stay
  silent — the rule keys off observed writes, not off type shape.
* ``shared-class-state`` (per-file) — a plain ``name = []`` / ``{}``
  assignment in a class body is one object shared by every instance;
  it must be annotated or moved into instance state.  Annotated
  dataclass fields (``x: list = field(...)``) are per-instance and
  exempt by construction.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import (
    CONTAINER_CALLS,
    LOCK,
    MutationSite,
    ProjectIndex,
)
from repro.analysis.comments import guard_for_line
from repro.analysis.config import AnalysisConfig
from repro.analysis.core import FileContext, Violation, callee_name


def _describe_sites(sites: list[MutationSite], limit: int = 3) -> str:
    shown = ", ".join(
        f"{site.path}:{site.line} ({site.how})" for site in sites[:limit]
    )
    extra = len(sites) - limit
    return shown + (f" and {extra} more site(s)" if extra > 0 else "")


class SharedModuleStateRule:
    id = "shared-state"
    summary = (
        "mutated module-level state must declare its guard with "
        "'# repro: guarded-by(<lock>) <why>'"
    )

    def check_project(
        self, project: ProjectIndex, config: AnalysisConfig
    ) -> Iterator[Violation]:
        sites_by_var: dict[str, list[MutationSite]] = {}
        for site in project.mutations:
            sites_by_var.setdefault(site.var, []).append(site)
        for qualname, sites in sorted(sites_by_var.items()):
            variable = project.variables[qualname]
            if variable.kind == LOCK:
                continue  # the guard itself, not guarded state
            ctx = project.modules[variable.module].ctx
            if guard_for_line(ctx.comments.guarded, variable.line) is not None:
                continue
            sites.sort(key=lambda site: (site.path, site.line))
            yield Violation(
                path=ctx.path, line=variable.line, column=0,
                rule=self.id,
                message=(
                    f"module-level state {qualname!r} is mutated at "
                    f"{_describe_sites(sites)}; annotate the binding "
                    "with '# repro: guarded-by(<lock>) <why>' or move "
                    "it into instance state"
                ),
            )


class SharedClassStateRule:
    id = "shared-class-state"
    summary = (
        "a mutable class-body assignment is shared by every instance "
        "and must declare its guard"
    )

    def check(
        self, ctx: FileContext, config: AnalysisConfig
    ) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.Assign):
                    continue
                if not self._mutable_value(stmt.value):
                    continue
                if guard_for_line(ctx.comments.guarded, stmt.lineno) is not None:
                    continue
                names = ", ".join(
                    target.id
                    for target in stmt.targets
                    if isinstance(target, ast.Name)
                )
                if not names:
                    continue
                yield ctx.violation(
                    self.id, stmt,
                    f"class attribute {names!r} on {node.name} is one "
                    "mutable object shared by every instance; make it "
                    "instance state (assign in __init__ / a dataclass "
                    "field) or annotate with "
                    "'# repro: guarded-by(<lock>) <why>'",
                )

    @staticmethod
    def _mutable_value(value: ast.expr) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set)):
            return True
        if isinstance(value, ast.Call):
            return callee_name(value) in CONTAINER_CALLS
        return False
