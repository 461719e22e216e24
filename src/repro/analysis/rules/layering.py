"""Layering: the import DAG between ``repro.*`` units and inside them.

The paper's middleware stays lean because each tier only ever talks
downward — converters and the SGML parser feed the store, the store sits
on the ORDBMS substrate, and nothing below the application tier knows
the federation layer exists.  This rule pins that DAG.

A file's grants are its module contract in
:data:`~repro.analysis.config.DEFAULT_MODULE_LAYERS` when it has one
(the read-path hot spots the unit DAG is too coarse for: the batched
accessor must not reach into composition, the plan algebra must not
import the engine that compiles into it), else its unit's grants in
:data:`~repro.analysis.config.DEFAULT_LAYERS`.  Every contract lies
inside its unit's grants (``tests/analysis/test_layering.py`` holds
that), so one rule checks both.  A file may import itself (its unit, or
its module under a contract) and the universal units; ``apps`` and the
package facade are unrestricted.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.config import AnalysisConfig
from repro.analysis.core import FileContext, Violation


class LayeringRule:
    id = "layering"
    summary = "imports must follow the repro.* layer DAG and module contracts"

    def check(
        self, ctx: FileContext, config: AnalysisConfig
    ) -> Iterator[Violation]:
        unit = ctx.unit
        if unit is None or unit in config.unrestricted_units:
            return
        known = (
            set(config.layers)
            | config.unrestricted_units
            | config.universal_units
        )
        if unit not in known:
            yield ctx.violation(
                self.id, 1,
                f"unit {unit!r} is not in the layer map; add it to "
                "repro.analysis.config.DEFAULT_LAYERS",
            )
            return
        owner = ctx.module
        grants = config.module_layers.get(owner)
        if grants is None:
            owner, grants = unit, config.layers.get(unit, frozenset())
        allowed = grants | config.universal_units | {owner}
        for node, target in _targets(ctx, known, allowed):
            if target in allowed or target.split(".")[0] in allowed:
                continue  # a whole-unit grant covers every module in it
            yield ctx.violation(
                self.id, node,
                f"{owner} may not import repro.{target} "
                f"(allowed: {', '.join(sorted(allowed))})",
            )


def _targets(
    ctx: FileContext, units: set[str], allowed: set[str]
) -> dict[tuple[ast.stmt, str], None]:
    """``(statement, target)`` for each ``repro`` module an import names.

    Targets are dotted and ``repro``-relative (``store.schema``).
    ``from repro import X`` names the unit ``X`` when X is one, else the
    facade pseudo-unit ``__root__`` (which only unrestricted units may
    import) — as does ``import repro.x``, which binds the facade.
    ``from repro.store import schema`` names ``store.schema`` when that
    module is granted by name, else ``store``: an ungranted facade
    import stays a violation even when some of its submodules are
    granted.  A relative import names the module it resolves to.
    """
    targets: dict[tuple[ast.stmt, str], None] = {}
    for imp in ctx.imports:
        if imp.module == "repro":
            target = imp.symbol if imp.symbol in units else "__root__"
        elif imp.module.startswith("repro."):
            target = imp.module[len("repro."):]
            if imp.symbol and f"{target}.{imp.symbol}" in allowed:
                target = f"{target}.{imp.symbol}"
        else:
            continue
        targets[imp.node, target] = None
    return targets
