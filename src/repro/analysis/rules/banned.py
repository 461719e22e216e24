"""Banned names: no ``print``, wall-clock read or global RNG in library code.

The table is :data:`~repro.analysis.config.DEFAULT_BANNED_NAMES`: each
banned qualified name with its reason.  Every loaded name or attribute
chain is qualified through the file's import table
(:meth:`FileContext.qualify`) and looked up.

* ``from time import time`` binds a banned name: the import itself is
  the finding, and a use of the bound name is not (one finding per
  binding, however often it is used).
* ``time.perf_counter`` / ``dt.datetime.now`` / ``print`` are findings
  wherever they are loaded — a clock passed by reference
  (``clock = time.perf_counter``) reads the wall clock later.
* An attribute chain on anything but an imported name (``rng.random``,
  ``self.time``) is never a banned name.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.config import AnalysisConfig
from repro.analysis.core import FileContext, Violation


class BannedNameRule:
    id = "banned-name"
    summary = "no print(), wall-clock read or global random.* in library code"

    def check(
        self, ctx: FileContext, config: AnalysisConfig
    ) -> Iterator[Violation]:
        banned = config.banned_names
        imported: set[str] = set()  # names bound to a banned name
        for imp in ctx.imports:
            if imp.qualified in banned:
                imported.add(imp.name)
                yield ctx.violation(
                    self.id, imp.node,
                    f"from {imp.module} import {imp.symbol}: "
                    f"{imp.qualified} {banned[imp.qualified]}",
                )
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                node.ctx, ast.Load
            ):
                name = ctx.qualify(node)
                if name in banned and getattr(node, "id", None) not in imported:
                    yield ctx.violation(
                        self.id, node, f"{name} {banned[name]}"
                    )
