"""Banned names: no ``print``, wall-clock read or global RNG in library code.

The table is :data:`~repro.analysis.config.DEFAULT_BANNED_NAMES`: each
banned qualified name with its reason.  One pass over the file's imports
maps every local alias to the qualified name it binds; every loaded name
or attribute chain is then qualified through that map and looked up.

* ``from time import time`` binds a banned name: the import itself is
  the finding, and the local alias is not recorded (one finding per
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


def _qualified(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """``a.b.c`` with ``a`` resolved through ``aliases`` (None: local)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    head = aliases.get(node.id)
    if head is None:
        if parts:
            return None  # an attribute of a local, not of a module
        head = node.id  # a bare builtin
    return ".".join([head, *reversed(parts)])


class BannedNameRule:
    id = "banned-name"
    summary = "no print(), wall-clock read or global random.* in library code"

    def check(
        self, ctx: FileContext, config: AnalysisConfig
    ) -> Iterator[Violation]:
        banned = config.banned_names
        aliases: dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.partition(".")[0]
                        aliases[head] = head
            elif isinstance(node, ast.ImportFrom) and not node.level:
                for alias in node.names:
                    name = f"{node.module}.{alias.name}"
                    if name in banned:
                        yield ctx.violation(
                            self.id, node,
                            f"from {node.module} import {alias.name}: "
                            f"{name} {banned[name]}",
                        )
                    else:
                        aliases[alias.asname or alias.name] = name
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                node.ctx, ast.Load
            ):
                name = _qualified(node, aliases)
                if name in banned:
                    yield ctx.violation(
                        self.id, node, f"{name} {banned[name]}"
                    )
