"""Resource lifecycle: a resource is owned where it is opened.

``resource-lifecycle`` looks at each call that opens a resource — a
bare-name constructor in ``config.resource_calls`` (``open``,
``FileLogDevice``) or an attribute factory in ``config.resource_methods``
(the snapshot pin ``db.open_snapshot()``, released by ``release``) — and
accepts it only in a form
whose owner is plain at the call site:

* a ``with`` item;
* the value of a ``return`` (a factory: the caller owns it);
* assigned to an attribute or subscript (``self.h = open(...)``: the
  object owns it);
* bound to a local name that the next statement in the same block
  *takes*: a ``try`` whose ``finally`` calls one of the name's release
  methods, or a bare load of the name outside receiver position
  (``return fh``, ``sink.adopt(fh)``, ``with fh``).

Anything else is reported at its line, including a construction in
argument position (``recover(FileLogDevice(base))``), which has no name
to close.  Because nothing may run between the open and its owner there
is no path to reason about: a read before the ``try``, a name rebound
before its ``finally`` and a reopen in a loop body are all reported.
A name bound in a generator is exempt: a generator holds resources
across suspension points by design and its cleanup runs in ``close()``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.config import AnalysisConfig
from repro.analysis.core import FileContext, Violation, walk_scope


def _resource_ctor(
    call: ast.Call, config: AnalysisConfig
) -> tuple[str, frozenset[str]] | None:
    """``(ctor-name, release-methods)`` when ``call`` opens a resource."""
    func = call.func
    if isinstance(func, ast.Name):
        releases = config.resource_calls.get(func.id)
        if releases is not None:
            return func.id, releases
        return None
    if isinstance(func, ast.Attribute):
        releases = config.resource_methods.get(func.attr)
        if releases is not None:
            return func.attr, releases
    return None


def _released(stmts: list[ast.stmt], name: str,
              releases: frozenset[str]) -> bool:
    """Whether ``stmts`` call ``name.<release>()``."""
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == name
        and node.func.attr in releases
        for stmt in stmts
        for node in ast.walk(stmt)
    )


def _bare_load(parts: list[ast.AST], name: str) -> bool:
    """Whether ``parts`` load ``name`` other than as ``name.attr``."""
    nodes = [node for part in parts for node in ast.walk(part)]
    receivers = {
        id(node.value) for node in nodes if isinstance(node, ast.Attribute)
    }
    return any(
        isinstance(node, ast.Name) and node.id == name
        and isinstance(node.ctx, ast.Load) and id(node) not in receivers
        for node in nodes
    )


def _takes(stmt: ast.stmt | None, name: str,
           releases: frozenset[str]) -> bool:
    """Whether ``stmt``, the statement after the binding, owns ``name``."""
    if stmt is None:
        return False
    if hasattr(stmt, "finalbody"):  # try / try*
        return _released(stmt.finalbody, name, releases)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return _bare_load([item.context_expr for item in stmt.items], name)
    if hasattr(stmt, "body") or hasattr(stmt, "cases"):
        return False  # a branch, loop, match or def owns nothing
    return _bare_load([stmt], name)


class ResourceLifecycleRule:
    id = "resource-lifecycle"
    summary = (
        "an opened resource must be a 'with' item, returned, stored on "
        "an object, or taken by the next statement"
    )

    def check(
        self, ctx: FileContext, config: AnalysisConfig
    ) -> Iterator[Violation]:
        yield from self._check_scope(ctx, ctx.tree, config)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(ctx, node, config)

    def _check_scope(
        self, ctx: FileContext, scope: ast.AST, config: AnalysisConfig
    ) -> Iterator[Violation]:
        owners: dict[int, ast.AST | None] = {}
        following: dict[int, ast.stmt | None] = {}
        opens: list[tuple[ast.Call, str, frozenset[str]]] = []
        generator = False
        for node, parent in walk_scope(scope):
            owners[id(node)] = parent
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                generator = True
            elif isinstance(node, ast.Call):
                ctor = _resource_ctor(node, config)
                if ctor is not None:
                    opens.append((node, *ctor))
            for block in ("body", "orelse", "finalbody"):
                stmts = getattr(node, block, None)
                if isinstance(stmts, list):
                    for stmt, after in zip(stmts, stmts[1:] + [None]):
                        following[id(stmt)] = after
        for call, ctor, releases in opens:
            owner = owners[id(call)]
            if isinstance(owner, ast.Return) or (
                isinstance(owner, ast.withitem) and owner.context_expr is call
            ):
                continue
            targets = (
                (getattr(owner, "targets", None) or [owner.target])
                if isinstance(owner, (ast.Assign, ast.AnnAssign)) else []
            )
            if targets and all(
                isinstance(target, (ast.Attribute, ast.Subscript))
                for target in targets
            ):
                continue  # the object owns it
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                name = targets[0].id
                if generator or _takes(
                    following.get(id(owner)), name, releases
                ):
                    continue
                yield ctx.violation(
                    self.id, owner.lineno,
                    f"{name!r} opened here by {ctor}(...) is not taken "
                    "by the next statement; follow it with a try whose "
                    f"finally calls {'/'.join(sorted(releases))}, use "
                    "'with', or hand it on",
                )
                continue
            yield ctx.violation(
                self.id, call,
                f"{ctor}(...) is constructed inline here with no "
                "binding to release it; assign it to a name and close "
                "it in a finally",
            )
