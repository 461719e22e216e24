"""Transaction & ROWID discipline.

The paper leans on Oracle-style *physical* ROWIDs for O(1) tree hops —
which only works if a ROWID is always a real storage address.  Hence
``rowid-mint``: :class:`RowId` may be constructed from raw integers only
inside the physical layer (``ordbms/rowid.py``; the heap file carries
per-line pragmas for the two places it mints addresses).

``private-mutation`` guards the transactional counterpart: nobody pokes
another object's ``_private`` state from outside, except the transaction
machinery whose whole job is rewriting heap internals during commit and
rollback.  Constructor-style factories (``store =
cls.__new__(cls); store._x = ...``) are recognised and allowed — an
object wiring up *itself* is not a boundary violation.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.config import AnalysisConfig
from repro.analysis.core import FileContext, Violation


class RowIdMintRule:
    id = "rowid-mint"
    summary = "RowId construction only in the physical layer"

    def check(
        self, ctx: FileContext, config: AnalysisConfig
    ) -> Iterator[Violation]:
        if any(ctx.path_endswith(path) for path in config.rowid_minters):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name == "RowId":
                yield ctx.violation(
                    self.id, node,
                    "RowId minted outside ordbms/rowid.py; take rowids "
                    "from the storage layer or RowId.decode()",
                )


def _is_private(attr: str) -> bool:
    return attr.startswith("_") and not (
        attr.startswith("__") and attr.endswith("__")
    )


class PrivateMutationRule:
    id = "private-mutation"
    summary = "no cross-object mutation of _private state"

    def check(
        self, ctx: FileContext, config: AnalysisConfig
    ) -> Iterator[Violation]:
        if any(ctx.path_endswith(path) for path in config.mutation_exempt):
            return
        class_names = {
            node.name
            for node in ctx.tree.body
            if isinstance(node, ast.ClassDef)
        }
        yield from self._scan_scope(ctx, ctx.tree.body, class_names)

    # -- scope walking -------------------------------------------------------

    _SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)

    def _scan_scope(
        self,
        ctx: FileContext,
        body: list[ast.stmt],
        class_names: set[str],
    ) -> Iterator[Violation]:
        statements = list(self._scope_statements(body))
        selflike = self._constructed_names(statements, class_names)
        for stmt in statements:
            yield from self._check_statement(ctx, stmt, selflike)
        for stmt in statements:
            if isinstance(stmt, self._SCOPES):
                yield from self._scan_scope(ctx, stmt.body, class_names)
            elif isinstance(stmt, ast.ClassDef):
                yield from self._scan_scope(ctx, stmt.body, class_names)

    def _scope_statements(
        self, body: list[ast.stmt]
    ) -> Iterator[ast.stmt]:
        """All statements of one scope, not descending into nested defs."""
        for stmt in body:
            yield stmt
            if isinstance(stmt, (*self._SCOPES, ast.ClassDef)):
                continue
            # iter_child_nodes flattens block fields (body/orelse/
            # finalbody), so nested statements of if/for/try arrive here.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    yield from self._scope_statements([child])

    def _constructed_names(
        self, statements: list[ast.stmt], class_names: set[str]
    ) -> set[str]:
        """Local names bound to a freshly constructed instance.

        ``x = cls(...)``, ``x = cls.__new__(cls)``, or ``x = Klass(...)``
        for a class defined in this module: mutating ``x._attr`` right
        after is constructor-style wiring, not a boundary violation.
        """
        names: set[str] = set()
        for stmt in statements:
            if not isinstance(stmt, ast.Assign):
                continue
            value = stmt.value
            if not isinstance(value, ast.Call):
                continue
            func = value.func
            fresh = (
                (isinstance(func, ast.Name) and func.id == "cls")
                or (
                    isinstance(func, ast.Attribute)
                    and func.attr == "__new__"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "cls"
                )
                or (
                    isinstance(func, ast.Name) and func.id in class_names
                )
            )
            if fresh:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    def _check_statement(
        self, ctx: FileContext, stmt: ast.stmt, selflike: set[str]
    ) -> Iterator[Violation]:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            yield from self._check_target(ctx, target, selflike)

    def _check_target(
        self, ctx: FileContext, target: ast.expr, selflike: set[str]
    ) -> Iterator[Violation]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._check_target(ctx, element, selflike)
            return
        if isinstance(target, ast.Starred):
            yield from self._check_target(ctx, target.value, selflike)
            return
        if not isinstance(target, ast.Attribute):
            return
        if not _is_private(target.attr):
            return
        receiver = target.value
        if isinstance(receiver, ast.Name) and (
            receiver.id in ("self", "cls") or receiver.id in selflike
        ):
            return
        yield ctx.violation(
            self.id, target,
            f"mutation of private attribute "
            f"{ast.unparse(receiver)}.{target.attr} from outside the "
            "owning object; add a method to the owner or route through "
            "ordbms/transaction.py",
        )
