"""Exception flow: entry points honor the declared error contract.

``exception-flow`` computes, for every function in the project, the set
of exception classes that may *escape* it — explicit ``raise`` sites
plus everything escaping from resolved callees, minus whatever enclosing
``except`` clauses catch — as an interprocedural fixpoint over the call
graph.  Public entry points of modules named in
``config.exception_policy`` are then checked: every escaping class must
be a subclass of an allowed name (or of a ubiquitous one — the
crash-injection signal, assertion guards, observability config errors).

Catch matching uses the real class hierarchy: ``repro.errors`` classes
are resolved through the project index, builtins through the live
interpreter.  ``except Exception`` therefore does **not** catch
``CrashError`` (a ``BaseException`` subclass by design — a crash must
not be swallowed by recovery code).

Precision contract: calls the index cannot resolve (duck-typed
receivers, callbacks passed as values, locally-defined closures)
contribute nothing, so the escape sets are lower bounds — the rule finds
real policy violations and never invents impossible ones; it cannot
prove their absence.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator

from repro.analysis.callgraph import FunctionInfo, ProjectIndex
from repro.analysis.config import AnalysisConfig
from repro.analysis.core import Violation


class _Hierarchy:
    """Ancestor chains over project classes plus live builtins."""

    def __init__(self, project: ProjectIndex):
        #: simple class name -> simple base names.
        self.parents: dict[str, set[str]] = {}
        for info in project.classes.values():
            bases = {base.rsplit(".", 1)[-1] for base in info.bases}
            self.parents.setdefault(info.name, set()).update(bases)
        self._cache: dict[str, frozenset[str]] = {}

    def ancestors(self, name: str) -> frozenset[str]:
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        out: set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in out:
                continue
            out.add(current)
            stack.extend(self.parents.get(current, ()))
            builtin = getattr(builtins, current, None)
            if isinstance(builtin, type):
                stack.extend(base.__name__ for base in builtin.__mro__[1:])
        result = frozenset(out)
        self._cache[name] = result
        return result

    def catches(self, handler_names: frozenset[str] | None,
                exc: str) -> bool:
        if handler_names is None:
            return True  # bare except: catches everything
        return bool(handler_names & self.ancestors(exc))

    def is_exception(self, name: str) -> bool:
        return "BaseException" in self.ancestors(name)


def _handler_names(project: ProjectIndex, module: str,
                   handler: ast.ExceptHandler) -> frozenset[str] | None:
    """The simple class names an ``except`` clause catches (None=all)."""
    if handler.type is None:
        return None
    exprs = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names: set[str] = set()
    for expr in exprs:
        name = _exception_name(project, module, expr)
        if name is None:
            return None  # unresolvable clause: assume it catches all
        names.add(name)
    return frozenset(names)


def _exception_name(project: ProjectIndex, module: str,
                    expr: ast.expr) -> str | None:
    """The simple class name an expression denotes, if resolvable."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    qualname = project.class_of(module, expr)
    if qualname is not None:
        return project.classes[qualname].name
    if isinstance(expr, ast.Name) and project.resolve(module, expr.id) is None:
        builtin = getattr(builtins, expr.id, None)
        if isinstance(builtin, type) and issubclass(builtin, BaseException):
            return expr.id
    return None


class _EscapeWalker:
    """One function's escape set under the current fixpoint state."""

    def __init__(self, project: ProjectIndex, hierarchy: _Hierarchy,
                 escapes: dict[str, frozenset[str]], module: str):
        self.project = project
        self.hierarchy = hierarchy
        self.escapes = escapes
        self.module = module

    def block(self, stmts: list[ast.stmt],
              caught: frozenset[str] | None) -> set[str]:
        out: set[str] = set()
        for stmt in stmts:
            out |= self.stmt(stmt, caught)
        return out

    def stmt(self, stmt: ast.stmt,
             caught: frozenset[str] | None) -> set[str]:
        if isinstance(stmt, ast.Try):
            return self._try(stmt, caught)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return set()  # a definition executes nothing user-visible
        out: set[str] = set()
        if isinstance(stmt, ast.Raise):
            out |= self._raised(stmt, caught)
        for part in self._own_exprs(stmt):
            for node in ast.walk(part):
                if isinstance(node, ast.Call):
                    target = self.project.call_targets.get(node)
                    if target is not None:
                        out |= self.escapes.get(target, frozenset())
        for body in (getattr(stmt, "body", None),
                     getattr(stmt, "orelse", None)):
            if isinstance(body, list):
                out |= self.block(body, caught)
        for case in getattr(stmt, "cases", []):
            out |= self.block(case.body, caught)
        return out

    @staticmethod
    def _own_exprs(stmt: ast.stmt) -> list[ast.AST]:
        if isinstance(stmt, (ast.If, ast.While)):
            return [stmt.test]
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return [item.context_expr for item in stmt.items]
        return [stmt]

    def _raised(self, stmt: ast.Raise,
                caught: frozenset[str] | None) -> set[str]:
        if stmt.exc is None:
            # Bare re-raise: whatever the enclosing handler caught.
            return set(caught) if caught is not None else set()
        name = _exception_name(self.project, self.module, stmt.exc)
        if name is None:
            return set()
        return {name}

    def _try(self, stmt: ast.Try,
             caught: frozenset[str] | None) -> set[str]:
        inner = self.block(stmt.body, caught)
        handled: set[str] = set()
        out: set[str] = set()
        for handler in stmt.handlers:
            names = _handler_names(self.project, self.module, handler)
            taken = {
                exc for exc in inner if self.hierarchy.catches(names, exc)
            }
            handled |= taken
            handler_caught = (
                frozenset(taken) if names is None else names
            )
            out |= self.block(handler.body, handler_caught)
        out |= inner - handled
        # else runs unprotected by the handlers; finally always runs.
        out |= self.block(stmt.orelse, caught)
        out |= self.block(stmt.finalbody, caught)
        return out


class ExceptionEscapeRule:
    id = "exception-flow"
    summary = (
        "public entry points may only let their module's declared "
        "exception policy escape"
    )

    def check_project(
        self, project: ProjectIndex, config: AnalysisConfig
    ) -> Iterator[Violation]:
        hierarchy = _Hierarchy(project)
        escapes = self._fixpoint(project, hierarchy)
        for qualname, function in sorted(project.functions.items()):
            allowed = self._policy_for(function.module, config)
            if allowed is None:
                continue
            if not self._is_entry_point(project, function):
                continue
            permitted = allowed | config.ubiquitous_exceptions
            for exc in sorted(escapes.get(qualname, frozenset())):
                if hierarchy.ancestors(exc) & permitted:
                    continue
                yield Violation(
                    path=project.modules[function.module].ctx.path,
                    line=function.node.lineno, column=0, rule=self.id,
                    message=(
                        f"entry point {qualname!r} may let {exc} escape; "
                        f"the policy for {function.module!r} allows only "
                        f"{', '.join(sorted(allowed))} (catch it, or "
                        "widen DEFAULT_EXCEPTION_POLICY)"
                    ),
                )

    @staticmethod
    def _policy_for(
        module: str, config: AnalysisConfig
    ) -> frozenset[str] | None:
        best: str | None = None
        for prefix in config.exception_policy:
            if module == prefix or module.startswith(prefix + "."):
                if best is None or len(prefix) > len(best):
                    best = prefix
        return config.exception_policy[best] if best else None

    @staticmethod
    def _is_entry_point(project: ProjectIndex,
                        function: FunctionInfo) -> bool:
        if function.name.startswith("_"):
            return False
        if function.cls is not None:
            class_info = project.classes.get(function.cls)
            if class_info is None or class_info.name.startswith("_"):
                return False
        return True

    def _fixpoint(
        self, project: ProjectIndex, hierarchy: _Hierarchy
    ) -> dict[str, frozenset[str]]:
        escapes: dict[str, frozenset[str]] = {
            qualname: frozenset() for qualname in project.functions
        }
        changed = True
        while changed:
            changed = False
            for qualname, function in project.functions.items():
                walker = _EscapeWalker(
                    project, hierarchy, escapes, function.module
                )
                new = frozenset(
                    exc
                    for exc in walker.block(function.node.body, None)
                    if hierarchy.is_exception(exc)
                )
                if new != escapes[qualname]:
                    escapes[qualname] = new
                    changed = True
        return escapes
