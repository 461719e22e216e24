"""Analyzer engine: file contexts, the rule protocol, and the driver.

A :class:`Rule` is a stateless object with an ``id`` and a ``check``
method that walks one file's AST and yields :class:`Violation`\\ s.  The
driver parses each file once into a :class:`FileContext` — AST,
structured comments, the ``repro`` module the path is, and the table of
names its imports bind — so every rule reads those decisions instead of
making them again.  One loop runs a whole analysis: file rules, then the
project index and the project rules, then the one suppression layer
(inline pragmas, each carrying its reason).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator, NamedTuple, Protocol

from repro.analysis.comments import Comments, GuardedBy, scan_comments
from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig


@dataclass(frozen=True, order=True)
class Violation:
    """One rule finding at one source location."""

    path: str
    line: int
    column: int
    rule: str
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.column} "
            f"[{self.rule}] {self.message}"
        )


class Rule(Protocol):
    """The rule protocol: an id, a summary, and an AST check."""

    id: str
    summary: str

    def check(
        self, ctx: "FileContext", config: AnalysisConfig
    ) -> Iterator[Violation]: ...


class ProjectRule(Protocol):
    """A whole-program rule: sees the full project index, not one file.

    Project rules run after every file has been parsed; their findings
    flow through the same pragma suppression as per-file findings (a
    pragma on the reported line suppresses).
    """

    id: str
    summary: str

    def check_project(
        self, project: object, config: AnalysisConfig
    ) -> Iterator[Violation]: ...


class Import(NamedTuple):
    """One name an import statement binds.

    ``import a.b as c`` binds ``c`` to module ``a.b``; a plain
    ``import a.b`` binds only ``a``.  ``from x import y as z`` binds
    ``z`` to symbol ``y`` of module ``x``; a relative module is resolved
    to its absolute name from the file's package.
    """

    name: str
    module: str  # absolute dotted module ("repro.store", "time")
    symbol: str | None  # what is taken from it; None: the module itself
    node: ast.Import | ast.ImportFrom

    @property
    def qualified(self) -> str:
        return f"{self.module}.{self.symbol}" if self.symbol else self.module


@dataclass
class FileContext:
    """Everything a rule may ask about one parsed source file."""

    path: str  # normalized posix path, as reported in violations
    tree: ast.Module
    comments: Comments
    #: The ``repro``-relative module id (``store.accessor``; ``""`` for
    #: the package root), None outside the repro package.
    module: str | None
    #: Every import binding, in walk order (a later one rebinds).
    imports: list[Import]
    #: Bound name -> its binding, the last one winning.
    names: dict[str, Import]

    @property
    def unit(self) -> str | None:
        """The layer unit: the module's first part (``__root__`` for the
        package root), None outside the repro package."""
        if self.module is None:
            return None
        return self.module.partition(".")[0] or "__root__"

    def qualify(self, node: ast.expr) -> str | None:
        """The qualified name a Name/Attribute chain denotes.

        The head is resolved through :attr:`names` (``dt.datetime.now``
        after ``import datetime as dt`` is ``datetime.datetime.now``); an
        unbound bare name is itself (a builtin or a local), and an
        attribute of an unbound name is None.
        """
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, dot, rest = dotted.partition(".")
        bound = self.names.get(head)
        if bound is None:
            return None if rest else head
        return bound.qualified + dot + rest

    def violation(
        self, rule_id: str, node: ast.AST | int, message: str
    ) -> Violation:
        """Build a violation at ``node`` (an AST node or a line number)."""
        if isinstance(node, int):
            line, column = node, 0
        else:
            line = getattr(node, "lineno", 0)
            column = getattr(node, "col_offset", 0)
        return Violation(
            path=self.path, line=line, column=column,
            rule=rule_id, message=message,
        )

    def path_endswith(self, suffix: str) -> bool:
        return self.path == suffix or self.path.endswith("/" + suffix)


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` as text for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def callee_name(call: ast.Call) -> str | None:
    """The name a call calls: ``f`` for ``f()``, ``m`` for ``x.m()``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def walk_scope(scope: ast.AST) -> Iterator[tuple[ast.AST, ast.AST | None]]:
    """``(node, parent)`` from ``scope`` down, not entering nested defs."""
    yield scope, None
    stack: list[ast.AST] = [scope]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield child, node
            stack.append(child)


def module_of(path: str) -> str | None:
    """The dotted ``repro``-relative module id of a path (None outside).

    ``src/repro/store/accessor.py`` -> ``store.accessor``;
    ``src/repro/obs/__init__.py`` -> ``obs``;
    ``src/repro/__init__.py`` -> ``""``.  The last ``repro`` directory
    counts: a checkout under a directory named "repro" must not shift
    every file's identity.
    """
    parts = path.split("/")
    if "repro" not in parts or not parts[-1].endswith(".py"):
        return None
    tail = parts[len(parts) - parts[::-1].index("repro"):]
    tail[-1] = tail[-1][:-3]
    if tail[-1] == "__init__":
        tail.pop()
    return ".".join(tail)


def _import_table(tree: ast.Module, package: str | None) -> list[Import]:
    """Every binding the imports in ``tree`` make, in walk order.

    ``package`` is the repro-relative package relative imports resolve
    from; outside the repro package (None) they bind nothing here.
    """
    table: list[Import] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table.append(Import(alias.asname, alias.name, None, node))
                else:
                    head = alias.name.partition(".")[0]
                    table.append(Import(head, head, None, node))
        elif isinstance(node, ast.ImportFrom):
            if not node.level:
                module = node.module
            elif package is None:
                continue
            else:
                # Level 1 is the package itself; each further dot is one
                # parent up, never above ``repro``.
                parts = ["repro", *package.split(".")] if package else ["repro"]
                del parts[max(1, len(parts) - node.level + 1):]
                module = ".".join(parts)
                if node.module:
                    module += "." + node.module
            table.extend(
                Import(alias.asname or alias.name, module, alias.name, node)
                for alias in node.names
            )
    return table


@dataclass
class AnalysisReport:
    """Outcome of one run: what fired and what a pragma suppressed."""

    violations: list[Violation] = field(default_factory=list)
    pragma_suppressed: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    #: The audited shared-state inventory: every well-formed guarded-by
    #: annotation seen, as (path, annotation) pairs.
    guarded_inventory: list[tuple[str, GuardedBy]] = field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        return not self.violations


# -- parsing ----------------------------------------------------------------


def build_context(source: str, path: str | Path) -> FileContext | None:
    """Parse one file into a context (None when the source won't parse).

    The analyzer does not report syntax errors — the interpreter and the
    test suite already do that with better diagnostics.
    """
    norm = PurePosixPath(Path(path)).as_posix()
    try:
        tree = ast.parse(source, filename=norm)
    except SyntaxError:
        return None
    module = module_of(norm)
    package = module
    if module is not None and not norm.endswith("/__init__.py"):
        package = module.rpartition(".")[0]
    imports = _import_table(tree, package)
    return FileContext(
        path=norm,
        tree=tree,
        comments=scan_comments(source),
        module=module,
        imports=imports,
        names={imp.name: imp for imp in imports},
    )


# -- suppression ------------------------------------------------------------


class _PragmaRule:
    """Framework rule: malformed or reason-less pragmas are violations."""

    id = "bad-pragma"
    summary = (
        "a lint pragma must be '# lint: allow-<rule>(<reason>)' with a "
        "non-empty reason"
    )

    def check(
        self, ctx: FileContext, config: AnalysisConfig
    ) -> Iterator[Violation]:
        for line in ctx.comments.malformed_pragma_lines:
            yield ctx.violation(
                self.id, line,
                "malformed pragma; expected "
                "'# lint: allow-<rule>(<reason>)'",
            )
        for pragma in ctx.comments.pragmas:
            if not pragma.ok:
                yield ctx.violation(
                    self.id, pragma.line,
                    f"pragma allow-{pragma.rule} needs a non-empty reason",
                )


PRAGMA_RULE = _PragmaRule()


def _pragma_suppresses(ctx: FileContext | None, violation: Violation) -> bool:
    return ctx is not None and any(
        pragma.ok
        and pragma.rule == violation.rule
        and pragma.line == violation.line
        for pragma in ctx.comments.pragmas
    )


# -- driver -----------------------------------------------------------------


def _analyze(
    sources: Iterable[tuple[str | Path, str]],
    rules: Iterable[Rule],
    project_rules: Iterable[ProjectRule],
    config: AnalysisConfig,
) -> AnalysisReport:
    """The one loop over ``(path, source)`` pairs: parse, run the file
    rules, build the index and run the project rules, apply pragmas."""
    from repro.analysis.callgraph import build_index

    contexts = [
        ctx for ctx in (build_context(source, path) for path, source in sources)
        if ctx is not None
    ]
    rules, project_rules = [*rules, PRAGMA_RULE], list(project_rules)
    report = AnalysisReport(files_checked=len(contexts))
    found: list[Violation] = []
    for ctx in contexts:
        report.guarded_inventory.extend(
            (ctx.path, annotation)
            for annotation in ctx.comments.guarded
            if annotation.ok
        )
        found.extend(sorted(
            violation for rule in rules for violation in rule.check(ctx, config)
        ))
    if project_rules:
        index = build_index(contexts, config.mutator_methods)
        for rule in project_rules:
            found.extend(sorted(rule.check_project(index, config)))
    by_path = {ctx.path: ctx for ctx in contexts}
    for violation in found:
        if _pragma_suppresses(by_path.get(violation.path), violation):
            report.pragma_suppressed.append(violation)
        else:
            report.violations.append(violation)
    report.violations.sort()
    return report


def analyze_source(
    source: str,
    path: str | Path,
    rules: Iterable[Rule] | None = None,
    config: AnalysisConfig = DEFAULT_CONFIG,
) -> list[Violation]:
    """Analyze in-memory source as if it lived at ``path``.

    Pragmas apply.  This is the fixture-test entry point: the claimed
    ``path`` decides layer identity and path-scoped exemptions.
    """
    if rules is None:
        from repro.analysis.rules import ALL_RULES as rules
    return _analyze([(path, source)], rules, (), config).violations


def analyze_project_sources(
    sources: dict[str, str],
    rules: Iterable[Rule] = (),
    project_rules: Iterable[ProjectRule] = (),
    config: AnalysisConfig = DEFAULT_CONFIG,
) -> list[Violation]:
    """Analyze a virtual multi-file project held in memory.

    ``sources`` maps claimed paths to source text.  Pragmas apply.  This
    is the fixture-test entry point for project rules — the per-file
    counterpart is :func:`analyze_source`.
    """
    return _analyze(
        sorted(sources.items()), rules, project_rules, config
    ).violations


def analyze_paths(
    paths: Iterable[str | Path],
    rules: Iterable[Rule] | None = None,
    config: AnalysisConfig = DEFAULT_CONFIG,
    project_rules: Iterable[ProjectRule] | None = None,
) -> AnalysisReport:
    """Run the full rule suite over files and directories."""
    from repro.analysis.rules import ALL_PROJECT_RULES, ALL_RULES

    return _analyze(
        _read_python_files(paths),
        ALL_RULES if rules is None else rules,
        ALL_PROJECT_RULES if project_rules is None else project_rules,
        config,
    )


def _read_python_files(
    paths: Iterable[str | Path],
) -> Iterator[tuple[Path, str]]:
    """``(path, source)`` for each ``.py`` file named or under a directory."""
    for path in map(Path, paths):
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file_path in files:
            if file_path.suffix != ".py":
                continue
            try:
                yield file_path, file_path.read_text()
            except (OSError, UnicodeDecodeError):
                continue
