"""Analyzer engine: file contexts, the rule protocol, and the driver.

A :class:`Rule` is a stateless object with an ``id`` and a ``check``
method that walks one file's AST and yields :class:`Violation`\\ s.  The
driver parses each file once into a :class:`FileContext` (source, AST,
structured comments, layer unit) and funnels every rule's findings
through the one suppression layer: inline pragmas, each carrying its
reason.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator, Protocol

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


@dataclass
class FileContext:
    """Everything a rule may ask about one parsed source file."""

    path: str  # normalized posix path, as reported in violations
    source: str
    tree: ast.Module
    lines: list[str]
    comments: Comments
    unit: str | None  # repro layer unit, None outside the repro package

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


def module_id_of(path: str) -> str | None:
    """The dotted ``repro``-relative module id of a path (None outside).

    ``src/repro/store/accessor.py`` -> ``store.accessor``;
    ``src/repro/obs/__init__.py`` -> ``obs``;
    ``src/repro/netmark.py`` -> ``netmark``.
    """
    parts = path.replace("\\", "/").split("/")
    if "repro" not in parts:
        return None
    tail = parts[len(parts) - 1 - parts[::-1].index("repro") + 1:]
    if not tail or not tail[-1].endswith(".py"):
        return None
    if tail[-1] == "__init__.py":
        tail = tail[:-1]
    else:
        tail = tail[:-1] + [tail[-1][:-3]]
    return ".".join(tail) or None


def unit_of(path: str) -> str | None:
    """The ``repro`` layer unit a path belongs to (None if outside).

    ``src/repro/ordbms/table.py`` -> ``ordbms``;
    ``src/repro/netmark.py`` -> ``netmark``;
    ``src/repro/__init__.py`` -> ``__root__``.
    """
    parts = PurePosixPath(path).parts
    if "repro" not in parts:
        return None
    # Last occurrence: a checkout under a directory named "repro" must
    # not shift every file's layer identity.
    index = len(parts) - 1 - parts[::-1].index("repro")
    below = parts[index + 1:]
    if not below:
        return None
    if len(below) == 1:
        stem = PurePosixPath(below[0]).stem
        return "__root__" if stem == "__init__" else stem
    return below[0]


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
    return FileContext(
        path=norm,
        source=source,
        tree=tree,
        lines=source.splitlines(),
        comments=scan_comments(source),
        unit=unit_of(norm),
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


def _pragma_suppresses(ctx: FileContext, violation: Violation) -> bool:
    return any(
        pragma.ok
        and pragma.rule == violation.rule
        and pragma.line == violation.line
        for pragma in ctx.comments.pragmas
    )


# -- driver -----------------------------------------------------------------


def _iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def analyze_context(
    ctx: FileContext,
    rules: Iterable[Rule],
    config: AnalysisConfig = DEFAULT_CONFIG,
) -> list[Violation]:
    """All raw findings for one file (pragmas not yet applied)."""
    found: list[Violation] = []
    for rule in (*rules, PRAGMA_RULE):
        found.extend(rule.check(ctx, config))
    return sorted(found)


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
        from repro.analysis.rules import ALL_RULES

        rules = ALL_RULES
    ctx = build_context(source, path)
    if ctx is None:
        return []
    return [
        violation
        for violation in analyze_context(ctx, rules, config)
        if not _pragma_suppresses(ctx, violation)
    ]


def _funnel(
    report: AnalysisReport,
    ctx: FileContext,
    violations: Iterable[Violation],
) -> None:
    """Route raw findings through pragma suppression."""
    for violation in violations:
        if _pragma_suppresses(ctx, violation):
            report.pragma_suppressed.append(violation)
        else:
            report.violations.append(violation)


def _run_project_rules(
    report: AnalysisReport,
    contexts: list[FileContext],
    project_rules: Iterable[ProjectRule],
    config: AnalysisConfig,
) -> None:
    from repro.analysis.callgraph import build_index

    project_rules = list(project_rules)
    if not project_rules:
        return
    index = build_index(contexts, config.mutator_methods)
    by_path = {ctx.path: ctx for ctx in contexts}
    for rule in project_rules:
        for violation in sorted(rule.check_project(index, config)):
            ctx = by_path.get(violation.path)
            if ctx is None:
                report.violations.append(violation)
                continue
            _funnel(report, ctx, [violation])


def analyze_paths(
    paths: Iterable[str | Path],
    rules: Iterable[Rule] | None = None,
    config: AnalysisConfig = DEFAULT_CONFIG,
    project_rules: Iterable[ProjectRule] | None = None,
) -> AnalysisReport:
    """Run the full rule suite over files and directories."""
    if rules is None:
        from repro.analysis.rules import ALL_RULES

        rules = ALL_RULES
    if project_rules is None:
        from repro.analysis.rules import ALL_PROJECT_RULES

        project_rules = ALL_PROJECT_RULES
    rules = list(rules)
    report = AnalysisReport()
    contexts: list[FileContext] = []
    for file_path in _iter_python_files(paths):
        try:
            source = file_path.read_text()
        except (OSError, UnicodeDecodeError):
            continue
        ctx = build_context(source, file_path)
        if ctx is None:
            continue
        contexts.append(ctx)
        report.files_checked += 1
        report.guarded_inventory.extend(
            (ctx.path, annotation)
            for annotation in ctx.comments.guarded
            if annotation.ok
        )
        _funnel(report, ctx, analyze_context(ctx, rules, config))
    _run_project_rules(report, contexts, project_rules, config)
    report.violations.sort()
    return report


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
    report = AnalysisReport()
    contexts: list[FileContext] = []
    for path, source in sorted(sources.items()):
        ctx = build_context(source, path)
        if ctx is None:
            continue
        contexts.append(ctx)
        _funnel(report, ctx, analyze_context(ctx, list(rules), config))
    _run_project_rules(report, contexts, project_rules, config)
    report.violations.sort()
    return report.violations
