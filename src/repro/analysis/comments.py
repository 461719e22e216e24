"""Structured comments: suppression pragmas and guarded-by annotations.

A deliberate, permanent exception to a rule is annotated on the
offending line::

    except Exception:  # lint: allow-broad-except(federated rows lack local entries)

The general form is ``# lint: allow-<rule-id>(<reason>)``.  The reason
is mandatory — an empty or missing reason does *not* suppress and is
itself reported (rule id ``bad-pragma``), so suppressions stay
self-documenting.  A pragma suppresses violations of that rule reported
on its own line only.

Mutable module- or class-level state declares who guards it on the
binding's line (or the line directly above)::

    _REGISTRY = MetricsRegistry()  # repro: guarded-by(gil) swapped only by test harnesses before traffic

The ``<lock>`` names a lock attribute, or one of the pseudo-locks ``gil``
(single opcode-level reads/writes the GIL already serializes) and
``import-time`` (populated during import, read-only afterwards).  The
rationale is mandatory like a pragma reason (rule id ``guarded-by``).
The annotations form the audited shared-state inventory that the
``--format json`` report carries as ``guarded_state``.

One :mod:`tokenize` pass finds both, so look-alike text inside string
literals is ignored (this docstring documents the syntax without
declaring it).
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

#: A well-formed pragma: allow-<rule>(<non-empty reason>).
_PRAGMA_RE = re.compile(r"#\s*lint:\s*allow-([a-z0-9-]+)\s*\(([^()]*)\)")
#: A well-formed annotation: guarded-by(<lock>) <non-empty rationale>.
_GUARDED_RE = re.compile(
    r"#\s*repro:\s*guarded-by\(([^()]*)\)\s*(.*)", re.DOTALL
)
#: Anything that *tries* to be one of the two, for malformed detection.
_PRAGMA_ATTEMPT_RE = re.compile(r"#\s*lint:\s*allow-")
_GUARDED_ATTEMPT_RE = re.compile(r"#\s*repro:\s*guarded-by")


@dataclass(frozen=True)
class Pragma:
    """One ``# lint: allow-<rule>(<reason>)`` annotation."""

    rule: str
    reason: str
    line: int

    @property
    def ok(self) -> bool:
        return bool(self.reason.strip())


@dataclass(frozen=True)
class GuardedBy:
    """One guarded-by declaration."""

    lock: str
    rationale: str
    line: int

    @property
    def ok(self) -> bool:
        return bool(self.lock) and bool(self.rationale)


@dataclass
class Comments:
    """Every structured comment in one file, and the lines that failed."""

    pragmas: list[Pragma] = field(default_factory=list)
    malformed_pragma_lines: list[int] = field(default_factory=list)
    guarded: list[GuardedBy] = field(default_factory=list)
    malformed_guard_lines: list[int] = field(default_factory=list)


def scan_comments(source: str) -> Comments:
    """Parse the pragmas and guarded-by annotations out of ``source``.

    A comment carrying ``lint: allow-`` or ``repro: guarded-by`` that
    does not parse as a complete form (unclosed parenthesis, no reason
    form) lands in the matching malformed-line list.
    """
    found = Comments()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return found
    for line, text in comments:
        matches = list(_PRAGMA_RE.finditer(text))
        for match in matches:
            found.pragmas.append(
                Pragma(rule=match.group(1), reason=match.group(2), line=line)
            )
        if _PRAGMA_ATTEMPT_RE.search(text) and not matches:
            found.malformed_pragma_lines.append(line)
        guard = _GUARDED_RE.search(text)
        if guard:
            found.guarded.append(
                GuardedBy(
                    lock=guard.group(1).strip(),
                    rationale=guard.group(2).strip(),
                    line=line,
                )
            )
        elif _GUARDED_ATTEMPT_RE.search(text):
            found.malformed_guard_lines.append(line)
    return found


def guard_for_line(
    annotations: list[GuardedBy], line: int
) -> GuardedBy | None:
    """The declaration covering ``line``: same line, or the line above."""
    for annotation in annotations:
        if annotation.ok and annotation.line in (line, line - 1):
            return annotation
    return None
