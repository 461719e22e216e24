"""Lock annotations: ``guarded-by`` polices the declarations themselves.

A ``# repro: guarded-by(...)`` annotation is a structured claim; a
malformed one, or one without a lock name or rationale, silently
protects nothing.  Mirroring ``bad-pragma``, this rule makes the broken
annotation itself the finding.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.analysis.config import AnalysisConfig
from repro.analysis.core import FileContext, Violation

#: A lock name: an identifier or dotted path (``gil``, ``self._lock``).
_LOCK_NAME_RE = re.compile(r"^[A-Za-z_][\w.]*$")
#: The pseudo-locks that declare "no lock needed, and here is why".
PSEUDO_LOCKS = frozenset({"gil", "import-time"})


class GuardedByRule:
    id = "guarded-by"
    summary = (
        "a guarded-by annotation must be "
        "'# repro: guarded-by(<lock>) <rationale>'"
    )

    def check(
        self, ctx: FileContext, config: AnalysisConfig
    ) -> Iterator[Violation]:
        for line in ctx.comments.malformed_guard_lines:
            yield ctx.violation(
                self.id, line,
                "malformed annotation; expected "
                "'# repro: guarded-by(<lock>) <rationale>'",
            )
        for annotation in ctx.comments.guarded:
            if not annotation.lock:
                yield ctx.violation(
                    self.id, annotation.line,
                    "guarded-by needs a lock name: a lock attribute, "
                    "'gil', or 'import-time'",
                )
            elif not annotation.rationale:
                yield ctx.violation(
                    self.id, annotation.line,
                    f"guarded-by({annotation.lock}) needs a non-empty "
                    "rationale, like a pragma reason",
                )
            elif (
                annotation.lock not in PSEUDO_LOCKS
                and not _LOCK_NAME_RE.match(annotation.lock)
            ):
                yield ctx.violation(
                    self.id, annotation.line,
                    f"guarded-by lock {annotation.lock!r} is not a lock "
                    "name, 'gil', or 'import-time'",
                )
