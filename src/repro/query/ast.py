"""XDB Query abstract syntax.

An XDB query (paper §2.1.3) is a small thing: an optional *context*
specification, an optional *content* specification, and optional
presentation directives (the XSLT stylesheet, the target databank, a
result limit).  The paper's examples::

    Context=Introduction
    Content=Shuttle
    Context=Technology Gap&Content=Shrinking

Both specifications allow ``|``-separated alternatives, which is how a
NETMARK user spans vocabulary differences across sources ("in NETMARK we
have to specify two Context queries (one for 'Budget' and one for 'Cost
Details')" — §4; the alternative syntax packs them into one request).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import QuerySyntaxError


@dataclass(frozen=True)
class ContextSpec:
    """Match sections whose heading contains one of ``phrases``.

    Matching is case-insensitive token-phrase containment:
    ``Context=Budget`` matches headings "Budget", "Budget Summary" and
    "FY04 Budget", but not "Budgetary".
    """

    phrases: tuple[str, ...]

    def __post_init__(self) -> None:
        cleaned = tuple(phrase.strip() for phrase in self.phrases if phrase.strip())
        if not cleaned:
            raise QuerySyntaxError("context specification has no phrases")
        object.__setattr__(self, "phrases", cleaned)


@dataclass(frozen=True)
class ContentSpec:
    """Match text containing the given terms.

    ``mode`` is ``"all"`` (every term somewhere in the section — default),
    ``"any"`` (at least one), or ``"phrase"`` (the terms consecutively).
    A quoted value (``Content="technology gap"``) parses as phrase mode.
    """

    terms: tuple[str, ...]
    mode: str = "all"

    def __post_init__(self) -> None:
        cleaned = tuple(term.strip() for term in self.terms if term.strip())
        if not cleaned:
            raise QuerySyntaxError("content specification has no terms")
        if self.mode not in {"all", "any", "phrase"}:
            raise QuerySyntaxError(f"unknown content mode {self.mode!r}")
        object.__setattr__(self, "terms", cleaned)

    @property
    def text(self) -> str:
        return " ".join(self.terms)

    @property
    def held(self) -> tuple[str, ...]:
        """What must hold: the phrase as one term, else each term."""
        return (self.text,) if self.mode == "phrase" else self.terms


@dataclass(frozen=True)
class XdbQuery:
    """One parsed XDB request.

    Beyond the paper's Context/Content core, three narrowing filters make
    "full-fledged XML querying" (§2.1.5) concrete:

    * ``nodename`` — match element instances by tag name
      (``Nodename=chapter``); may stand alone or combine with content;
    * ``doc`` — restrict to documents whose file name contains the value;
    * ``format`` — restrict to one source format (``Format=pdf``).

    ``explain`` (``Explain=1``) asks for the *query plan* instead of
    results: the operator tree the engine would execute, annotated with
    observed per-operator row counts.  ``Explain=profile`` additionally
    profiles the run (``profile`` is then also true): each operator
    carries its inclusive cost in deterministic work-unit ticks.
    ``trace`` (``Trace=1``) asks the server to attach the request's span
    tree to the XML envelope.

    ``deadline_ticks`` (``Deadline=N``) bounds how long the request may
    run, in server clock ticks; ``partial_ok`` (``Partial=1``) asks for
    whatever matches were collected by the deadline — rendered with a
    ``<partial>`` envelope — instead of a 504.

    ``cache`` (``Cache=0`` to opt out) lets a request bypass the
    result cache: the answer is always recomputed and
    never stored.  Purely a freshness/benchmarking knob — a cached
    answer is byte-identical by construction, so the default is on.
    """

    context: ContextSpec | None = None
    content: ContentSpec | None = None
    nodename: str | None = None
    doc: str | None = None
    format: str | None = None
    stylesheet: str | None = None
    databank: str | None = None
    limit: int | None = None
    explain: bool = False
    profile: bool = False
    trace: bool = False
    deadline_ticks: int | None = None
    partial_ok: bool = False
    cache: bool = True
    extras: tuple[tuple[str, str], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.context is None and self.content is None and self.nodename is None:
            raise QuerySyntaxError(
                "an XDB query needs a Context, Content or Nodename "
                "specification"
            )
        if self.limit is not None and self.limit <= 0:
            raise QuerySyntaxError("limit must be positive")
        if self.deadline_ticks is not None and self.deadline_ticks <= 0:
            raise QuerySyntaxError("Deadline must be positive")
        if self.nodename is not None:
            normalized = self.nodename.strip().lower()
            if not normalized:
                raise QuerySyntaxError("Nodename value is empty")
            object.__setattr__(self, "nodename", normalized)

    @property
    def kind(self) -> str:
        """``"context"``, ``"content"``, ``"combined"`` or ``"nodename"``."""
        if self.nodename is not None:
            return "nodename"
        if self.context is not None and self.content is not None:
            return "combined"
        return "context" if self.context is not None else "content"
