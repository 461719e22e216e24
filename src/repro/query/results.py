"""Query result model.

A query returns :class:`SectionMatch` objects — one per matched section
(the paper: "the context and content search returns a subsection of the
document where the keyword being searched for occurs").  A
:class:`ResultSet` groups them, remembers the originating query, and
renders the canonical result XML that the XSLT composition step (Fig 7)
consumes::

    <results query="Context=Budget">
      <result doc="p42.ndoc" source="local">
        <context>Budget</context>
        <content>We request $1.2M ...</content>
      </result>
      ...
    </results>

Matches are **lazy**: the engine constructs them with a loader instead of
materialized strings, and the section title, content text and DOM
fragment are resolved on first attribute access (then cached on the
match).  Sorting, limiting and federated routing therefore never pay for
section reconstruction of matches that get cut; only the matches that
actually render resolve.  Loader-backed resolution goes through the
per-query :class:`~repro.store.accessor.NodeAccessor`, so late resolution
reads at the same commit LSN the plan did.

A match owns its finished ``<result>`` (:attr:`SectionMatch.element`),
built once and never edited; :meth:`ResultSet.to_xml` *lists* those
elements under a per-request root without adopting them, and the root is
their parent for XPath only (:func:`repro.xslt.xpath.parent_of`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.errors import QueryError
from repro.ordbms import RowId
from repro.sgml.dom import Document, Element


class SectionLoader(Protocol):
    """Deferred resolution hooks for one matched section."""

    def context(self) -> str: ...

    def content(self) -> str: ...

    def section(self) -> Element | None: ...


#: Unresolved-field sentinel (``None`` is a legal section value).
_UNSET: object = object()


class SectionMatch:
    """One matched section of one document.

    ``section`` is the reconstructed DOM fragment (a ``<section>``
    element); ``source`` names the information source that produced the
    match ("local" for the store the query ran against; federation fills
    in databank source names).  ``rowid`` is the physical address of the
    matched CONTEXT row when the match came straight off a local store
    (None for document-level, nodename and remote matches).

    Construct either eagerly (``context=``/``content=`` strings) or
    lazily (``loader=``); lazy fields resolve once, on first access.
    """

    __slots__ = (
        "doc_id", "file_name", "source", "score", "rowid",
        "_context", "_content", "_section", "_loader", "_element",
    )

    def __init__(
        self,
        doc_id: int,
        file_name: str,
        context: str | object = _UNSET,
        content: str | object = _UNSET,
        section: Element | None | object = _UNSET,
        source: str = "local",
        score: float = 1.0,
        loader: SectionLoader | None = None,
        rowid: RowId | None = None,
    ) -> None:
        self.doc_id = doc_id
        self.file_name = file_name
        self.source = source
        self.score = score
        self.rowid = rowid
        self._loader = loader
        self._context = context
        self._content = content
        if section is _UNSET and loader is None:
            section = None
        self._section = section
        self._element: Element | None = None

    # -- lazy fields --------------------------------------------------------

    @property
    def context(self) -> str:
        """The matched section's heading (resolved once)."""
        if self._context is _UNSET:
            self._context = self._require_loader().context()
        return self._context  # type: ignore[return-value]

    @property
    def content(self) -> str:
        """The matched section's content text (resolved once)."""
        if self._content is _UNSET:
            self._content = self._require_loader().content()
        return self._content  # type: ignore[return-value]

    @property
    def section(self) -> Element | None:
        """The reconstructed ``<section>`` fragment (resolved once)."""
        if self._section is _UNSET:
            self._section = self._require_loader().section()
        return self._section  # type: ignore[return-value]

    def _require_loader(self) -> SectionLoader:
        if self._loader is None:
            raise QueryError(
                "SectionMatch has neither a value nor a loader for a "
                "lazy field"
            )
        return self._loader

    @property
    def element(self) -> Element:
        """The finished ``<result doc= source=>``, built once, never edited.
        The section's content children hang under it — ``..`` and
        ``result/content`` patterns see a plain tree — and stay listed in
        ``section.children``: one tree per match, not two."""
        if self._element is None:
            result = Element(
                "result", {"doc": self.file_name, "source": self.source}
            )
            result.make_child("context").append_text(self.context)
            section = self.section
            if section is None:
                result.make_child("content").append_text(self.content)
            else:
                if any(node.parent is not section for node in section.children):
                    # A ``with_source`` twin hung them under its own
                    # ``<result>`` already, and that one may be published.
                    section = Element.clone(section)
                for child in section.children:
                    if not (isinstance(child, Element) and child.tag == "context"):
                        child.parent = result
                        result.children.append(child)
            self._element = result
        return self._element

    def resolve(self) -> "SectionMatch":
        """Load and build everything now and let go of the loader; returns
        ``self``.  What the result cache stores: the plan's accessor dies
        with its request and an entry is read by every worker thread, so
        nothing may be left to load or to build once it is published."""
        _ = self.content, self.element  # each caches what it loads or builds
        self._loader = None
        return self

    def with_source(self, source: str) -> "SectionMatch":
        """A copy attributed to ``source``, preserving laziness; it builds
        its own ``<result>``, which carries the source."""
        return SectionMatch(
            self.doc_id, self.file_name, self._context, self._content,
            self._section, source, self.score, self._loader, self.rowid,
        )

    # -- value semantics ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SectionMatch):
            return NotImplemented
        return (
            self.doc_id == other.doc_id
            and self.file_name == other.file_name
            and self.source == other.source
            and self.score == other.score
            and self.context == other.context
            and self.content == other.content
        )

    def __repr__(self) -> str:
        return (
            f"SectionMatch(doc_id={self.doc_id!r}, "
            f"file_name={self.file_name!r}, source={self.source!r}, "
            f"score={self.score!r})"
        )

    def brief(self, width: int = 60) -> str:
        """One-line human summary used by examples and the CLI surface."""
        text = self.content if len(self.content) <= width else (
            self.content[: width - 3] + "..."
        )
        return f"[{self.source}:{self.file_name}] {self.context}: {text}"


@dataclass
class ResultSet:
    """All matches for one query, in stable (source, doc, context) order.

    ``partial`` marks a federated answer that is missing at least one
    source's contribution; ``source_errors`` carries the per-source
    error summary so callers (and the HTTP ``<partial>`` envelope) can
    say *which* sources are unreachable and why.  ``deadline_expired``
    marks a ``Partial=1`` answer truncated by its deadline — the matches
    are a correct prefix of the full answer, not a complete one.  A
    complete answer has ``partial=False`` and renders byte-identically
    to the pre-resilience format.

    ``cached`` marks a replay from the result cache: *transport metadata*
    :meth:`to_xml` never renders, so a replay stays byte-identical to a
    fresh answer; the HTTP layer stamps its envelope (``cached="true"``).
    """

    query_string: str
    matches: list[SectionMatch] = field(default_factory=list)
    partial: bool = False
    source_errors: dict[str, str] = field(default_factory=dict)
    deadline_expired: bool = False
    cached: bool = False

    def __len__(self) -> int:
        return len(self.matches)

    def __iter__(self):
        return iter(self.matches)

    def __getitem__(self, index: int) -> SectionMatch:
        return self.matches[index]

    def __bool__(self) -> bool:
        return bool(self.matches)

    def add(self, match: SectionMatch) -> None:
        self.matches.append(match)

    def extend(self, matches: list[SectionMatch]) -> None:
        self.matches.extend(matches)

    def documents(self) -> list[str]:
        """Distinct matched document names, preserving first-hit order.

        Deduplication is O(1) per match; the first occurrence of a name
        pins its position, later hits of the same document are dropped.
        """
        seen: set[str] = set()
        ordered: list[str] = []
        for match in self.matches:
            if match.file_name not in seen:
                seen.add(match.file_name)
                ordered.append(match.file_name)
        return ordered

    def ranked(self) -> list[SectionMatch]:
        """Matches by descending relevance score (stable within ties)."""
        return sorted(
            self.matches,
            key=lambda match: (-match.score, match.file_name, match.context),
        )

    def limited(self, limit: int | None) -> "ResultSet":
        """The best ``limit`` matches, in the original presentation order.

        Contract: limiting always happens on **ranked** order — the kept
        matches are the ``limit`` highest-scored ones (ties broken by
        the stable result order, i.e. document order for engine output
        and (source, doc, context) order for federated output).  The
        survivors are then *presented* in their original relative order,
        so a limited result renders exactly like the full result minus
        the dropped tail.  With uniform scores this is precisely "the
        first ``limit`` matches"; with INTENSE-boosted scores it never
        drops a higher-scored match in favour of a lower-scored one.
        """
        if limit is None or len(self.matches) <= limit:
            return self
        by_rank = sorted(range(len(self.matches)), key=lambda index: -self.matches[index].score)
        keep = set(by_rank[:limit])
        return ResultSet(
            self.query_string,
            [match for index, match in enumerate(self.matches) if index in keep],
            partial=self.partial,
            source_errors=dict(self.source_errors),
            deadline_expired=self.deadline_expired,
            cached=self.cached,
        )

    def to_xml(self) -> Document:
        """Render the canonical ``<results>`` tree for XSLT composition."""
        root = Element("results", {"query": self.query_string})
        if self.partial or self.deadline_expired:
            root.attributes["partial"] = "true"
            envelope = root.make_child("partial")
            if self.deadline_expired:
                truncated = envelope.make_child("deadline-expired")
                truncated.append_text(
                    "deadline expired; results are a truncated prefix"
                )
            for name in sorted(self.source_errors):
                unreachable = envelope.make_child("unreachable", source=name)
                unreachable.append_text(self.source_errors[name])
        # Listed, not adopted: a match's element is shared by every answer
        # that replays the match, so no root may become its parent.
        root.children.extend([match.element for match in self.matches])
        return Document(root, name="results.xml")
