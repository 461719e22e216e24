"""Query result model.

A query returns :class:`SectionMatch` objects — one per matched section
(the paper: "the context and content search returns a subsection of the
document where the keyword being searched for occurs").  A
:class:`ResultSet` groups them, remembers the originating query, and
renders the canonical result XML::

    <results query="Context=Budget">
      <result doc="p42.ndoc" source="local">
        <context>Budget</context>
        <content>We request $1.2M ...</content>
      </result>
      ...
    </results>

Matches are **lazy**: the engine constructs them with a loader instead of
materialized strings, and the section title and content text are
resolved on first attribute access (then cached on the match).  Sorting,
limiting and federated routing therefore never pay for section
reconstruction of matches that get cut; only the matches that actually
render resolve.  Loader-backed resolution goes through the
per-query :class:`~repro.store.accessor.NodeAccessor`, so late resolution
reads at the same commit LSN the plan did.

A match has one producer of its ``<result>``, :meth:`SectionMatch.write`:
its events go to the request's :class:`~repro.sgml.serializer.XmlWriter`
(:meth:`ResultSet.write`, no stylesheet; a *fresh* match writes straight
from its rows) or, once, to a :class:`~repro.sgml.dom.TreeWriter`
— the :attr:`SectionMatch.element` the match then owns, never edits and
the result cache keeps.  :meth:`ResultSet.to_xml` *lists* those elements
under a per-request root without adopting them, and the root is their
parent for XPath only (:func:`repro.xslt.xpath.parent_of`).  No tree is
built out of another's nodes: nothing re-parents a kept node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import QueryError
from repro.ordbms import RowId
from repro.sgml.dom import Document, Element, TreeWriter
from repro.sgml.serializer import XmlWriter


#: Unresolved-field sentinel (``None`` is a legal section value).
_UNSET: object = object()


class SectionMatch:
    """One matched section of one document.

    ``section`` is the matched ``<section>`` as a DOM fragment, a facade
    convenience built on first access; ``source`` names the information
    source that produced the match ("local" for the store the query ran
    against; federation fills in databank source names).  ``rowid`` is
    the physical address of the matched CONTEXT row when the match came
    straight off a local store (None for document-level, nodename and
    remote matches).

    Construct either eagerly (``context=``/``content=`` strings, a
    ``section=`` tree or None) or lazily (``loader=``, with ``context()``,
    ``content()`` and ``section()``; optionally ``write_section(writer)``,
    the content a ``<result>`` holds after its ``<context>``, and
    ``publish()`` and ``kept()``); lazy fields resolve once, on first access.
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
        loader: Any = None,
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
            self._context = self._load("context")
        return self._context  # type: ignore[return-value]

    @property
    def content(self) -> str:
        """The matched section's content text (resolved once)."""
        if self._content is _UNSET:
            self._content = self._load("content")
        return self._content  # type: ignore[return-value]

    @property
    def section(self) -> Element | None:
        """The ``<section>`` fragment (resolved once): given, or rebuilt
        by the loader from the match's rows."""
        if self._section is _UNSET:
            self._section = self._load("section")
        return self._section  # type: ignore[return-value]

    def publish(self) -> None:
        """Have a loader with ``publish`` count the rows it has read: a
        lazy field does once it is loaded, :meth:`ResultSet.write` once
        it wrote every match."""
        publish = getattr(self._loader, "publish", None)
        if publish is not None:
            publish()

    def _load(self, field: str, count: bool = True) -> Any:
        """The loader's ``field``, its rows counted as read (:meth:`publish`)
        unless the caller counts them later."""
        if self._loader is None:
            raise QueryError("SectionMatch has neither a value nor a loader for a lazy field")
        value = getattr(self._loader, field)()
        if count:
            self.publish()
        return value

    @property
    def element(self) -> Element:
        """The finished ``<result doc= source=>``: :meth:`write` into a
        :class:`~repro.sgml.dom.TreeWriter`, once; the match's own tree,
        never edited."""
        if self._element is None:
            sink = TreeWriter()
            if self.write(sink):
                self.publish()
            self._element = sink.roots[0]  # type: ignore[assignment]
        return self._element

    def write(self, writer: XmlWriter | TreeWriter) -> bool:
        """Write the ``<result>``: a built :attr:`element` by a walk, else
        ``<context>`` and what the loader's ``write_section`` writes (from
        the rows), the section's children but its ``<context>``, or the
        content text.  True when the loader wrote: the caller counts its
        rows (:meth:`publish`), :meth:`ResultSet.write` after every match."""
        if self._element is not None:
            writer.node(self._element)
            return False
        writer.start("result", {"doc": self.file_name, "source": self.source})
        if self._context is _UNSET:
            self._context = self._load("context", count=False)
        writer.start("context")
        writer.text(self._context)
        writer.end()
        stream = getattr(self._loader, "write_section", None)
        if stream is not None:
            stream(writer)
        elif (section := self.section) is None:
            writer.start("content")
            writer.text(self.content)
            writer.end()
        else:
            for child in section.children:
                if not (isinstance(child, Element) and child.tag == "context"):
                    writer.node(child)
        writer.end()
        return stream is not None

    def resolve(self) -> "SectionMatch":
        """Load and build everything now and let go of the loader; returns
        ``self``.  What the result cache stores: the plan's accessor dies
        with its request and an entry is read by every worker thread, so
        nothing may be left to load or to build once it is published.  A
        loader with ``kept`` leaves what outlives the accessor — the rows a
        section or a ``with_source`` twin is written from."""
        _ = self.content, self.element  # each caches what it loads or builds
        kept = getattr(self._loader, "kept", None)
        self._loader = None if kept is None else kept()
        return self

    def with_source(self, source: str) -> "SectionMatch":
        """A copy attributed to ``source``, preserving laziness; it writes
        its own ``<result>``, which carries the source, from the loader
        they share."""
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
        return list(dict.fromkeys(match.file_name for match in self.matches))

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
        if (envelope := self._partial()) is not None:
            root.attributes["partial"] = "true"
            root.append(envelope)
        # Listed, not adopted: a match's element is shared by every answer
        # that replays the match, so no root may become its parent.
        root.children.extend([match.element for match in self.matches])
        return Document(root, name="results.xml")

    def write(self, writer: XmlWriter, stamps: dict[str, str]) -> None:
        """Stream :meth:`to_xml`'s XML, transport ``stamps`` after the
        root's attributes; the caller writes its footer and ends the root."""
        envelope = self._partial()
        partial = {} if envelope is None else {"partial": "true"}
        writer.start("results", {"query": self.query_string} | partial | stamps)
        if envelope is not None:
            writer.node(envelope)
        fresh = [match for match in self.matches if match.write(writer)]
        for match in fresh:
            match.publish()  # a bump per accessor: the rest find nothing new

    def _partial(self) -> Element | None:
        """An incomplete answer's ``<partial>``: what is missing, and why."""
        if not (self.partial or self.deadline_expired):
            return None
        envelope = Element("partial")
        if self.deadline_expired:
            envelope.make_child("deadline-expired").append_text(
                "deadline expired; results are a truncated prefix"
            )
        for name in sorted(self.source_errors):
            unreachable = envelope.make_child("unreachable", source=name)
            unreachable.append_text(self.source_errors[name])
        return envelope
