"""Information-source adapters.

Each adapter presents one remote repository behind a uniform interface:
declared :class:`~repro.federation.capabilities.Capability` set, a
``native_search`` restricted to those capabilities, and (when the source
allows it) ``fetch_document`` for client-side augmentation.

Adapters provided:

* :class:`NetmarkSource` — a full NETMARK node (wraps an
  :class:`~repro.store.xmlstore.XmlStore`).
* :class:`ContentOnlySource` — a keyword-search-only repository, modelled
  on the NASA Lessons Learned Information Server the paper integrates
  ("this source allows only 'Content search' kinds of queries").
* :class:`StructuredSource` — a record-oriented database (the anomaly
  tracking databases of §3): fielded records, equality/keyword search,
  each record rendered as a section whose context is its key field.

Every adapter counts the native work it performs (`queries_served`,
`documents_served`) so the federation benchmarks can attribute cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import CapabilityError, DocumentNotFoundError
from repro.federation.capabilities import (
    CONTENT_ONLY,
    FULL,
    Capability,
    check_supports,
)
from repro.ordbms.textindex import tokenize
from repro.query.ast import XdbQuery
from repro.query.engine import QueryEngine
from repro.query.results import SectionMatch
from repro.resilience.deadline import Budget
from repro.sgml.serializer import serialize
from repro.store.xmlstore import XmlStore


class InformationSource:
    """Base class: a named, capability-scoped remote repository."""

    def __init__(self, name: str, capabilities: Capability) -> None:
        self.name = name
        self.capabilities = capabilities
        self.queries_served = 0
        self.documents_served = 0

    def native_search(
        self, query: XdbQuery, budget: Budget | None = None
    ) -> list[SectionMatch]:
        """Answer ``query`` with native machinery only.

        Raises :class:`~repro.errors.CapabilityError` if the query needs
        more than this source declares — the router must augment instead.
        ``budget`` carries the *remaining* request deadline (absolute
        expiry on the shared clock): sources check it cooperatively and
        stop — or raise :class:`~repro.errors.QueryTimeoutError` — when
        it runs out mid-search.
        """
        raise NotImplementedError

    def fetch_document(self, file_name: str) -> str:
        """Raw stored content of one document (for augmentation)."""
        raise CapabilityError(
            f"source {self.name!r} does not support document fetch"
        )

    def document_names(self) -> list[str]:
        """Names of all documents this source holds."""
        raise CapabilityError(
            f"source {self.name!r} does not enumerate documents"
        )

    def _count_query(self) -> None:
        self.queries_served += 1


class NetmarkSource(InformationSource):
    """A full NETMARK node: everything runs natively."""

    def __init__(self, name: str, store: XmlStore) -> None:
        super().__init__(name, FULL)
        self.store = store
        self._engine = QueryEngine(store)

    def native_search(
        self, query: XdbQuery, budget: Budget | None = None
    ) -> list[SectionMatch]:
        check_supports(self.capabilities, query, self.name)
        self._count_query()
        attributed: list[SectionMatch] = []
        # One snapshot for the call, nothing left to load after it.
        with self.store.snapshot() as snapshot:
            result = self._engine.execute(query, snapshot, budget)
            for match in result.matches:
                clone = match.with_source(self.name).resolve()
                # Federated answers rank uniformly: local INTENSE boosts
                # are not comparable across repositories, and the router's
                # limit pushdown relies on uniform scores.
                clone.score = 1.0
                attributed.append(clone)
        return attributed

    def fetch_document(self, file_name: str) -> str:
        entry = self.store.lookup_by_name(file_name)
        if entry is None:
            raise DocumentNotFoundError(
                f"{self.name!r} has no document {file_name!r}"
            )
        self.documents_served += 1
        return serialize(self.store.document(entry.doc_id))

    def document_names(self) -> list[str]:
        return [entry.file_name for entry in self.store.documents()]


class ContentOnlySource(InformationSource):
    """A repository whose search box only does keyword search.

    Documents are plain named texts; the native search returns *document
    hits* (name + snippet), exactly what a legacy web search form gives
    back.  Context processing must happen client-side — the augmentation
    path the paper walks through with ``Context=Title&Content=Engine``.
    """

    def __init__(self, name: str, documents: Mapping[str, str] | None = None) -> None:
        super().__init__(name, CONTENT_ONLY)
        self._documents: dict[str, str] = dict(documents or {})

    def native_search(
        self, query: XdbQuery, budget: Budget | None = None
    ) -> list[SectionMatch]:
        check_supports(self.capabilities, query, self.name)
        if query.content is None:  # content-only ⇒ must have content
            raise CapabilityError(
                f"source {self.name!r} answers content searches only"
            )
        self._count_query()
        matches: list[SectionMatch] = []
        for doc_index, (file_name, content) in enumerate(
            sorted(self._documents.items())
        ):
            if budget is not None and not budget.admits(self.name):
                break
            tokens = set(tokenize(content, keep_stopwords=True))
            wanted = [term.lower() for term in query.content.terms]
            if query.content.mode == "any":
                hit = any(term in tokens for term in wanted)
            else:
                # Phrase narrowing is beyond this source; it over-returns
                # conjunctive hits and lets the client refine (the paper's
                # "whatever portions of the query it can process").
                hit = all(term in tokens for term in wanted)
            if hit:
                matches.append(
                    SectionMatch(
                        doc_id=doc_index,
                        file_name=file_name,
                        context=file_name,
                        content=self._snippet(content, wanted),
                        section=None,
                        source=self.name,
                    )
                )
        return matches

    def fetch_document(self, file_name: str) -> str:
        try:
            content = self._documents[file_name]
        except KeyError:
            raise DocumentNotFoundError(
                f"{self.name!r} has no document {file_name!r}"
            ) from None
        self.documents_served += 1
        return content

    def document_names(self) -> list[str]:
        return sorted(self._documents)

    @staticmethod
    def _snippet(content: str, terms: Sequence[str], width: int = 120) -> str:
        lowered = content.lower()
        position = min(
            (lowered.find(term) for term in terms if lowered.find(term) >= 0),
            default=0,
        )
        start = max(0, position - width // 4)
        return " ".join(content[start:start + width].split())


@dataclass(frozen=True)
class Record:
    """One structured record: a key plus named fields."""

    key: str
    fields: tuple[tuple[str, str], ...]

    def as_text(self) -> str:
        return "; ".join(f"{name}: {value}" for name, value in self.fields)


class StructuredSource(InformationSource):
    """A record database (anomaly tracker style).

    Context search maps to the *field name* (``Context=Description``
    returns each record's Description field); content search is keyword
    match across all fields.  Both are native — what the source cannot do
    is phrase search, which the router augments.
    """

    def __init__(self, name: str, records: Sequence[Record] = ()) -> None:
        super().__init__(
            name,
            Capability.CONTENT_SEARCH
            | Capability.CONTEXT_SEARCH
            | Capability.DOCUMENT_FETCH,
        )
        self._records: list[Record] = list(records)

    def add_record(self, record: Record) -> None:
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def native_search(
        self, query: XdbQuery, budget: Budget | None = None
    ) -> list[SectionMatch]:
        check_supports(self.capabilities, query, self.name)
        self._count_query()
        matches: list[SectionMatch] = []
        for index, record in enumerate(self._records):
            if budget is not None and not budget.admits(self.name):
                break
            sections = self._matching_sections(record, query)
            for context, content in sections:
                matches.append(
                    SectionMatch(
                        doc_id=index,
                        file_name=record.key,
                        context=context,
                        content=content,
                        section=None,
                        source=self.name,
                    )
                )
        return matches

    def _matching_sections(
        self, record: Record, query: XdbQuery
    ) -> list[tuple[str, str]]:
        field_map = {name.lower(): (name, value) for name, value in record.fields}
        candidates: list[tuple[str, str]]
        if query.context is not None:
            candidates = []
            for phrase in query.context.phrases:
                found = field_map.get(phrase.lower())
                if found is not None:
                    candidates.append(found)
        else:
            candidates = [(record.key, record.as_text())]
        if query.content is None:
            return candidates
        wanted = [term.lower() for term in query.content.terms]
        kept = []
        for context, content in candidates:
            # Content scope: the record as a whole (a record is the
            # retrieval unit, like a document).
            tokens = set(tokenize(record.as_text(), keep_stopwords=True))
            if query.content.mode == "any":
                ok = any(term in tokens for term in wanted)
            else:
                ok = all(term in tokens for term in wanted)
            if ok:
                kept.append((context, content))
        return kept

    def fetch_document(self, file_name: str) -> str:
        for record in self._records:
            if record.key == file_name:
                self.documents_served += 1
                lines = [f"# {record.key}"] + [
                    f"## {name}\n{value}" for name, value in record.fields
                ]
                return "\n".join(lines) + "\n"
        raise DocumentNotFoundError(
            f"{self.name!r} has no record {file_name!r}"
        )

    def document_names(self) -> list[str]:
        return [record.key for record in self._records]


@dataclass
class SourceStats:
    """Read-only snapshot used by the federation benchmarks."""

    name: str
    queries_served: int
    documents_served: int

    @classmethod
    def of(cls, source: InformationSource) -> "SourceStats":
        return cls(source.name, source.queries_served, source.documents_served)
