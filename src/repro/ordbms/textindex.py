"""Inverted full-text index — the Oracle Text substitute.

The paper evaluates context/content queries "by first querying the text
index for the search key"; this module provides that index.  It maps terms
to postings of ``(rowid, positions)`` so the query layer can do:

* single-term lookup (``Content=Shuttle``),
* conjunctive multi-term lookup,
* exact phrase lookup (``Context=Technology Gap``) using term positions.

Tokenisation is lower-cased word extraction with a small stopword list;
both are deliberately simple and, critically, *identical* for indexing and
querying so the two sides can never disagree.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Any, Iterable

from repro import obs
from repro.ordbms.rowid import RowId

_WORD_RE = re.compile(r"[A-Za-z0-9]+(?:'[A-Za-z]+)?")

#: Terms too common to be useful search keys.  Small on purpose: context
#: headings are short and dropping too much would lose phrases like
#: "Statement of Work".
STOPWORDS = frozenset(
    {"a", "an", "and", "are", "as", "at", "be", "by", "in", "is", "it",
     "of", "on", "or", "the", "to", "was", "were", "with"}
)


def tokenize(text: str, keep_stopwords: bool = False) -> list[str]:
    """Split ``text`` into lower-case index terms.

    Stopwords are *kept* with a ``None``-free placeholder semantics when
    ``keep_stopwords`` is true — phrase matching needs the original
    positions, so phrase tokenisation keeps everything.
    """
    words = [match.group(0).lower() for match in _WORD_RE.finditer(text)]
    if keep_stopwords:
        return words
    return [word for word in words if word not in STOPWORDS]


class TextIndex:
    """An inverted index over one text column of one table."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        # term -> {rowid -> [positions]}
        self._postings: dict[str, dict[RowId, list[int]]] = defaultdict(dict)
        self._doc_count = 0
        #: rowid -> one value per indexed *row*, shared by all its terms:
        #: what the table's streaming pass said of it when it was written
        #: (:meth:`~repro.ordbms.table.Table.derive_facts`; None: no pass).
        self.facts: dict[RowId, Any] | None = None

    def __len__(self) -> int:
        """Number of indexed rows."""
        return self._doc_count

    @property
    def term_count(self) -> int:
        return len(self._postings)

    # -- mutation -----------------------------------------------------------

    def add(self, rowid: RowId, text: str) -> None:
        """Index ``text`` under ``rowid``.

        All tokens (including stopwords) are recorded with their positions
        so phrase queries can match across stopwords; the plain term lookup
        path simply never asks for a stopword.
        """
        tokens = tokenize(text, keep_stopwords=True)
        if not tokens:
            return
        added = False
        for position, term in enumerate(tokens):
            by_row = self._postings[term]
            if rowid not in by_row:
                by_row[rowid] = []
                added = True
            by_row[rowid].append(position)
        if added:
            self._doc_count += 1

    def remove(self, rowid: RowId, text: str) -> None:
        """Remove a previously indexed ``(rowid, text)`` pair."""
        tokens = set(tokenize(text, keep_stopwords=True))
        if self.facts:
            self.facts.pop(rowid, None)
        removed = False
        for term in tokens:
            by_row = self._postings.get(term)
            if by_row and rowid in by_row:
                del by_row[rowid]
                removed = True
                if not by_row:
                    del self._postings[term]
        if removed:
            self._doc_count -= 1

    # -- queries --------------------------------------------------------------

    def _rows(self, term: str) -> set[RowId]:
        return set(self._postings.get(term.lower(), ()))

    def lookup(self, term: str) -> set[RowId]:
        """ROWIDs whose text contains ``term`` (case-insensitive)."""
        obs.inc("repro_ordbms_textindex_lookups_total", kind="term")
        return self._rows(term)

    def lookup_all(self, terms: Iterable[str]) -> set[RowId]:
        """ROWIDs containing *every* term (conjunctive)."""
        obs.inc("repro_ordbms_textindex_lookups_total", kind="all")
        result: set[RowId] | None = None
        for term in terms:
            postings = self._rows(term)
            result = postings if result is None else result & postings
            if not result:
                return set()
        return result if result is not None else set()

    def lookup_phrase(self, phrase: str) -> set[RowId]:
        """ROWIDs whose text contains ``phrase`` as consecutive tokens."""
        obs.inc("repro_ordbms_textindex_lookups_total", kind="phrase")
        tokens = tokenize(phrase, keep_stopwords=True)
        if not tokens:
            return set()
        if len(tokens) == 1:
            return self._rows(tokens[0])
        candidate_rows: set[RowId] = set(self._postings.get(tokens[0], ()))
        for term in tokens[1:]:
            by_row = self._postings.get(term)
            if not by_row:
                return set()
            candidate_rows &= set(by_row)
        if not candidate_rows:
            return set()
        matches: set[RowId] = set()
        first = self._postings[tokens[0]]
        for rowid in candidate_rows:
            starts = first[rowid]
            for start in starts:
                if all(
                    start + offset in self._position_set(tokens[offset], rowid)
                    for offset in range(1, len(tokens))
                ):
                    matches.add(rowid)
                    break
        return matches

    def signature(self) -> tuple[tuple[str, RowId, tuple[int, ...]], ...]:
        """Canonical content signature, for index-agreement checks.

        Two indexes built over the same rows produce equal signatures
        regardless of insertion order; ``store.fsck`` compares a freshly
        rebuilt index against the live one to detect drift.
        """
        return tuple(
            (term, rowid, tuple(positions))
            for term in sorted(self._postings)
            for rowid, positions in sorted(self._postings[term].items())
        )

    # -- internals --------------------------------------------------------------

    def _position_set(self, term: str, rowid: RowId) -> frozenset[int]:
        positions = self._postings.get(term, {}).get(rowid)
        return frozenset(positions) if positions else frozenset()
