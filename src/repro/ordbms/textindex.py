"""Inverted full-text index — the Oracle Text substitute.

The paper evaluates context/content queries "by first querying the text
index for the search key"; this module provides that index.  It maps terms
to postings of ``(rowid, positions)`` so the query layer can do:

* single-term lookup (``Content=Shuttle``),
* conjunctive multi-term lookup,
* exact phrase lookup (``Context=Technology Gap``) using term positions,
  over every row or the *heading postings* alone: the rows whose fact
  (:meth:`~repro.ordbms.table.Table.derive_facts`) the store's test calls
  heading text, all a ``Context=`` probe can keep;
* the sections holding a token (:meth:`TextIndex.holding`), from the
  smaller side: the token's postings' facts, or the *section members* —
  per section a fact names, the indexed rows whose fact names it — of
  each candidate section.

Heading postings and members are derived like the facts: never logged
or dumped, gone with their row, rebuilt with it.

Tokenisation is lower-cased word extraction with a small stopword list;
both are deliberately simple and, critically, *identical* for indexing and
querying so the two sides can never disagree.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Any, Callable, Iterable

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

    Stopwords are dropped unless ``keep_stopwords`` is true: phrase
    matching needs every word's original position, so it keeps them.
    """
    words = [word.lower() for word in _WORD_RE.findall(text)]
    if keep_stopwords:
        return words
    return [word for word in words if word not in STOPWORDS]


class TextIndex:
    """An inverted index over one text column of one table."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        # term -> {rowid -> [positions]}: every row's, and the heading rows'
        self._postings: dict[str, dict[RowId, list[int]]] = defaultdict(dict)
        self._headings: dict[str, dict[RowId, list[int]]] = defaultdict(dict)
        #: section -> the indexed rows whose fact names it (:attr:`sections`),
        #: in the order they came: a list, small, and taken away in order
        self._members: dict[Any, list[RowId]] = defaultdict(list)
        self._doc_count = 0
        #: rowid -> one value per indexed *row*, shared by all its terms:
        #: what the table's streaming pass said of it when it was written
        #: (:meth:`~repro.ordbms.table.Table.derive_facts`; None: no pass).
        self.facts: dict[RowId, Any] | None = None
        self.heading: Callable[[Any], Any] | None = None  # does a fact make heading text?
        self.sections: Callable[[Any], Iterable[Any]] | None = None  # which sections it names

    def __len__(self) -> int:
        """Number of indexed rows."""
        return self._doc_count

    @property
    def term_count(self) -> int:
        return len(self._postings)

    # -- mutation -----------------------------------------------------------

    def add(self, rowid: RowId, text: str) -> None:
        """Index ``text`` under ``rowid`` (not indexed yet) — in the
        heading postings too, and among the members of the sections,
        when its fact, already there, says so.

        All tokens (including stopwords) are recorded with their positions
        so phrase queries can match across stopwords; the plain term lookup
        path simply never asks for a stopword.  A term's positions are
        gathered first, so each distinct term costs one postings lookup.
        """
        at: dict[str, list[int]] = {}
        for position, term in enumerate(tokenize(text, keep_stopwords=True)):
            if term in at:
                at[term].append(position)
            else:
                at[term] = [position]
        postings = self._postings
        for term, positions in at.items():
            postings[term][rowid] = positions
        if at:
            self._doc_count += 1
            fact = None if self.facts is None else self.facts.get(rowid)
            if fact is None:
                return
            if self.heading and self.heading(fact):
                for term, positions in at.items():
                    self._headings[term][rowid] = positions
            for section in self.sections(fact) if self.sections else ():
                self._members[section].append(rowid)

    def remove(self, rowid: RowId, text: str) -> None:
        """Remove a previously indexed ``(rowid, text)`` pair, and its
        fact: the heading postings are probed only when it says heading
        text (or is gone), the members of the sections it names."""
        fact = self.facts.pop(rowid, None) if self.facts else None
        tokens = set(tokenize(text, keep_stopwords=True))
        heading = fact is None or self.heading is not None and self.heading(fact)
        removed = False
        for postings in (self._postings, self._headings) if heading else (self._postings,):
            for term in tokens:
                by_row = postings.get(term)
                if by_row and rowid in by_row:
                    del by_row[rowid]
                    removed = True
                    if not by_row:
                        del postings[term]
        if removed:
            self._doc_count -= 1
        for section in self.sections(fact) if fact is not None and self.sections else ():
            members = self._members.get(section)
            if members is not None and rowid in members:
                members.remove(rowid)
                if not members:
                    del self._members[section]

    def derive(
        self, facts: dict[RowId, Any], heading: Callable[[Any], Any] | None,
        sections: Callable[[Any], Iterable[Any]] | None = None,
    ) -> None:
        """Carry ``facts`` and the ``heading`` and ``sections`` tests from
        now on, and take the heading postings and the section members
        afresh out of the postings."""
        self.facts, self.heading, self.sections = facts, heading, sections
        heads = {rowid for rowid, fact in facts.items() if heading(fact)} if heading else set()
        self._headings = defaultdict(dict)
        for term, by_row in self._postings.items() if heads else ():
            for rowid in heads.intersection(by_row):
                self._headings[term][rowid] = by_row[rowid]
        self._members = defaultdict(list)
        if sections:
            for rowid in sorted(set().union(*self._postings.values()).intersection(facts)):
                for section in sections(facts[rowid]):
                    self._members[section].append(rowid)

    # -- queries --------------------------------------------------------------

    def lookup_all(self, terms: Iterable[str]) -> set[RowId]:
        """ROWIDs containing *every* term (conjunctive, case-insensitive)."""
        obs.inc("repro_ordbms_textindex_lookups_total", kind="all")
        rows = [self._postings.get(term.lower(), {}) for term in terms]
        return set(rows[0]).intersection(*rows[1:]) if rows else set()

    def lookup_phrase(self, phrase: str, headings: bool = False) -> set[RowId]:
        """ROWIDs whose text contains ``phrase`` as consecutive tokens —
        with ``headings``, of the heading rows (given a :attr:`heading`)."""
        obs.inc("repro_ordbms_textindex_lookups_total", kind="phrase")
        postings = self._headings if headings and self.heading else self._postings
        maps = [postings.get(term, {}) for term in tokenize(phrase, keep_stopwords=True)]
        if not maps or not all(maps):
            return set()
        if len(maps) == 1:  # one token: every row holding it
            return set(maps[0])
        first, rest = maps[0], list(enumerate(maps[1:], 1))
        # Positions lists are short: a membership test reads one directly.
        matches: set[RowId] = set()
        for rowid in set(first).intersection(*maps[1:]):
            for start in first[rowid]:
                for offset, by_row in rest:
                    if start + offset not in by_row[rowid]:
                        break
                else:
                    matches.add(rowid)
                    break
        return matches

    def holding(self, token: str, candidates: set[Any], skip: set[RowId]) -> set[Any]:
        """The ``candidates`` — sections the facts name — holding ``token``
        in an indexed row outside ``skip`` whose fact names them, from the
        smaller side: a token with no more postings than candidates reads
        its postings' facts, any other tests each candidate's members
        against its postings.  Needs :attr:`sections`; counts nothing."""
        by_row = self._postings.get(token, {})
        rows = by_row.keys() - skip if skip else by_row.keys()
        if len(by_row) > len(candidates):
            disjoint, members = rows.isdisjoint, self._members.get
            return {s for s in candidates if not disjoint(members(s, ()))}
        facts, sections, found = self.facts, self.sections, set()
        for rowid in rows:
            if rowid in facts:
                found.update(sections(facts[rowid]))
        return found & candidates

    def signature(self, headings: bool = False) -> tuple[tuple[str, RowId, tuple[int, ...]], ...]:
        """Canonical content signature of the postings (with ``headings``,
        of the heading postings), for index-agreement checks.

        Two indexes built over the same rows produce equal signatures
        regardless of insertion order; ``store.fsck`` compares a freshly
        rebuilt index against the live one to detect drift.
        """
        postings = self._headings if headings else self._postings
        return tuple(
            (term, rowid, tuple(positions))
            for term in sorted(postings)
            for rowid, positions in sorted(postings[term].items())
        )

    def members(self) -> dict[Any, frozenset[RowId]]:
        """The section members, section by section — a copy, for the
        same checks."""
        return {section: frozenset(rows) for section, rows in self._members.items()}
