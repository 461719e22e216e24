"""Inverted text index: tokenisation, term/phrase/prefix lookup, removal."""

from collections import defaultdict
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordbms.rowid import RowId
from repro.ordbms.textindex import STOPWORDS, TextIndex, tokenize


def rid(n: int) -> RowId:
    return RowId(n)


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Shuttle Engine") == ["shuttle", "engine"]

    def test_drops_stopwords_by_default(self):
        assert tokenize("the engine of the shuttle") == ["engine", "shuttle"]

    def test_keep_stopwords_preserves_positions(self):
        assert tokenize("the engine", keep_stopwords=True) == ["the", "engine"]

    def test_punctuation_is_boundary(self):
        assert tokenize("budget, travel; equipment.") == [
            "budget", "travel", "equipment",
        ]

    def test_numbers_and_apostrophes(self):
        assert tokenize("FY04 doesn't") == ["fy04", "doesn't"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \n\t ") == []

    def test_stopword_list_is_lowercase(self):
        assert all(word == word.lower() for word in STOPWORDS)


@pytest.fixture
def index():
    idx = TextIndex("t")
    idx.add(rid(1), "The shuttle engine failed during ascent")
    idx.add(rid(2), "Budget review for the engine program")
    idx.add(rid(3), "Travel budget shrinking this year")
    return idx


class TestLookup:
    def test_single_term(self, index):
        assert index.lookup_all(["engine"]) == {rid(1), rid(2)}

    def test_case_insensitive(self, index):
        assert index.lookup_all(["ENGINE"]) == {rid(1), rid(2)}

    def test_missing_term(self, index):
        assert index.lookup_all(["nozzle"]) == set()

    def test_lookup_all_conjunctive(self, index):
        assert index.lookup_all(["engine", "budget"]) == {rid(2)}
        assert index.lookup_all(["engine", "nozzle"]) == set()

    def test_lookup_all_empty_terms(self, index):
        assert index.lookup_all([]) == set()


class TestPhrase:
    def test_adjacent_phrase(self, index):
        assert index.lookup_phrase("shuttle engine") == {rid(1)}

    def test_phrase_requires_order(self, index):
        assert index.lookup_phrase("engine shuttle") == set()

    def test_phrase_across_stopwords(self, index):
        # "review for the engine": stopwords participate in positions.
        assert index.lookup_phrase("review for the engine") == {rid(2)}

    def test_single_word_phrase(self, index):
        assert index.lookup_phrase("budget") == {rid(2), rid(3)}

    def test_empty_phrase(self, index):
        assert index.lookup_phrase("") == set()

    def test_phrase_missing_word(self, index):
        assert index.lookup_phrase("shuttle nozzle") == set()

    def test_a_repeated_token_needs_two_positions_in_a_row(self):
        idx = TextIndex()
        idx.add(rid(1), "budget budget review")
        idx.add(rid(2), "budget review budget")
        idx.add(rid(3), "budget")
        assert idx.lookup_phrase("budget budget") == {rid(1)}
        assert idx.lookup_phrase("budget budget budget") == set()
        assert idx.lookup_phrase("review budget") == {rid(2)}

    def test_a_stop_word_phrase_matches_at_its_positions(self):
        idx = TextIndex()
        idx.add(rid(1), "Statement of Work")
        idx.add(rid(2), "statement on work of the year")
        idx.add(rid(3), "work of the statement")
        assert idx.lookup_phrase("statement of work") == {rid(1)}
        assert idx.lookup_phrase("of the") == {rid(2), rid(3)}
        assert idx.lookup_phrase("the") == {rid(2), rid(3)}
        assert idx.lookup_phrase("of of") == set()


class TestOneTokenPhrase:
    def test_every_heading_word_of_a_400_document_store(self):
        """A one-token phrase is the token's posting keys, read without the
        positions loop: the rows whose text holds the word, over every
        row and over the heading rows, for each word of every heading."""
        from repro.query.plan import phrase_in
        from repro.store import XmlStore
        from repro.store.accessor import SectionPass
        from repro.workloads import HEADINGS, CorpusSpec, generate_corpus

        store = XmlStore()
        for file in generate_corpus(CorpusSpec(documents=400, seed=2005)):
            store.store_text(file.text, file.name)
        index, table = store.xml_table.text_index_on("NODEDATA"), store.xml_table
        texts = {
            row.rowid: row.NODEDATA for row in table.snapshot_scan(store.new_accessor().lsn)
            if row.NODEDATA and row.rowid in index.facts
        }
        heading_words = set(tokenize(" ".join(HEADINGS), keep_stopwords=True))
        assert len(heading_words) > 20
        for word in heading_words:
            holding = {rowid for rowid, text in texts.items() if phrase_in(word, text)}
            headed = {r for r in holding if SectionPass.is_heading(index.facts[r])}
            assert holding and headed
            assert index.lookup_phrase(word) == holding
            assert index.lookup_phrase(word, headings=True) == headed


class TestHeadingPostings:
    """The rows whose fact the ``heading`` test accepts are posted twice;
    ``lookup_phrase(..., headings=True)`` reads only those."""

    @staticmethod
    def headed(facts):
        idx = TextIndex()
        idx.derive(facts, bool)
        return idx

    def test_only_heading_rows_are_probed(self):
        idx = self.headed({rid(1): True, rid(2): False})
        idx.add(rid(1), "Budget Plan")
        idx.add(rid(2), "the budget plan for the year")
        assert idx.lookup_phrase("budget plan") == {rid(1), rid(2)}
        assert idx.lookup_phrase("budget plan", headings=True) == {rid(1)}
        assert idx.lookup_phrase("year", headings=True) == set()
        assert [entry[1] for entry in idx.signature(headings=True)] == [rid(1), rid(1)]

    def test_a_row_without_a_fact_is_no_heading(self):
        idx = self.headed({})
        idx.add(rid(1), "Budget")
        assert idx.lookup_phrase("budget", headings=True) == set()

    def test_remove_takes_the_heading_postings_too(self):
        idx = self.headed({rid(1): True})
        idx.add(rid(1), "Budget Plan")
        idx.remove(rid(1), "Budget Plan")
        assert idx.signature(headings=True) == () and len(idx) == 0

    def test_derive_takes_them_out_of_the_postings(self):
        idx = TextIndex()
        idx.add(rid(1), "Budget Plan")
        idx.add(rid(2), "budget plan")
        assert idx.lookup_phrase("budget", headings=True) == {rid(1), rid(2)}  # no test
        idx.derive({rid(1): False, rid(2): True}, bool)
        assert idx.lookup_phrase("budget plan", headings=True) == {rid(2)}
        assert idx.signature(headings=True) == (("budget", rid(2), (0,)), ("plan", rid(2), (1,)))


def sectioned(facts):
    """An index carrying ``facts`` of the form ``(sections, heading)``."""
    idx = TextIndex()
    idx.derive(facts, itemgetter(1), itemgetter(0))
    return idx


def inverse(idx):
    """What the members must be: every indexed row under each section
    its fact names — ``sections(fact)`` turned inside out."""
    expected = defaultdict(set)
    for _, rowid, _ in idx.signature():
        fact = idx.facts.get(rowid)
        for section in () if fact is None else fact[0]:
            expected[section].add(rowid)
    return {section: frozenset(rows) for section, rows in expected.items()}


class TestSectionMembers:
    """Per section a fact names, the indexed rows whose fact names it."""

    def test_add_lists_a_row_under_every_section_it_names(self):
        idx = sectioned({rid(1): (("s1", "top"), True), rid(2): (("top",), False)})
        idx.add(rid(1), "Budget")
        idx.add(rid(2), "the budget plan")
        assert idx.members() == inverse(idx) == {
            "s1": {rid(1)}, "top": {rid(1), rid(2)},
        }

    def test_a_row_with_no_text_is_no_member(self):
        idx = sectioned({rid(1): (("s1",), False), rid(2): (("s1",), False)})
        idx.add(rid(1), "")
        idx.add(rid(2), " -- ")
        assert idx.members() == {} and len(idx) == 0

    def test_a_row_with_no_fact_is_no_member(self):
        idx = sectioned({})
        idx.add(rid(1), "budget")
        assert idx.members() == {} and idx.lookup_all(["budget"]) == {rid(1)}

    def test_remove_takes_a_row_out_of_every_section(self):
        idx = sectioned({rid(1): (("s1", "top"), False), rid(2): (("top",), False)})
        idx.add(rid(1), "budget")
        idx.add(rid(2), "plan")
        idx.remove(rid(1), "budget")
        assert idx.members() == inverse(idx) == {"top": {rid(2)}}

    def test_derive_takes_them_out_of_the_postings(self):
        idx = TextIndex()
        idx.add(rid(1), "budget")
        idx.add(rid(2), "plan")
        assert idx.members() == {}  # no facts, no members
        # A fact for a row with no postings names no member.
        idx.derive({rid(1): (("s1",), False), rid(3): (("s1",), False)},
                   itemgetter(1), itemgetter(0))
        assert idx.members() == inverse(idx) == {"s1": {rid(1)}}

    def test_removing_a_heading_row_and_a_body_row_leaves_a_fresh_derive(self):
        """``remove`` reads the heading postings only for heading text;
        what it leaves is what a fresh index over the rest derives."""
        texts = {rid(1): "Budget Plan", rid(2): "the budget for the plan",
                 rid(3): "Risk", rid(4): "risk of the budget"}
        facts = {rid(1): (("b",), True), rid(2): (("b",), False),
                 rid(3): (("r", "b"), True), rid(4): (("r", "b"), False)}
        idx = sectioned(dict(facts))
        for rowid, text in texts.items():
            idx.add(rowid, text)
        for rowid in (rid(1), rid(4)):
            idx.remove(rowid, texts.pop(rowid))
            del facts[rowid]
        fresh = TextIndex()
        for rowid, text in texts.items():
            fresh.add(rowid, text)
        fresh.derive(facts, itemgetter(1), itemgetter(0))
        assert idx.facts == facts
        assert idx.signature() == fresh.signature()
        assert idx.signature(headings=True) == fresh.signature(headings=True)
        assert idx.members() == fresh.members() == {"b": {rid(2), rid(3)}, "r": {rid(3)}}

    @pytest.fixture
    def candidates_index(self):
        """``common`` is in every row, ``rare`` in one; four sections."""
        facts = {rid(n): ((f"s{n}", "top"), False) for n in range(1, 5)}
        idx = sectioned(facts)
        for n in range(1, 5):
            idx.add(rid(n), f"common words {'rare' if n == 2 else ''}")
        return idx

    @pytest.mark.parametrize("token", ["common", "rare", "absent"])
    def test_holding_is_the_same_from_either_side(self, candidates_index, token):
        """Two candidates take the members' side for ``common`` (four
        postings), the postings' side for ``rare`` (one)."""
        walked = set()
        for rowid in candidates_index.lookup_all([token]):
            walked.update(candidates_index.facts[rowid][0])
        for candidates in ({"s1", "s2"}, {"s2", "top", "s3", "s4", "s9"}, set()):
            assert candidates_index.holding(token, candidates, set()) == walked & candidates

    @pytest.mark.parametrize("candidates", [{"s1", "s2"}, {"s1", "s2", "s3", "s4", "s5"}])
    def test_holding_leaves_out_the_skipped_rows(self, candidates_index, candidates):
        assert candidates_index.holding("rare", candidates, {rid(2)}) == set()
        found = candidates_index.holding("common", candidates, {rid(1)})
        assert found == candidates & {"s2", "s3", "s4"}

    @pytest.mark.parametrize("candidates", [{"s2"}, {"s1", "s2", "s3"}])
    def test_a_posting_with_no_fact_names_no_section(self, candidates_index, candidates):
        """From either side: it is no member, and its fact is not there."""
        candidates_index.add(rid(9), "rare")
        assert candidates_index.holding("rare", candidates, set()) == {"s2"}

    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from("abc"), max_size=3, unique=True),
                st.booleans(),
                st.sampled_from(["budget plan", "plan", "", "risk budget"]),
                st.booleans(),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_add_remove_and_derive_keep_the_inverse(self, rows):
        """Rows with generated sections, heading bits and texts, some
        removed again: after each step the members, like the heading
        postings, are what the facts of the indexed rows say."""
        facts = {rid(n): (tuple(sections), heading) for n, (sections, heading, _, _) in enumerate(rows)}
        idx = sectioned(facts)
        for n, (_, _, text, _) in enumerate(rows):
            idx.add(rid(n), text)
            assert idx.members() == inverse(idx)
        for n, (_, _, text, gone) in enumerate(rows):
            if gone and text:
                idx.remove(rid(n), text)
                assert idx.members() == inverse(idx)
        heads = idx.signature(headings=True)
        members = idx.members()
        idx.derive(idx.facts, itemgetter(1), itemgetter(0))
        assert (idx.members(), idx.signature(headings=True)) == (members, heads)


class TestMutation:
    def test_remove_makes_row_unfindable(self, index):
        index.remove(rid(1), "The shuttle engine failed during ascent")
        assert index.lookup_all(["shuttle"]) == set()
        assert index.lookup_all(["engine"]) == {rid(2)}
        assert len(index) == 2

    def test_add_empty_text_is_noop(self):
        idx = TextIndex()
        idx.add(rid(1), "")
        assert len(idx) == 0

    def test_term_count(self, index):
        assert index.term_count > 0
        before = index.term_count
        index.add(rid(9), "zzzuniqueterm")
        assert index.term_count == before + 1

    def test_doc_count_tracks_rows_not_terms(self):
        idx = TextIndex()
        idx.add(rid(1), "alpha beta gamma")
        assert len(idx) == 1

    def test_a_repeated_term_keeps_its_positions_ascending(self):
        idx = TextIndex()
        idx.add(rid(1), "Alpha beta, alpha the gamma ALPHA beta")
        idx.add(rid(2), "beta")
        assert idx.signature() == (
            ("alpha", rid(1), (0, 2, 5)),
            ("beta", rid(1), (1, 6)), ("beta", rid(2), (0,)),
            ("gamma", rid(1), (4,)),
            ("the", rid(1), (3,)),
        )
        assert idx.lookup_phrase("alpha beta") == {rid(1)}

    def test_remove_empties_the_postings(self):
        idx = TextIndex()
        text = "alpha beta alpha alpha gamma"
        idx.add(rid(1), text)
        idx.remove(rid(1), text)
        assert (idx.signature(), idx.term_count, len(idx)) == ((), 0, 0)


class TestProperties:
    @given(
        st.lists(
            st.text(
                alphabet=st.sampled_from("abc XYZ,."), min_size=0, max_size=40
            ),
            max_size=25,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_lookup_agrees_with_tokenize(self, texts):
        idx = TextIndex()
        for position, text in enumerate(texts):
            idx.add(rid(position), text)
        for position, text in enumerate(texts):
            for term in tokenize(text, keep_stopwords=True):
                assert rid(position) in idx.lookup_all([term])

    @given(
        st.lists(
            st.text(alphabet=st.sampled_from("ab c"), min_size=1, max_size=30),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_phrase_lookup_is_the_token_run(self, texts):
        """Every phrase of the rows' own tokens, repeats and stop words
        included, is found exactly where its tokens run consecutively."""
        from repro.query.plan import phrase_in

        idx = TextIndex()
        for position, text in enumerate(texts):
            idx.add(rid(position), text)
        for text in texts:
            tokens = tokenize(text, keep_stopwords=True)
            for start in range(len(tokens)):
                phrase = " ".join(tokens[start:start + 3])
                assert idx.lookup_phrase(phrase) == {
                    rid(position) for position, other in enumerate(texts)
                    if phrase_in(phrase, other)
                }

    @given(
        st.lists(
            st.text(alphabet=st.sampled_from("ab c"), min_size=1, max_size=30),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_add_remove_round_trip(self, texts):
        idx = TextIndex()
        for position, text in enumerate(texts):
            idx.add(rid(position), text)
        for position, text in enumerate(texts):
            idx.remove(rid(position), text)
        assert len(idx) == 0
        assert idx.term_count == 0
