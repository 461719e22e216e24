"""Inverted text index: tokenisation, term/phrase/prefix lookup, removal."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordbms.rowid import RowId
from repro.ordbms.textindex import STOPWORDS, TextIndex, tokenize


def rid(n: int) -> RowId:
    return RowId(0, 0, n)


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
        assert index.lookup("engine") == {rid(1), rid(2)}

    def test_case_insensitive(self, index):
        assert index.lookup("ENGINE") == {rid(1), rid(2)}

    def test_missing_term(self, index):
        assert index.lookup("nozzle") == set()

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


class TestMutation:
    def test_remove_makes_row_unfindable(self, index):
        index.remove(rid(1), "The shuttle engine failed during ascent")
        assert index.lookup("shuttle") == set()
        assert index.lookup("engine") == {rid(2)}
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
                assert rid(position) in idx.lookup(term)

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
