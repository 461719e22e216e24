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
    def test_add_remove_round_trip(self, texts):
        idx = TextIndex()
        for position, text in enumerate(texts):
            idx.add(rid(position), text)
        for position, text in enumerate(texts):
            idx.remove(rid(position), text)
        assert len(idx) == 0
        assert idx.term_count == 0
