"""XDB query evaluation semantics against a loaded store."""

import pytest

from repro.query import QueryEngine, parse_query, phrase_in
from repro.query.ast import ContentSpec, ContextSpec, XdbQuery
from repro.store import XmlStore


@pytest.fixture
def engine(loaded_store):
    return QueryEngine(loaded_store)


class TestPhraseIn:
    def test_token_containment(self):
        assert phrase_in("Budget", "FY04 Budget Summary")
        assert phrase_in("technology gap", "The Technology Gap widens")

    def test_no_substring_matches(self):
        assert not phrase_in("Budget", "Budgetary planning")

    def test_order_matters(self):
        assert not phrase_in("gap technology", "technology gap")

    def test_empty_phrase(self):
        assert not phrase_in("", "anything")


class TestContextSearch:
    def test_exact_heading(self, engine):
        matches = engine.execute("Context=Technology Gap").matches
        assert {match.file_name for match in matches} == {
            "report1.ndoc", "report2.npdf",
        }

    def test_heading_containment(self, engine):
        # "Budget" matches the heading "Budget" in three formats.
        matches = engine.execute("Context=Budget").matches
        assert {match.file_name for match in matches} == {
            "report1.ndoc", "notes.md", "page.html",
        }

    def test_case_insensitive(self, engine):
        assert len(engine.execute("Context=bUdGeT").matches) == 3

    def test_alternatives_union(self, engine):
        matches = engine.execute("Context=Budget|Cost Details").matches
        assert "report2.npdf" in {match.file_name for match in matches}

    def test_spreadsheet_rows_are_contexts(self, engine):
        matches = engine.execute("Context=Travel").matches
        by_file = {match.file_name: match for match in matches}
        assert "FY04: 10,000" in by_file["budget.csv"].content

    def test_content_of_match_is_section_text(self, engine):
        [match] = [
            m for m in engine.execute("Context=Travel").matches
            if m.file_name == "report1.ndoc"
        ]
        assert match.content == "Two conferences per year are planned."

    def test_no_match(self, engine):
        assert len(engine.execute("Context=Nonexistent Heading")) == 0

    def test_heading_word_in_content_does_not_match_context(self, engine):
        # "conferences" appears only in content, never as a heading.
        assert len(engine.execute("Context=conferences")) == 0


class TestContentSearch:
    def test_content_across_formats(self, engine):
        matches = engine.execute("Content=Shuttle").matches
        assert {match.file_name for match in matches} >= {
            "report1.ndoc", "report2.npdf", "notes.md",
        }

    def test_sections_are_the_unit(self, engine):
        matches = engine.execute("Content=shrinking").matches
        contexts = {match.context for match in matches}
        assert "Technology Gap" in contexts

    def test_conjunctive_all_mode(self, engine):
        # "funds" and "engine" occur in the same section of report1 only.
        matches = engine.execute("Content=funds engine").matches
        assert [match.file_name for match in matches] == ["report1.ndoc"]

    def test_conjunction_may_span_nodes_of_one_section(self, loaded_store):
        engine = QueryEngine(loaded_store)
        # "Travel" and "equipment" are in the same Budget section of
        # notes.md but in different content paragraphs.
        matches = engine.execute("Content=travel equipment").matches
        assert "notes.md" in {match.file_name for match in matches}

    def test_any_mode_unions(self, engine):
        all_matches = engine.execute("Content=any:equipment conferences").matches
        assert {match.file_name for match in all_matches} >= {
            "notes.md", "report1.ndoc", "budget.csv",
        }

    def test_phrase_mode(self, engine):
        matches = engine.execute('Content="shuttle engine"').matches
        assert [match.file_name for match in matches] == ["report1.ndoc"]
        assert engine.execute('Content="engine shuttle"').matches == []

    def test_stopwords_ignored_in_all_mode(self, engine):
        matches = engine.execute("Content=the shuttle").matches
        assert matches  # "the" is dropped, "shuttle" hits


class TestCombinedSearch:
    def test_paper_example(self, engine):
        matches = engine.execute(
            "Context=Technology Gap&Content=Shrinking"
        ).matches
        # Both reports have the heading; only report1 says "shrinking"
        # inside that section... report2 says "Nothing here is shrinking".
        assert {match.file_name for match in matches} == {
            "report1.ndoc", "report2.npdf",
        }

    def test_content_scoped_to_context(self, engine):
        # "Shuttle" appears in report2 only under Cost Details, not under
        # Technology Gap — wait, report2's TG section says "shrinking",
        # and its Cost Details says "Shuttle".  Scope check:
        matches = engine.execute("Context=Cost Details&Content=Shuttle").matches
        assert [match.file_name for match in matches] == ["report2.npdf"]
        assert engine.execute("Context=Travel&Content=Shuttle").matches == []

    def test_combined_with_alternatives(self, engine):
        matches = engine.execute(
            "Context=Budget|Cost Details&Content=shuttle"
        ).matches
        assert {match.file_name for match in matches} == {
            "report1.ndoc", "report2.npdf",
        }


class TestLimitsAndOrdering:
    def test_limit_applies(self, engine):
        assert len(engine.execute("Content=Shuttle&limit=2")) == 2

    def test_limit_past_maxsize_admits_every_match(self, engine):
        unlimited = engine.execute("Context=Budget").matches
        huge = engine.execute("Context=Budget&limit=" + "9" * 30).matches
        assert [m.rowid for m in huge] == [m.rowid for m in unlimited]

    def test_results_ordered_by_doc_then_node(self, engine):
        matches = engine.execute("Context=Budget").matches
        doc_ids = [match.doc_id for match in matches]
        assert doc_ids == sorted(doc_ids)

    def test_execute_accepts_parsed_query(self, engine):
        query = parse_query("Context=Budget")
        assert len(engine.execute(query)) == 3


class TestScanFallback:
    def test_scan_agrees_with_index(self, loaded_store):
        indexed = QueryEngine(loaded_store, use_index=True)
        scanning = QueryEngine(loaded_store, use_index=False)
        for query in (
            "Context=Budget",
            "Content=Shuttle",
            "Context=Technology Gap&Content=Shrinking",
            'Content="shuttle engine"',
        ):
            left = [(m.file_name, m.context) for m in indexed.execute(query)]
            right = [(m.file_name, m.context) for m in scanning.execute(query)]
            assert left == right, query


class TestDirectSpecs:
    def test_context_search_api(self, engine):
        matches = engine.execute(XdbQuery(context=ContextSpec(("Overview",))))
        assert [match.file_name for match in matches] == ["notes.md"]

    def test_content_search_api(self, engine):
        matches = engine.execute(XdbQuery(content=ContentSpec(("equipment",))))
        assert {match.file_name for match in matches} == {
            "notes.md", "budget.csv",
        }
