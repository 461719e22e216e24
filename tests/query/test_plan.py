"""Cursor pipeline: limit pushdown, laziness, EXPLAIN row counts.

These tests compile plans directly (``QueryEngine.compile``) so they can
inspect per-operator ``rows_out`` counters and the shared accessor's
work statistics — the proof that ``Limit`` really stops the pull and
that no operator materializes beyond what the limit requires.
"""

import pytest

from repro.query import QueryEngine, parse_query
from repro.store import XmlStore

#: Enough look-alike sections that an eager pipeline would visibly
#: over-walk: every document has a Budget section mentioning travel.
DOC_COUNT = 12


@pytest.fixture
def wide_store() -> XmlStore:
    store = XmlStore()
    for i in range(DOC_COUNT):
        store.store_text(
            f"# Report {i}\n\n"
            "## Budget\n\n"
            f"Travel spending item {i} for the shuttle program.\n\n"
            "## Outlook\n\n"
            "Unrelated closing remarks.\n",
            f"report{i}.md",
        )
    return store


def find_operator(node, name):
    if node.name == name:
        return node
    for child in node.children:
        found = find_operator(child, name)
        if found is not None:
            return found
    return None


def drain(engine, query_string):
    ctx, root = engine.compile(parse_query(query_string))
    matches = list(root.rows())
    return ctx, root, matches


class TestLimitPushdown:
    def test_section_walk_stops_at_limit(self, wide_store):
        engine = QueryEngine(wide_store)
        ctx, root, matches = drain(engine, "Content=travel&limit=3")
        assert len(matches) == 3
        # The blocking lift saw every candidate; everything above it —
        # rank's lazy emission included — flowed only the three rows the
        # limit admitted, so the expensive walk ran exactly three times.
        assert find_operator(root, "governing-lift").rows_out == DOC_COUNT
        assert find_operator(root, "rank").rows_out == 3
        assert find_operator(root, "section-walk").rows_out == 3
        assert find_operator(root, "limit").rows_out == 3
        assert find_operator(root, "materialize").rows_out == 3

    def test_limited_run_walks_fewer_sections(self, wide_store):
        engine = QueryEngine(wide_store)
        full_ctx, _, full = drain(engine, "Content=travel")
        limited_ctx, _, limited = drain(engine, "Content=travel&limit=3")
        assert len(full) == DOC_COUNT
        # Both runs fetch the same hits and ancestors; only the section
        # walks differ, so the limited run must fetch strictly fewer rows.
        assert (
            limited_ctx.accessor.stats.rows_fetched
            < full_ctx.accessor.stats.rows_fetched
        )

    def test_limited_prefix_matches_full_run(self, wide_store):
        engine = QueryEngine(wide_store)
        _, _, full = drain(engine, "Content=travel")
        _, _, limited = drain(engine, "Content=travel&limit=3")
        assert [(m.file_name, m.rowid) for m in limited] == [
            (m.file_name, m.rowid) for m in full[:3]
        ]

    def test_context_query_never_walks_sections(self, wide_store):
        engine = QueryEngine(wide_store)
        ctx, root, matches = drain(engine, "Context=Budget&limit=2")
        assert len(matches) == 2
        assert find_operator(root, "materialize").rows_out == 2
        # A context search tests headings only; section scopes stay
        # untouched until a caller asks a lazy match for its content.
        # The same query with a content test must walk the two sections
        # it admits, and fetches their rows on top.
        walked_ctx, _, _ = drain(
            engine, "Context=Budget&Content=travel&limit=2"
        )
        assert (
            ctx.accessor.stats.rows_fetched
            < walked_ctx.accessor.stats.rows_fetched
        )

    def test_combined_query_respects_limit(self, wide_store):
        engine = QueryEngine(wide_store)
        _, root, matches = drain(engine, "Context=Budget&Content=travel&limit=2")
        assert len(matches) == 2
        assert find_operator(root, "section-walk").rows_out == 2


class TestLazyMaterialization:
    def test_section_resolution_deferred_until_access(self, wide_store):
        engine = QueryEngine(wide_store)
        ctx, _, matches = drain(engine, "Context=Budget&limit=2")
        fetched_before = ctx.accessor.stats.rows_fetched
        match = matches[0]
        assert "Travel spending" in match.content
        assert ctx.accessor.stats.rows_fetched > fetched_before

    def test_lazy_match_survives_source_rebrand(self, wide_store):
        engine = QueryEngine(wide_store)
        _, _, matches = drain(engine, "Context=Budget&limit=1")
        clone = matches[0].with_source("remote-a")
        assert clone.source == "remote-a"
        assert clone.context == matches[0].context
        assert "Travel spending" in clone.content


class TestExplain:
    def test_explain_reports_per_operator_rows(self, wide_store):
        engine = QueryEngine(wide_store)
        document = engine.explain("Content=travel&limit=3")
        plan = document.root
        assert plan.tag == "plan"
        assert plan.attributes["kind"] == "content"
        assert "Content=travel" in plan.attributes["query"]

        def operators(element):
            for child in element.children:
                if getattr(child, "tag", None) == "operator":
                    yield child
                    yield from operators(child)

        by_name = {
            op.attributes["name"]: int(op.attributes["rows"])
            for op in operators(plan)
        }
        assert by_name["governing-lift"] == DOC_COUNT
        assert by_name["rank"] == 3
        assert by_name["section-walk"] == 3
        assert by_name["limit"] == 3
        assert by_name["materialize"] == 3

    def test_explain_matches_execute_counts(self, wide_store):
        engine = QueryEngine(wide_store)
        result = engine.execute("Content=travel&limit=3")
        document = engine.explain("Content=travel&limit=3")
        root_rows = int(
            document.root.children[0].attributes["rows"]
        )
        assert root_rows == len(result.matches) == 3
