"""NodeAccessor: batching, memoization, generation invalidation."""

import pytest

from repro.ordbms.table import ROWID_PSEUDO
from repro.sgml.nodetypes import NodeType
from repro.sgml.parser import parse_xml
from repro.store import XmlStore


@pytest.fixture
def store_with_doc():
    store = XmlStore()
    document = parse_xml(
        "<document>"
        "<section><context>Alpha</context>"
        "<content>alpha text one</content>"
        "<content>alpha text two</content></section>"
        "<section><context>Beta</context>"
        "<content>beta text</content></section>"
        "</document>"
    )
    result = store.store_document(document)
    return store, result


def context_rows(store):
    return [
        row
        for row in store.xml_table.scan()
        if row["NODETYPE"] == int(NodeType.CONTEXT)
    ]


class TestBatching:
    def test_nodes_fetches_missing_rows_in_one_batch(self, store_with_doc):
        store, _ = store_with_doc
        rowids = [row[ROWID_PSEUDO] for row in store.xml_table.scan()]
        accessor = store.new_accessor()
        rows = accessor.nodes(rowids)
        assert [row[ROWID_PSEUDO] for row in rows] == rowids
        assert accessor.stats.batch_fetches == 1
        assert accessor.stats.point_fetches == 0
        assert accessor.stats.rows_fetched == len(rowids)

    def test_nodes_second_call_is_all_cache_hits(self, store_with_doc):
        store, _ = store_with_doc
        rowids = [row[ROWID_PSEUDO] for row in store.xml_table.scan()]
        accessor = store.new_accessor()
        accessor.nodes(rowids)
        accessor.stats.reset()
        accessor.nodes(rowids)
        assert accessor.stats.batch_fetches == 0
        assert accessor.stats.rows_fetched == 0
        assert accessor.stats.cache_hits == len(rowids)

    def test_children_batch_and_memoize(self, store_with_doc):
        store, result = store_with_doc
        accessor = store.new_accessor()
        root = accessor.node(result.root_rowid)
        first = accessor.children(root)
        accessor.stats.reset()
        second = accessor.children(root)
        assert [r[ROWID_PSEUDO] for r in first] == [
            r[ROWID_PSEUDO] for r in second
        ]
        assert accessor.stats.child_lookups == 0
        assert accessor.stats.cache_hits >= 1


class TestMemoization:
    def test_point_fetch_memoized(self, store_with_doc):
        store, result = store_with_doc
        accessor = store.new_accessor()
        accessor.node(result.root_rowid)
        accessor.node(result.root_rowid)
        assert accessor.stats.point_fetches == 1
        assert accessor.stats.cache_hits == 1

    def test_section_text_computed_once(self, store_with_doc):
        store, _ = store_with_doc
        accessor = store.new_accessor()
        alpha = next(
            row
            for row in context_rows(store)
            if accessor.context_title(row) == "Alpha"
        )
        text = accessor.section_text(alpha)
        assert "alpha text one" in text and "alpha text two" in text
        accessor.stats.reset()
        assert accessor.section_text(alpha) == text
        assert accessor.stats.point_fetches == 0
        assert accessor.stats.rows_fetched == 0
        assert accessor.stats.cache_hits == 1

    def test_governing_context_memoized_per_row(self, store_with_doc):
        store, _ = store_with_doc
        accessor = store.new_accessor()
        text_row = next(
            row
            for row in store.xml_table.scan()
            if row["NODEDATA"] == "beta text"
        )
        governing = accessor.governing_context(text_row)
        assert accessor.context_title(governing) == "Beta"
        hops_first = accessor.stats.parent_hops
        assert hops_first > 0
        accessor.stats.reset()
        again = accessor.governing_context(text_row)
        assert again[ROWID_PSEUDO] == governing[ROWID_PSEUDO]
        assert accessor.stats.parent_hops == 0


class TestInvalidation:
    def test_write_invalidates_caches(self, store_with_doc):
        store, result = store_with_doc
        accessor = store.new_accessor()
        accessor.node(result.root_rowid)
        generation_before = accessor.generation
        store.store_text("# New\n\nfresh text\n", "extra.md")
        # The next read notices the generation bump and drops the caches.
        accessor.node(result.root_rowid)
        assert accessor.stats.invalidations == 1
        assert accessor.generation != generation_before
        # The row had to be re-fetched, not served stale.
        assert accessor.stats.point_fetches == 2

    def test_delete_then_read_sees_fresh_state(self, store_with_doc):
        store, _ = store_with_doc
        accessor = store.new_accessor()
        alpha = next(
            row
            for row in context_rows(store)
            if accessor.context_title(row) == "Alpha"
        )
        assert "alpha text one" in accessor.section_text(alpha)
        extra = store.store_text("# Extra\n\nmore words\n", "extra.md")
        store.delete_document(extra.doc_id)
        # Two writes happened but the accessor syncs at most once per
        # read boundary: a single invalidation covers both.
        assert "alpha text one" in accessor.section_text(alpha)
        assert accessor.stats.invalidations == 1

    def test_stats_reset_zeroes_every_counter(self, store_with_doc):
        store, result = store_with_doc
        accessor = store.new_accessor()
        accessor.nodes([result.root_rowid])
        accessor.stats.reset()
        assert accessor.stats.batch_fetches == 0
        assert accessor.stats.rows_fetched == 0
        assert accessor.stats.cache_hits == 0
