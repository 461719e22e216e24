"""NodeAccessor: batching, memoization, one commit LSN per accessor."""

import pytest

from repro.errors import RowIdError
from repro.sgml.nodetypes import NodeType
from repro.sgml.parser import parse_xml
from repro.store import XmlStore
from repro.store.accessor import joined_text
from tests.store.test_section_run import scope


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
        if row.NODETYPE == int(NodeType.CONTEXT)
    ]


class TestBatching:
    def test_nodes_fetches_missing_rows_in_one_batch(self, store_with_doc):
        store, _ = store_with_doc
        rowids = [row.rowid for row in store.xml_table.scan()]
        accessor = store.new_accessor()
        rows = accessor.nodes(rowids)
        assert [row.rowid for row in rows] == rowids
        assert accessor.stats.batch_fetches == 1
        assert accessor.stats.point_fetches == 0
        assert accessor.stats.rows_fetched == len(rowids)

    def test_nodes_second_call_is_all_cache_hits(self, store_with_doc):
        store, _ = store_with_doc
        rowids = [row.rowid for row in store.xml_table.scan()]
        accessor = store.new_accessor()
        accessor.nodes(rowids)
        accessor.stats.reset()
        accessor.nodes(rowids)
        assert accessor.stats.batch_fetches == 0
        assert accessor.stats.rows_fetched == 0
        assert accessor.stats.cache_hits == len(rowids)


class TestMemoization:
    def test_point_fetch_memoized(self, store_with_doc):
        store, result = store_with_doc
        accessor = store.new_accessor()
        accessor.node(result.root_rowid)
        accessor.node(result.root_rowid)
        assert accessor.stats.point_fetches == 1
        assert accessor.stats.cache_hits == 1

    def test_a_documents_pass_runs_once_per_accessor(self, store_with_doc):
        store, _ = store_with_doc
        accessor = store.new_accessor()
        texts = [row for row in store.xml_table.scan() if accessor.is_text(row)]
        first = accessor.text_facts([row.rowid for row in texts], indexed=False)
        governing = [accessor.node(fact[0][0]) for fact in first]
        titles = [accessor.context_title(row) for row in governing]
        assert titles == ["Alpha", "Alpha", "Alpha", "Beta", "Beta"]
        accessor.stats.reset()
        assert accessor.text_facts([texts[-1].rowid], indexed=False) == first[-1:]
        content = accessor.node(texts[-1].PARENTROWID)
        assert accessor.governing(content) == governing[-1]
        # The title comes off the rows the pass read: no forward read.
        assert accessor.context_title(governing[-1]) == "Beta"
        assert accessor.stats.batch_fetches == accessor.stats.rows_fetched == 0


class TestInvalidation:
    """There is none: an accessor is a view at one commit LSN.  A later
    write is seen by a new accessor, not this one."""

    def test_a_write_is_seen_by_a_new_accessor_not_this_one(
        self, store_with_doc
    ):
        store, result = store_with_doc
        with store.snapshot() as snapshot:
            accessor = store.new_accessor(snapshot)
            accessor.node(result.root_rowid)
            extra = store.store_text("# New\n\nfresh text\n", "extra.md")
            # Same LSN, same cached row, and a probe that misses the
            # new document: nothing was dropped, nothing re-fetched.
            accessor.node(result.root_rowid)
            assert accessor.lsn == snapshot.lsn
            assert accessor.stats.point_fetches == 1
            assert accessor.stats.cache_hits == 1
            with pytest.raises(RowIdError):
                accessor.document(extra.doc_id)
        later = store.new_accessor()
        assert later.lsn > accessor.lsn
        assert later.document_of(later.node(extra.root_rowid)) == (extra.root_rowid, extra.doc_id)
        assert later.document(extra.doc_id)[0].rowid == extra.root_rowid

    def test_a_delete_is_seen_by_a_new_accessor_not_this_one(
        self, store_with_doc
    ):
        store, result = store_with_doc
        with store.snapshot() as snapshot:
            accessor = store.new_accessor(snapshot)
            alpha = next(
                row
                for row in context_rows(store)
                if accessor.context_title(row) == "Alpha"
            )
            store.delete_document(result.doc_id)
            # Rows this accessor never fetched still resolve at its LSN.
            assert "alpha text one" in joined_text(scope(accessor, alpha))
            assert accessor.document(result.doc_id)[0].rowid == result.root_rowid
        later = store.new_accessor()
        for read in (lambda: later.document(result.doc_id), lambda: later.node(result.root_rowid)):
            with pytest.raises(RowIdError):
                read()

    def test_without_a_held_pin_the_view_is_exact_until_the_next_commit(
        self, store_with_doc
    ):
        store, result = store_with_doc
        accessor = store.new_accessor()
        root = accessor.node(result.root_rowid)
        last = accessor.run(root)[-1].rowid
        assert accessor.lsn == store.database.mvcc.lsn
        store.delete_document(result.doc_id)
        # Nothing held the history, so the commit reclaimed it: what was
        # fetched stays, the rest of the deleted document is gone — the
        # typed error to its DOC row, a fetch or a forward read.
        assert accessor.node(result.root_rowid) is root
        for read in (
            lambda: accessor.document(result.doc_id),
            lambda: accessor.node(last), lambda: accessor.run(root)[1:],
            lambda: accessor.governing(root),  # its document's pass has no rows
        ):
            with pytest.raises(RowIdError):
                read()

    def test_stats_reset_zeroes_every_counter(self, store_with_doc):
        store, result = store_with_doc
        accessor = store.new_accessor()
        accessor.nodes([result.root_rowid])
        accessor.stats.reset()
        assert accessor.stats.batch_fetches == 0
        assert accessor.stats.rows_fetched == 0
        assert accessor.stats.cache_hits == 0
