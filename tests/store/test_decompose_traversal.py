"""Decomposition rows and ROWID traversal semantics (§2.1.4).

Every read goes through the store's one :class:`NodeAccessor`; the links
themselves are followed by the test-side hop walk (``HopOracle``).
"""

import pytest

from repro.sgml.nodetypes import NodeType
from repro.sgml.parser import parse_xml
from repro.store import XML_TABLE, XmlStore
from tests.store.test_section_run import HopOracle


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


def hops(store):
    return HopOracle(store.new_accessor())


def governing(store, row):
    """The governing CONTEXT of a TEXT row, by the facts it carries."""
    accessor = store.new_accessor()
    [(sections, _, _)] = accessor.text_facts([row.rowid])
    return accessor.node(sections[0]) if sections else None


def classify_counts(database, doc_id):
    """Histogram of node types for one document."""
    counts = {}
    for row in database.table(XML_TABLE).lookup("DOC_ID", doc_id):
        node_type = NodeType(row.NODETYPE)
        counts[node_type] = counts.get(node_type, 0) + 1
    return counts


def text_rows(store, needle):
    return [
        row
        for row in store.xml_table.scan()
        if row.NODETYPE == int(NodeType.TEXT)
        and row.NODEDATA and needle in row.NODEDATA
    ]


class TestDecomposition:
    def test_node_count_matches_tree(self, store_with_doc):
        store, result = store_with_doc
        # document + 2*section + 2*context + 3*content + 5 text = 13
        assert result.node_count == 13
        assert store.node_count == 13

    def test_root_has_no_parent(self, store_with_doc):
        store, result = store_with_doc
        root = store.new_accessor().node(result.root_rowid)
        assert root.PARENTROWID is None
        assert root.NODENAME == "document"

    def test_parent_rowids_consistent(self, store_with_doc):
        store, result = store_with_doc
        for row in store.xml_table.scan():
            parent = hops(store).parent(row)
            if parent is not None:
                assert parent.NODEID == row.PARENTNODEID

    def test_sibling_chain_terminates_and_orders(self, store_with_doc):
        store, result = store_with_doc
        root = store.new_accessor().node(result.root_rowid)
        first, second = hops(store).children(root)
        assert hops(store).next_sibling(first).NODEID == second.NODEID
        assert hops(store).next_sibling(second) is None

    def test_node_types_recorded(self, store_with_doc):
        store, result = store_with_doc
        counts = classify_counts(store.database, result.doc_id)
        assert counts[NodeType.CONTEXT] == 2
        assert counts[NodeType.TEXT] == 5
        assert counts[NodeType.SIMULATION] == 2  # the <section> wrappers

    def test_children_sorted_by_ordinal(self, store_with_doc):
        store, result = store_with_doc
        root = store.new_accessor().node(result.root_rowid)
        sections = hops(store).children(root)
        titles = [
            store.new_accessor().context_title(hops(store).children(s)[0])
            for s in sections
        ]
        assert titles == ["Alpha", "Beta"]


class TestTraversal:
    def test_governing_context_of_content_text(self, store_with_doc):
        store, _ = store_with_doc
        [row] = text_rows(store, "beta text")
        context = governing(store, row)
        assert store.new_accessor().context_title(context) == "Beta"

    def test_governing_context_stops_at_own_section(self, store_with_doc):
        store, _ = store_with_doc
        [row] = text_rows(store, "alpha text one")
        context = governing(store, row)
        assert store.new_accessor().context_title(context) == "Alpha"

    def test_heading_text_has_context_ancestor(self, store_with_doc):
        store, _ = store_with_doc
        [row] = text_rows(store, "Alpha")
        parent = hops(store).parent(row)
        assert parent.NODETYPE == int(NodeType.CONTEXT)

    def test_section_scope_excludes_next_section(self, store_with_doc):
        store, _ = store_with_doc
        [alpha_heading] = text_rows(store, "Alpha")
        context = hops(store).parent(alpha_heading)
        text = store.new_accessor().section_text(context)
        assert "alpha text one" in text and "alpha text two" in text
        assert "beta" not in text

    def test_scope_rowids_are_section_rows(self, store_with_doc):
        store, _ = store_with_doc
        [alpha_heading] = text_rows(store, "Alpha")
        context = hops(store).parent(alpha_heading)
        rowids = {
            row.rowid for row in store.new_accessor().section_scope(context)
        }
        [content_row] = text_rows(store, "alpha text one")
        assert content_row.rowid in rowids

    def test_flat_html_sibling_contexts(self):
        # h2 headings as siblings of paragraphs (no section wrappers).
        store = XmlStore()
        document = parse_xml(
            "<body><h2>First</h2><p>one</p><p>two</p>"
            "<h2>Second</h2><p>three</p></body>"
        )
        store.store_document(document)
        [row] = text_rows(store, "two")
        context = governing(store, row)
        assert store.new_accessor().context_title(context) == "First"
        [row3] = text_rows(store, "three")
        context3 = governing(store, row3)
        assert store.new_accessor().context_title(context3) == "Second"

    def test_flat_html_scope_stops_at_next_heading(self):
        store = XmlStore()
        document = parse_xml(
            "<body><h2>First</h2><p>one</p>"
            "<h2>Second</h2><p>two</p></body>"
        )
        store.store_document(document)
        [heading] = text_rows(store, "First")
        context = hops(store).parent(heading)
        assert store.new_accessor().section_text(context) == "one"

    def test_front_matter_has_no_context(self):
        store = XmlStore()
        document = parse_xml("<body><p>preamble</p><h2>H</h2></body>")
        store.store_document(document)
        [row] = text_rows(store, "preamble")
        assert governing(store, row) is None

    def test_scope_of_multiple_documents_isolated(self, store_with_doc):
        store, _ = store_with_doc
        second = parse_xml(
            "<document><section><context>Alpha</context>"
            "<content>other document text</content></section></document>"
        )
        store.store_document(second)
        rows = text_rows(store, "alpha text one")
        context = governing(store, rows[0])
        text = store.new_accessor().section_text(context)
        assert "other document" not in text
