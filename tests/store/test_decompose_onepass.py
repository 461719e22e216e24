"""The one-pass decomposer against the walk it replaced.

``oracle_load`` is the old recursive loader, kept here as the reference:
it learns a node's next sibling only after that sibling's subtree is in,
and patches ``SIBLINGID`` with an UPDATE.  The one-pass loader must leave
exactly the heap the oracle leaves — same row images at the same ROWIDs —
from any heap tail it can start at.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RowIdError, TypeMismatchError
from repro.ordbms import MemoryLogDevice, storage
from repro.ordbms.table import Table
from repro.sgml.dom import Document, Element, Text
from repro.store import DOC_TABLE, XML_TABLE, XmlStore, check_store
from repro.store.schema import encode_attributes, encode_metadata


def oracle_load(store, document):
    """The recursive back-patching loader, on the store's own id counters."""
    database = store.database
    decomposer = store._decomposer  # noqa: SLF001 - shares the allocators
    doc_id = decomposer._next_doc_id
    decomposer._next_doc_id += 1

    def insert_subtree(node, parent_rowid, parent_nodeid, ordinal):
        node_id = decomposer._next_node_id
        decomposer._next_node_id += 1
        is_element = isinstance(node, Element)
        rowid = database.insert(
            XML_TABLE,
            {
                "NODEID": node_id,
                "DOC_ID": doc_id,
                "PARENTROWID": parent_rowid,
                "PARENTNODEID": parent_nodeid,
                "NODETYPE": int(store.config.classify(node)),
                "NODENAME": node.tag if is_element else None,
                "NODEDATA": None if is_element else node.data,
                "ORDINAL": ordinal,
                "ATTRS": encode_attributes(node.attributes) if is_element else None,
            },
        )
        previous = None
        for child_ordinal, child in enumerate(node.children if is_element else ()):
            child_rowid = insert_subtree(child, rowid, node_id, child_ordinal)
            if previous is not None:
                database.update(XML_TABLE, previous, {"SIBLINGID": child_rowid})
            previous = child_rowid
        return rowid

    with database.begin():
        database.insert(
            DOC_TABLE,
            {
                "DOC_ID": doc_id,
                "FILE_NAME": document.name or f"document-{doc_id}",
                "FILE_DATE": None,
                "FILE_SIZE": None,
                "FORMAT": str(document.metadata.get("format", "unknown")),
                "METADATA": encode_metadata(document.metadata),
            },
        )
        insert_subtree(document.root, None, None, 0)


_TAGS = ("doc", "h1", "p", "b", "section", "title")
_WORDS = st.sampled_from(("alpha", "beta gamma", "orbit", " ", "x"))
_ATTRS = st.dictionaries(st.sampled_from(("id", "class")), _WORDS, max_size=2)


def _element(children):
    return st.tuples(st.sampled_from(_TAGS), _ATTRS, st.lists(children, max_size=4))


#: Nested ``(tag, attrs, children)`` / ``str`` specs: any depth up to the
#: leaf budget, any text/element mix, empty elements included.
_EMPTY = st.tuples(st.sampled_from(_TAGS), _ATTRS, st.just([]))
tree_strategy = _element(st.recursive(_WORDS | _EMPTY, _element, max_leaves=25))


def build(spec):
    """A fresh DOM from a spec (each store gets its own tree)."""
    if isinstance(spec, str):
        return Text(spec)
    tag, attrs, kids = spec
    element = Element(tag, attrs)
    for kid in kids:
        element.append(build(kid))
    return element


def document(spec, name="generated.xml"):
    return Document(build(spec), name=name, metadata={"format": "xml"})


_SECTION = ("section", {"id": "x"}, ["alpha", ("p", {}, ["beta gamma"]), ("b", {}, [])])
WIDE = ("doc", {}, [_SECTION] * 5)
SMALL = ("doc", {}, [("h1", {}, ["orbit"]), ("p", {}, ["alpha", ("b", {}, ["x"])])])


def load_rolled_back(store, spec):
    """Fail ``spec``'s load at its last row (a text node no CLOB column
    takes): the rollback leaves a tombstone in every slot it had filled."""
    doomed = document(spec, "lost.xml")
    doomed.root.append(Text(0))
    with pytest.raises(TypeMismatchError):
        store.store_document(doomed)


def assert_same_heap(one_pass, oracle):
    """Byte-identical row images at identical ROWIDs, tombstones included."""
    assert one_pass.dump() == oracle.dump()
    assert check_store(one_pass.database).ok


def load_both(specs, prepare=lambda store: None):
    one_pass, oracle = XmlStore(), XmlStore()
    for store in (one_pass, oracle):
        prepare(store)
    for index, spec in enumerate(specs):
        one_pass.store_document(document(spec, f"d{index}.xml"))
        oracle_load(oracle, document(spec, f"d{index}.xml"))
    return one_pass, oracle


class TestAgainstTheOracle:
    @given(st.lists(tree_strategy, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_generated_doms_land_identically(self, specs):
        assert_same_heap(*load_both(specs))

    def test_no_row_is_written_twice(self):
        store = XmlStore()
        result = store.store_document(document(WIDE))
        assert store.database.stats.rows_updated == 0
        assert store.database.stats.rows_inserted == result.node_count + 1

    def test_block_and_file_boundaries(self, monkeypatch):
        monkeypatch.setattr(storage, "BLOCK_CAPACITY", 4)
        monkeypatch.setattr(storage, "FILE_CAPACITY", 2)
        one_pass, oracle = load_both([WIDE, SMALL, WIDE])
        assert_same_heap(one_pass, oracle)
        addresses = [row.rowid for row in one_pass.xml_table.scan()]
        assert {rowid.file_no for rowid in addresses} >= {0, 1, 2}
        assert max(rowid.slot_no for rowid in addresses) == 3
        # A document's links cross both kinds of boundary and still resolve.
        rebuilt = one_pass.document(1)
        assert [child.tag for child in rebuilt.root.children] == ["section"] * 5

    def test_tail_of_tombstones_left_by_a_rollback(self):
        def roll_one_back(store):
            store.store_document(document(SMALL, "kept.xml"))
            load_rolled_back(store, WIDE)

        one_pass, oracle = load_both([WIDE, SMALL], prepare=roll_one_back)
        assert "TOMB" in one_pass.dump()
        assert_same_heap(one_pass, oracle)
        assert [entry.file_name for entry in one_pass.documents()] == [
            "kept.xml", "d0.xml", "d1.xml",
        ]

    def test_store_reopened_through_recover(self):
        stores = []
        for load in (XmlStore.store_document, oracle_load):
            device = MemoryLogDevice()
            first = XmlStore.open(device)
            first.store_document(document(WIDE, "before.xml"))
            load_rolled_back(first, SMALL)
            reopened = XmlStore.open(device)
            assert reopened.last_recovery is not None
            load(reopened, document(SMALL, "after.xml"))
            # And once more from the log the reopened store wrote.
            stores.append(XmlStore.open(device))
        assert_same_heap(*stores)


class TestAddressMismatch:
    def test_wrong_reservation_fails_the_load_and_rolls_back(self, monkeypatch):
        store = XmlStore()
        store.store_document(document(SMALL, "kept.xml"))
        before = (store.documents(), store.node_count)
        real = Table.next_rowids
        monkeypatch.setattr(
            Table, "next_rowids", lambda self, count: real(self, count)[::-1]
        )
        with pytest.raises(RowIdError, match="reserved address"):
            store.store_document(document(WIDE, "lost.xml"))
        monkeypatch.undo()
        assert (store.documents(), store.node_count) == before
        assert store.lookup_by_name("lost.xml") is None
        assert check_store(store.database).ok
        assert store.database.stats.transactions_rolled_back == 1
        # The heap tail moved past the undone rows; the next load is sound.
        store.store_document(document(WIDE, "next.xml"))
        assert check_store(store.database).ok
        assert len(store.document(store.lookup_by_name("next.xml").doc_id).root.children) == 5
