"""The forward read against the hop walk it replaced.

``HopOracle`` is the read path as the paper tells it and as it ran
before: children by their ``PARENTROWID`` in ORDINAL order, a section by
``SIBLINGID`` hops, a DOM by recursion over both, and a row's sections by
a climb to the root.  It trusts only the links.  ``NodeAccessor.subtree``
and the ``compose_*`` functions trust the layout instead — a document's
rows are one ROWID run in document order — and must hand back the same
rows and the same serialized XML, as of now and pinned, from every heap
the store can be in; ``SectionPass`` must say what the climb says.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RowIdError
from repro.ordbms import MemoryLogDevice, storage
from repro.ordbms.wal import encode_checkpoint
from repro.sgml.dom import Element, Text
from repro.sgml.nodetypes import NodeType
from repro.sgml.serializer import serialize
from repro.store import (
    XmlStore,
    check_store,
    compose_document,
    compose_node,
    compose_section,
)
from repro.store.schema import decode_attributes
from tests.store.test_decompose_onepass import (
    SMALL,
    WIDE,
    document,
    load_rolled_back,
    tree_strategy,
)
from tests.store.test_xmlstore import PRE_INDEX_SNAPSHOT


class HopOracle:
    """The hop-based walk, on the links alone: ``PARENTROWID`` up,
    children by ``PARENTROWID`` in ORDINAL order, ``SIBLINGID`` across.
    Rows come through ``accessor``, so the oracle reads as of its LSN."""

    def __init__(self, accessor):
        self.accessor = accessor
        self._documents = {}  # doc id -> its rows as of the LSN

    def parent(self, row):
        above = row.PARENTROWID
        return None if above is None else self.accessor.node(above)

    def next_sibling(self, row):
        beside = row.SIBLINGID
        return None if beside is None else self.accessor.node(beside)

    def children(self, row):
        rows = self._documents.get(row.DOC_ID)
        if rows is None:
            rows = self._documents[row.DOC_ID] = (
                self.accessor.lookup_rows("DOC_ID", row.DOC_ID)
            )
        below = [child for child in rows if child.PARENTROWID == row.rowid]
        return sorted(below, key=lambda child: child.ORDINAL)

    def facts(self, row):
        """``(sections, ancestor, emphasised)`` of a TEXT row, all the way
        to the root (:meth:`climb`)."""
        sections = []
        ancestor = emphasised = None
        for found, above in self.climb(row):
            if self.accessor.is_context(found):
                sections.append(found.rowid)
                if above:
                    ancestor, emphasised = ancestor or found.rowid, emphasised or False
            elif emphasised is None and found.NODETYPE == int(NodeType.INTENSE):
                emphasised = True
        return tuple(sections), ancestor, bool(emphasised)

    def governing(self, row):
        """The first CONTEXT on the climb (None: front matter)."""
        for found, _ in self.climb(row):
            if self.accessor.is_context(found):
                return found
        return None

    def climb(self, row):
        """Bottom-up, one level per hop: the parent (flagged True), then —
        unless the node on the path is itself a CONTEXT, which ends the
        scope before it — the latest CONTEXT sibling preceding it."""
        current = row
        while (parent := self.parent(current)) is not None:
            yield parent, True
            best = None
            for sibling in () if self.accessor.is_context(current) else self.children(parent):
                if sibling.ORDINAL >= current.ORDINAL:
                    break
                if self.accessor.is_context(sibling):
                    best = sibling
            if best is not None:
                yield best, False
            current = parent

    def subtree(self, row):
        result = []
        for child in self.children(row):
            result.append(child)
            result.extend(self.subtree(child))
        return result

    def section_scope(self, context_row):
        scope = []
        sibling = self.next_sibling(context_row)
        while sibling is not None and not self.accessor.is_context(sibling):
            scope.append(sibling)
            scope.extend(self.subtree(sibling))
            sibling = self.next_sibling(sibling)
        return scope

    @staticmethod
    def text_of(rows):
        pieces = [
            (row.NODEDATA or "").strip()
            for row in rows
            if row.NODETYPE == int(NodeType.TEXT) and row.NODEDATA
        ]
        return " ".join(piece for piece in pieces if piece)

    def compose_node(self, row):
        if row.NODETYPE == int(NodeType.TEXT):
            return Text(row.NODEDATA or "")
        element = Element(
            row.NODENAME or "node", decode_attributes(row.ATTRS)
        )
        element.synthetic = row.NODETYPE == int(NodeType.SIMULATION)
        for child_row in self.children(row):
            element.append(self.compose_node(child_row))
        return element

    def compose_section(self, context_row):
        section = Element("section", synthetic=True)
        section.append(self.compose_node(context_row))
        sibling = self.next_sibling(context_row)
        while sibling is not None and not self.accessor.is_context(sibling):
            section.append(self.compose_node(sibling))
            sibling = self.next_sibling(sibling)
        return section

    def compose_document(self, doc_id):
        [root] = [
            row
            for row in self.accessor.lookup_rows("DOC_ID", doc_id)
            if row.PARENTROWID is None
        ]
        return self.compose_node(root)


def assert_reads_agree(store):
    """Every row's facts and subtree, every section, every document:
    forward read and pass == hop walk, through an unheld accessor and
    through a pinned one."""
    assert check_store(store.database).ok
    rows = list(store.xml_table.scan())
    with store.snapshot() as snapshot:
        for pin in (None, snapshot):
            oracle = HopOracle(store.new_accessor(pin))
            accessor = store.new_accessor(pin)
            for row in rows:
                if accessor.is_text(row):
                    for indexed in (True, False):
                        assert accessor.text_facts([row.rowid], indexed) == [
                            oracle.facts(row)
                        ]
                else:
                    assert accessor.governing(row) == (
                        row if accessor.is_context(row) else oracle.governing(row)
                    )
                assert accessor.subtree(row) == oracle.subtree(row)
                assert serialize(compose_node(row, accessor)) == (
                    serialize(oracle.compose_node(row))
                )
                if not accessor.is_context(row):
                    continue
                scope = oracle.section_scope(row)
                assert accessor.section_scope(row) == scope
                assert accessor.subtree(row, siblings=True) == (
                    oracle.subtree(row) + scope
                )
                assert accessor.section_text(row) == oracle.text_of(scope)
                assert accessor.context_title(row) == (
                    oracle.text_of(oracle.subtree(row))
                )
                assert serialize(compose_section(row, accessor)) == (
                    serialize(oracle.compose_section(row))
                )
            for entry in store.documents(pin):
                composed = compose_document(entry.doc_id, accessor)
                assert serialize(composed) == (
                    serialize(oracle.compose_document(entry.doc_id))
                )
    return len(rows)


def now(store):
    """The LSN a read given no snapshot resolves at."""
    return store.database.mvcc.read_lsn()


def context_rows(store):
    return [
        row for row in store.xml_table.scan()
        if row.NODETYPE == int(NodeType.CONTEXT)
    ]


#: Flat HTML shape: headings are siblings of the paragraphs they govern.
FLAT = ("doc", {}, [
    ("h1", {}, ["alpha"]), ("p", {}, ["beta gamma", ("b", {}, ["x"])]), "orbit",
    ("h1", {"id": "two"}, ["orbit", ("b", {}, ["x"])]), ("p", {}, []),
    ("title", {}, []), ("p", {}, ["alpha"]),
])


class TestAgainstTheHopWalk:
    @given(st.lists(tree_strategy, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_generated_doms_read_identically(self, specs):
        store = XmlStore()
        for index, spec in enumerate(specs):
            store.store_document(document(spec, f"d{index}.xml"))
        assert_reads_agree(store)

    def test_block_and_file_boundaries(self, monkeypatch):
        monkeypatch.setattr(storage, "BLOCK_CAPACITY", 4)
        monkeypatch.setattr(storage, "FILE_CAPACITY", 2)
        store = XmlStore()
        for index, spec in enumerate([FLAT, WIDE, FLAT, SMALL]):
            store.store_document(document(spec, f"d{index}.xml"))
        assert assert_reads_agree(store) > 3 * 4 * 2  # runs cross files
        [longest] = [
            store.new_accessor().subtree(row) for row in store.xml_table.scan()
            if row.NODEID == 1
        ]
        assert {row.rowid.file_no for row in longest} >= {0, 1}

    def test_after_a_replace(self):
        """The old run is a row of tombstones, the new one is at the tail."""
        store = XmlStore()
        store.store_text("# Plan\n\nold words\n\n## Risks\n\nnone\n", "plan.md")
        store.store_document(document(FLAT, "between.xml"))
        store.replace_text("# Plan\n\nnew words\n\n## Risks\n\nmany\n", "plan.md")
        assert "TOMB" in store.dump()
        assert_reads_agree(store)
        last = context_rows(store)[-1]
        assert store.new_accessor().section_text(last) == "many"

    def test_after_a_rolled_back_load(self):
        """The last section of the last document runs into tombstones."""
        store = XmlStore()
        store.store_document(document(FLAT, "kept.xml"))
        load_rolled_back(store, WIDE)
        assert store.dump().rstrip().splitlines()[-1].startswith("TOMB")
        assert_reads_agree(store)
        store.store_document(document(FLAT, "next.xml"))
        assert_reads_agree(store)

    def test_last_section_of_the_last_document_ends_at_the_heap_tail(self):
        store = XmlStore()
        store.store_document(document(FLAT, "only.xml"))
        last = context_rows(store)[-1]
        run = store.new_accessor().subtree(last, siblings=True)
        assert run and store.xml_table.next_rowids(1)[0] > run[-1].rowid
        assert list(store.xml_table.rows_after(run[-1].rowid, now(store))) == []
        assert_reads_agree(store)

    def test_context_root_with_no_siblings(self):
        store = XmlStore()
        store.store_document(document(("h1", {}, ["alpha", ("b", {}, ["x"])])))
        store.store_document(document(("title", {}, [])))
        [first, second] = context_rows(store)
        assert first.PARENTROWID is None
        assert store.new_accessor().section_scope(first) == []
        assert store.new_accessor().context_title(first) == "alpha x"
        assert store.new_accessor().subtree(second, siblings=True) == []
        assert_reads_agree(store)

    def test_store_reopened_through_recover(self):
        device = MemoryLogDevice()
        first = XmlStore.open(device)
        first.store_document(document(FLAT, "before.xml"))
        load_rolled_back(first, SMALL)
        first.replace_text("<doc><h1>Plan</h1><p>words</p></doc>", "before.xml")
        reopened = XmlStore.open(device)
        assert reopened.last_recovery is not None
        reopened.store_document(document(FLAT, "after.xml"))
        assert_reads_agree(reopened)
        assert_reads_agree(XmlStore.open(device))

    def test_snapshot_written_before_the_one_pass_loader(self):
        """Rows the old recursive loader laid down are in the same order."""
        restored = XmlStore.restore(PRE_INDEX_SNAPSHOT)
        assert assert_reads_agree(restored) == 12
        device = MemoryLogDevice()
        device.save_checkpoint(encode_checkpoint(0, PRE_INDEX_SNAPSHOT))
        opened = XmlStore.open(device)
        opened.replace_text("# Budget\n\nMore.\n", "memo.md")
        assert_reads_agree(opened)


class TestPinnedRun:
    def test_a_run_stops_at_rows_the_pin_cannot_see(self):
        """A document added after the pin is a run of invisible slots."""
        store = XmlStore()
        store.store_document(document(FLAT, "seen.xml"))
        last = context_rows(store)[-1]
        with store.snapshot() as snapshot:
            pinned = store.new_accessor(snapshot)
            before = pinned.subtree(last, siblings=True)
            store.store_document(document(FLAT, "unseen.xml"))
            assert store.new_accessor(snapshot).subtree(last, siblings=True) == before
            assert list(
                store.xml_table.rows_after(before[-1].rowid, snapshot.lsn)
            ) == []
        assert len(list(
            store.xml_table.rows_after(before[-1].rowid, now(store))
        )) > 0

    def test_a_deleted_document_is_still_whole_under_an_older_pin(self):
        store = XmlStore()
        result = store.store_document(document(FLAT, "doomed.xml"))
        store.store_document(document(SMALL, "kept.xml"))
        with store.snapshot() as snapshot:
            oracle = HopOracle(store.new_accessor(snapshot))
            root = store.new_accessor(snapshot).node(result.root_rowid)
            expected = oracle.subtree(root)
            store.delete_document(result.doc_id)
            pinned = store.new_accessor(snapshot)
            assert pinned.subtree(root) == expected
            assert serialize(
                compose_document(result.doc_id, pinned)
            ) == serialize(oracle.compose_document(result.doc_id))
        with pytest.raises(RowIdError):
            store.new_accessor().node(result.root_rowid)
        with pytest.raises(RowIdError):  # a run has a head, or it is no run
            list(store.xml_table.rows_after(result.root_rowid, now(store)))
