"""XmlStore facade: storage, catalog, reconstruction, deletion."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DocumentNotFoundError
from repro.ordbms import MemoryLogDevice
from repro.ordbms.wal import encode_checkpoint
from repro.sgml.dom import Document, Element, Text
from repro.sgml.parser import parse_xml
from repro.query import QueryEngine
from repro.sgml.serializer import serialize
from repro.store import XmlStore, check_store, compose_section


class TestIngestion:
    def test_store_text_routes_by_format(self, store):
        result = store.store_text("# H\n\nbody\n", "n.md")
        assert result.doc_id == 1
        assert store.describe(1).format == "markdown"

    def test_doc_ids_sequential(self, store):
        for index in range(3):
            result = store.store_text(f"# H{index}\nx\n", f"d{index}.md")
            assert result.doc_id == index + 1

    def test_file_date_recorded(self, store):
        moment = dt.datetime(2005, 6, 14, 9, 30)
        store.store_text("# H\nx\n", "d.md", file_date=moment)
        assert store.describe(1).file_date == moment

    def test_metadata_round_trips(self, store):
        store.store_text("{\\ndoc1}\n{\\meta author Bell}\n{\\style Normal}x\n",
                         "d.ndoc")
        assert store.describe(1).metadata["author"] == "Bell"

    def test_failed_conversion_stores_nothing(self, store):
        from repro.errors import SgmlSyntaxError

        with pytest.raises(SgmlSyntaxError):
            store.store_text("<a><b></a>", "bad.xml")
        assert len(store) == 0
        assert store.node_count == 0

    def test_table_count_constant_across_formats(self, loaded_store):
        # The schema-less claim: five formats, still two tables.
        assert loaded_store.table_count == 2


class TestCatalog:
    def test_documents_listing(self, loaded_store):
        names = [entry.file_name for entry in loaded_store.documents()]
        assert names == [
            "report1.ndoc", "report2.npdf", "notes.md", "page.html",
            "budget.csv",
        ]

    def test_describe_unknown_raises(self, store):
        with pytest.raises(DocumentNotFoundError):
            store.describe(99)

    def test_lookup_by_name(self, loaded_store):
        entry = loaded_store.lookup_by_name("notes.md")
        assert entry is not None and entry.format == "markdown"
        assert loaded_store.lookup_by_name("nope.doc") is None


class TestReconstruction:
    def test_document_round_trip(self, store):
        source = (
            "<document><section level=\"2\"><context>T</context>"
            "<content>body <b>bold</b> tail</content></section></document>"
        )
        result = store.store_document(parse_xml(source))
        rebuilt = store.document(result.doc_id)
        assert serialize(rebuilt) == source

    def test_reconstruction_unknown_doc_raises(self, store):
        with pytest.raises(DocumentNotFoundError):
            store.document(5)

    def test_section_reconstruction(self, loaded_store):
        accessor = loaded_store.new_accessor()
        [budget_context] = [
            row
            for row in loaded_store.contexts(1)
            if "Budget" in compose_section(row, accessor).text_content()
        ]
        section = compose_section(budget_context, accessor)
        assert section.tag == "section"
        assert section.find("context") is not None

    names = st.sampled_from(["a", "b", "c", "sect", "x"])
    texts = st.text(alphabet=st.sampled_from("abc &<>\n"), min_size=1, max_size=10)

    @st.composite
    @staticmethod
    def trees(draw, depth=0):
        element = Element(draw(TestReconstruction.names))
        if draw(st.booleans()):
            element.attributes["k"] = draw(TestReconstruction.texts)
        # Adjacent text nodes would merge on serialise/parse, so avoid
        # generating them back-to-back.
        previous_was_text = False
        for _ in range(draw(st.integers(0, 3 if depth < 2 else 0))):
            if draw(st.booleans()) and not previous_was_text:
                element.append(Text(draw(TestReconstruction.texts)))
                previous_was_text = True
            else:
                element.append(draw(TestReconstruction.trees(depth=depth + 1)))  # type: ignore[call-arg]
                previous_was_text = False
        return element

    @given(trees())
    @settings(max_examples=40, deadline=None)
    def test_decompose_compose_round_trip_property(self, tree):
        store = XmlStore()
        result = store.store_document(Document(tree.clone(), name="t"))
        rebuilt = store.document(result.doc_id)
        assert serialize(rebuilt) == serialize(Document(tree))


class TestDeletion:
    def test_delete_removes_all_nodes(self, store):
        result = store.store_text("# H\n\nbody\n", "d.md")
        removed = store.delete_document(result.doc_id)
        assert removed == result.node_count
        assert len(store) == 0
        assert store.node_count == 0

    def test_delete_unknown_raises(self, store):
        with pytest.raises(DocumentNotFoundError):
            store.delete_document(1)

    def test_delete_leaves_other_documents(self, store):
        first = store.store_text("# A\none\n", "a.md")
        second = store.store_text("# B\ntwo\n", "b.md")
        store.delete_document(first.doc_id)
        assert [entry.doc_id for entry in store.documents()] == [second.doc_id]
        assert store.document(second.doc_id).find("context") is not None

    def test_delete_purges_text_index(self, store):
        result = store.store_text("# Target\nuniquemarker here\n", "d.md")
        store.delete_document(result.doc_id)
        index = store.xml_table.text_index_on("NODEDATA")
        assert index.lookup("uniquemarker") == set()


def scan_by_name(store, name):
    """The reference ``lookup_by_name``: first match of a full DOC scan."""
    for row in store.doc_table.scan():
        if row.FILE_NAME == name:
            return store._to_stored(row)
    return None


class TestLookupByNameIndex:
    NAMES = ("a.md", "b.md", "c.md", "never.md")

    def assert_agrees(self, store):
        for name in self.NAMES:
            assert store.lookup_by_name(name) == scan_by_name(store, name)

    def test_schema_indexes_file_name(self, store):
        assert store.doc_table.index_on("FILE_NAME") is not None

    def test_agrees_with_scan_across_duplicates_deletes_and_rollbacks(self, store):
        first = store.store_text("# A\none\n", "a.md")
        store.store_text("# B\ntwo\n", "b.md")
        again = store.store_text("# A\nthree\n", "a.md")  # append mode: same name twice
        self.assert_agrees(store)
        assert store.lookup_by_name("a.md").doc_id == first.doc_id  # the oldest
        database = store.database
        with pytest.raises(KeyError):
            with database.begin():
                for row in store.xml_table.lookup("DOC_ID", first.doc_id):
                    database.delete("XML", row.rowid)
                [row] = store.doc_table.lookup("DOC_ID", first.doc_id)
                database.delete("DOC", row.rowid)
                database.insert("DOC", {"DOC_ID": 99, "FILE_NAME": "c.md"})
                assert store.lookup_by_name("a.md").doc_id == again.doc_id
                assert store.lookup_by_name("c.md").doc_id == 99
                raise KeyError("abort")
        # Rolled back: the restored row is the oldest again, c.md never was.
        self.assert_agrees(store)
        assert store.lookup_by_name("a.md").doc_id == first.doc_id
        store.delete_document(first.doc_id)
        self.assert_agrees(store)
        assert store.lookup_by_name("a.md").doc_id == again.doc_id
        store.replace_text("# A\nfour\n", "a.md")
        self.assert_agrees(store)
        assert store.lookup_by_name("a.md").revision == 2


#: ``XmlStore.dump()`` of a store written before DOC had a FILE_NAME
#: index (its DOC schema line declares no secondary index): memo.md
#: stored twice, plan.md stored and deleted.
PRE_INDEX_SNAPSHOT = (
    "%NETMARK-SNAPSHOT 1\nTABLE DOC\nSCHEMA DOC_ID:INTEGER!,FILE_NAME:VARCHAR!,FILE_DATE:TIMESTAMP,FILE_SIZE:INTEGER,FORMAT:VARCHAR,METADATA:CLOB\tDOC_ID\t-\t-\t-\t-\n"
    "ROW F0.B0.S0 i:1\ts:memo.md\t~\ti:24\ts:markdown\ts:char_size=24;format=markdown;line_count=4\n"
    "ROW F0.B0.S1 i:2\ts:memo.md\t~\ti:24\ts:markdown\ts:char_size=24;format=markdown;line_count=4\n"
    "TOMB F0.B0.S2\n"
    "TABLE XML\nSCHEMA NODEID:INTEGER!,DOC_ID:INTEGER!,PARENTROWID:ROWID,PARENTNODEID:INTEGER,SIBLINGID:ROWID,NODETYPE:INTEGER!,NODENAME:VARCHAR,NODEDATA:CLOB,ORDINAL:INTEGER!,ATTRS:CLOB\tNODEID\t-\tDOC_ID>DOC.DOC_ID\tDOC_ID|PARENTNODEID|NODENAME|NODETYPE\tNODEDATA\n"
    "ROW F0.B0.S0 i:1\ti:1\t~\t~\t~\ti:1\ts:document\t~\ti:0\t~\n"
    "ROW F0.B0.S1 i:2\ti:1\tr:F0.B0.S0\ti:1\t~\ti:5\ts:section\t~\ti:0\t~\n"
    "ROW F0.B0.S2 i:3\ti:1\tr:F0.B0.S1\ti:2\tr:F0.B0.S4\ti:3\ts:context\t~\ti:0\t~\n"
    "ROW F0.B0.S3 i:4\ti:1\tr:F0.B0.S2\ti:3\t~\ti:2\t~\ts:Budget\ti:0\t~\n"
    "ROW F0.B0.S4 i:5\ti:1\tr:F0.B0.S1\ti:2\t~\ti:1\ts:content\t~\ti:1\t~\n"
    "ROW F0.B0.S5 i:6\ti:1\tr:F0.B0.S4\ti:5\t~\ti:2\t~\ts:Travel funds.\ti:0\t~\n"
    "ROW F0.B0.S6 i:7\ti:2\t~\t~\t~\ti:1\ts:document\t~\ti:0\t~\n"
    "ROW F0.B0.S7 i:8\ti:2\tr:F0.B0.S6\ti:7\t~\ti:5\ts:section\t~\ti:0\t~\n"
    "ROW F0.B0.S8 i:9\ti:2\tr:F0.B0.S7\ti:8\tr:F0.B0.S10\ti:3\ts:context\t~\ti:0\t~\n"
    "ROW F0.B0.S9 i:10\ti:2\tr:F0.B0.S8\ti:9\t~\ti:2\t~\ts:Ops\ti:0\t~\n"
    "ROW F0.B0.S10 i:11\ti:2\tr:F0.B0.S7\ti:8\t~\ti:1\ts:content\t~\ti:1\t~\n"
    "ROW F0.B0.S11 i:12\ti:2\tr:F0.B0.S10\ti:11\t~\ti:2\t~\ts:Launch pad work.\ti:0\t~\n"
    + "".join(f"TOMB F0.B0.S{slot}\n" for slot in range(12, 18))
)


class TestPreIndexSnapshot:
    def check_opened(self, store):
        assert store.doc_table.index_on("FILE_NAME") is not None
        assert store.lookup_by_name("memo.md").doc_id == 1
        assert store.lookup_by_name("plan.md") is None
        assert check_store(store.database).ok
        # It writes like any other store, past the old tombstones.
        result = store.replace_text("# Plan\n\nRecover.\n", "plan.md")
        assert store.xml_table.fetch(result.root_rowid).rowid.slot_no == 18
        assert store.lookup_by_name("plan.md").doc_id == 3
        assert "FILE_NAME" in store.dump().split("\n")[2]

    def test_restore_adds_the_index(self):
        self.check_opened(XmlStore.restore(PRE_INDEX_SNAPSHOT))

    def test_open_from_an_old_checkpoint_adds_the_index(self):
        device = MemoryLogDevice()
        device.save_checkpoint(encode_checkpoint(0, PRE_INDEX_SNAPSHOT))
        store = XmlStore.open(device)
        self.check_opened(store)
        assert XmlStore.open(device).lookup_by_name("plan.md").doc_id == 3

    def test_checkpointed_it_declares_only_the_schemas_btrees(self):
        """The old SCHEMA line names XML B+trees the schema no longer
        makes (NODETYPE, PARENTNODEID): opening drops them, so no write
        pays for them and the next checkpoint does not name them."""
        device = MemoryLogDevice()
        device.save_checkpoint(encode_checkpoint(0, PRE_INDEX_SNAPSHOT))
        queries = ("Context=Budget", "Content=pad", "Nodename=content")

        def answers(store):
            engine = QueryEngine(store)
            return [
                [(m.file_name, m.context, m.content) for m in engine.execute(q)]
                for q in queries
            ]

        store = XmlStore.open(device)
        assert store.xml_table.index_columns == ("NODEID", "DOC_ID", "NODENAME")
        before = answers(store)
        store.checkpoint()
        declared = [
            line.split("\t")[4] for line in device.load_checkpoint().split("\n")
            if line.startswith("SCHEMA ")
        ]
        assert declared == ["FILE_NAME", "DOC_ID|NODENAME"]
        reopened = XmlStore.open(device)
        assert check_store(reopened.database).ok
        assert answers(reopened) == before == [
            [("memo.md", "Budget", "Travel funds.")],
            [("memo.md", "Ops", "Launch pad work.")],
            [("memo.md", "Budget", "Travel funds."),
             ("memo.md", "Ops", "Launch pad work.")],
        ]
