"""XmlStore facade: storage, catalog, reconstruction, deletion."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConstraintError, DocumentNotFoundError, StoreError
from repro.ordbms import FileLogDevice, MemoryLogDevice
from repro.ordbms.wal import encode_checkpoint
from repro.sgml.dom import Document, Element, Text
from repro.sgml.parser import parse_xml
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

    def test_a_title_with_separators_keeps_its_revision(self, store):
        html = "<html><head><title>Cost; Schedule;revision=41</title></head>" \
            "<body><h1>Cost</h1><p>x</p></body></html>"
        store.store_text(html, "cost.html")
        replaced = store.replace_text(html, "cost.html")
        entry = store.describe(replaced.doc_id)
        assert entry.metadata["title"] == "Cost; Schedule;revision=41"
        assert entry.revision == 2

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
        assert index.lookup_all(["uniquemarker"]) == set()


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
        doc = store.doc_table
        [row] = doc.lookup("DOC_ID", first.doc_id)
        c_md, twin = (
            doc.schema.row({"DOC_ID": doc_id, "FILE_NAME": "c.md", "ROOTROWID": row.ROOTROWID}, rowid)
            for doc_id, rowid in zip((99, 99), doc.next_rowids(2))
        )
        with pytest.raises(ConstraintError):  # DOC_ID 99 twice: nothing moves
            store.database.change([
                ("XML", [(node, None) for node in store.xml_table.lookup("DOC_ID", first.doc_id)]),
                ("DOC", [(row, None), (None, c_md), (None, twin)]),
            ])
        # Refused: a.md's oldest row is still the oldest, c.md never was.
        self.assert_agrees(store)
        assert store.lookup_by_name("c.md") is None
        assert store.lookup_by_name("a.md").doc_id == first.doc_id
        store.delete_document(first.doc_id)
        self.assert_agrees(store)
        assert store.lookup_by_name("a.md").doc_id == again.doc_id
        store.replace_text("# A\nfour\n", "a.md")
        self.assert_agrees(store)
        assert store.lookup_by_name("a.md").revision == 2


#: ``XmlStore.dump()`` of a store written before DOC had a FILE_NAME
#: index (its DOC schema line declares no secondary index) and while XML
#: rows carried a NODEID primary key and a NODETYPE B+tree: memo.md
#: stored twice, plan.md stored and deleted.  Its rows are in today's
#: dialect (column-typed codec, magic 4, DOC rows naming their root):
#: what is old is the XML schema.
PRE_INDEX_SNAPSHOT = (
    "%NETMARK-SNAPSHOT 4\nTABLE DOC\nSCHEMA DOC_ID:INTEGER!,FILE_NAME:VARCHAR!,FILE_DATE:TIMESTAMP,FILE_SIZE:INTEGER,FORMAT:VARCHAR,METADATA:CLOB,ROOTROWID:ROWID!\tDOC_ID\t-\t-\n"
    "ROW 0 1\tmemo.md\t~\t24\tmarkdown\tchar_size=24;format=markdown;line_count=4\t0\n"
    "ROW 1 2\tmemo.md\t~\t24\tmarkdown\tchar_size=24;format=markdown;line_count=4\t6\n"
    "TOMB 2\n"
    "TABLE XML\nSCHEMA NODEID:INTEGER!,DOC_ID:INTEGER!,PARENTROWID:ROWID,NODETYPE:INTEGER!,NODENAME:VARCHAR,NODEDATA:CLOB,ATTRS:CLOB\tNODEID\tDOC_ID|NODENAME|NODETYPE\tNODEDATA\n"
    "ROW 0 1\t1\t~\t1\tdocument\t~\t~\n"
    "ROW 1 2\t1\t0\t5\tsection\t~\t~\n"
    "ROW 2 3\t1\t1\t3\tcontext\t~\t~\n"
    "ROW 3 4\t1\t2\t2\t~\tBudget\t~\n"
    "ROW 4 5\t1\t1\t1\tcontent\t~\t~\n"
    "ROW 5 6\t1\t4\t2\t~\tTravel funds.\t~\n"
    "ROW 6 7\t2\t~\t1\tdocument\t~\t~\n"
    "ROW 7 8\t2\t6\t5\tsection\t~\t~\n"
    "ROW 8 9\t2\t7\t3\tcontext\t~\t~\n"
    "ROW 9 10\t2\t8\t2\t~\tOps\t~\n"
    "ROW 10 11\t2\t7\t1\tcontent\t~\t~\n"
    "ROW 11 12\t2\t10\t2\t~\tLaunch pad work.\t~\n"
    + "".join(f"TOMB {slot}\n" for slot in range(12, 18))
)


class TestPreIndexSnapshot:
    """A dump declaring the seven-column XML table (and B+trees other
    than the schema's) is refused whole, with a typed error, by every
    door a store comes back through; nothing is converted."""

    def test_restore_refuses_it(self):
        with pytest.raises(StoreError, match="does not have the NETMARK"):
            XmlStore.restore(PRE_INDEX_SNAPSHOT)

    def test_open_from_an_old_checkpoint_refuses_it(self):
        device = MemoryLogDevice()
        device.save_checkpoint(encode_checkpoint(0, PRE_INDEX_SNAPSHOT))
        with pytest.raises(StoreError, match="does not have the NETMARK"):
            XmlStore.open(device)
        assert "NODEID:INTEGER!" in device.load_checkpoint()  # left as it was

    def test_with_the_schemas_btrees_its_columns_are_refused(self):
        text = PRE_INDEX_SNAPSHOT.replace("\tDOC_ID\t-\t-\n", "\tDOC_ID\tFILE_NAME\t-\n")
        text = text.replace("DOC_ID|NODENAME|NODETYPE", "NODENAME")
        device = MemoryLogDevice()
        device.save_checkpoint(encode_checkpoint(0, text))
        for reopen in (lambda: XmlStore.restore(text), lambda: XmlStore.open(device)):
            with pytest.raises(StoreError, match="NETMARK columns"):
                reopen()


def with_btrees(doc: str, xml: str) -> str:
    """memo.md's dump by today's schema, but its DOC and XML SCHEMA lines
    declaring ``doc`` and ``xml`` as their B+trees beside the primary key."""
    store = XmlStore()
    store.store_text("# Budget\n\nTravel funds.\n", "memo.md")
    text = store.dump()
    for declared, wanted in (("FILE_NAME\t-\n", f"{doc}\t-\n"),
                             ("NODENAME\tNODEDATA\n", f"{xml}\tNODEDATA\n")):
        assert text.count(f"\t{declared}") == 1
        text = text.replace(f"\t{declared}", f"\t{wanted}")
    return text


#: B+trees other than the schema's, as a dump or checkpoint may declare
#: them: ``(DOC's, XML's)`` beside DOC's primary key.
OTHER_BTREES = {
    "doc-without-file-name": ("-", "NODENAME"),
    "xml-with-doc-id": ("FILE_NAME", "DOC_ID|NODENAME"),
    "xml-with-nodetype": ("FILE_NAME", "NODENAME|NODETYPE"),
    "xml-without-nodename": ("FILE_NAME", "DOC_ID"),
}


class TestOtherBtreesAreRefused:
    """The schema's B+trees are exactly the ones a store keeps: a dump or
    checkpoint declaring others is refused, not aligned."""

    def test_the_schemas_own_load(self):
        assert check_store(XmlStore.restore(with_btrees("FILE_NAME", "NODENAME")).database).ok

    @pytest.mark.parametrize("declared", OTHER_BTREES)
    def test_restore(self, declared):
        with pytest.raises(StoreError, match="NETMARK B\\+trees"):
            XmlStore.restore(with_btrees(*OTHER_BTREES[declared]))

    @pytest.mark.parametrize("declared", OTHER_BTREES)
    def test_open_from_a_checkpoint(self, declared):
        device = MemoryLogDevice()
        device.save_checkpoint(encode_checkpoint(0, with_btrees(*OTHER_BTREES[declared])))
        with pytest.raises(StoreError, match="NETMARK B\\+trees"):
            XmlStore.open(device)


#: memo.md as the ten-column XML schema dumped it, in today's dump
#: dialect: beside the
#: seven-column row's, the parent's NODEID, the next sibling's ROWID
#: and the position among siblings, which no read followed.
TEN_COLUMN_SNAPSHOT = (
    "%NETMARK-SNAPSHOT 4\nTABLE DOC\nSCHEMA DOC_ID:INTEGER!,FILE_NAME:VARCHAR!,FILE_DATE:TIMESTAMP,FILE_SIZE:INTEGER,FORMAT:VARCHAR,METADATA:CLOB,ROOTROWID:ROWID!\tDOC_ID\tFILE_NAME\t-\n"
    "ROW 0 1\tmemo.md\t~\t24\tmarkdown\tchar_size=24;format=markdown;line_count=4\t0\n"
    "TABLE XML\nSCHEMA NODEID:INTEGER!,DOC_ID:INTEGER!,PARENTROWID:ROWID,PARENTNODEID:INTEGER,SIBLINGID:ROWID,NODETYPE:INTEGER!,NODENAME:VARCHAR,NODEDATA:CLOB,ORDINAL:INTEGER!,ATTRS:CLOB\tNODEID\tNODENAME\tNODEDATA\n"
    "ROW 0 1\t1\t~\t~\t~\t1\tdocument\t~\t0\t~\n"
    "ROW 1 2\t1\t0\t1\t~\t5\tsection\t~\t0\t~\n"
    "ROW 2 3\t1\t1\t2\t4\t3\tcontext\t~\t0\t~\n"
    "ROW 3 4\t1\t2\t3\t~\t2\t~\tBudget\t0\t~\n"
    "ROW 4 5\t1\t1\t2\t~\t1\tcontent\t~\t1\t~\n"
    "ROW 5 6\t1\t4\t5\t~\t2\t~\tTravel funds.\t0\t~\n"
)


class TestTheOldSchemaIsRefused:
    """A store that declares the ten-column XML table is refused whole,
    with a typed error, and nothing is converted."""

    def test_restore(self):
        with pytest.raises(StoreError, match="NETMARK columns"):
            XmlStore.restore(TEN_COLUMN_SNAPSHOT)

    def test_recovery_from_a_checkpoint_file(self, tmp_path):
        base = str(tmp_path / "old")
        device = FileLogDevice(base)
        device.save_checkpoint(encode_checkpoint(0, TEN_COLUMN_SNAPSHOT))
        device.close()
        device = FileLogDevice(base)
        try:
            with pytest.raises(StoreError, match="NETMARK columns"):
                XmlStore.open(device)
        finally:
            device.close()
        with open(base + ".ckpt", encoding="utf-8") as checkpoint:
            assert "ORDINAL:INTEGER!" in checkpoint.read()  # left as it was
