"""store.fsck: clean stores, every seeded corruption class, and repair."""

import pytest

from repro.errors import FsckError
from repro.ordbms import Database, FileLogDevice, RowId, TableSchema, load_database
from repro.ordbms.wal import encode_checkpoint
from repro.query import QueryCache, QueryEngine
from repro.sgml.serializer import serialize
from repro.store import XmlStore, check_store, repair_store
from repro.store.fsck import REPAIRABLE, main
from repro.store.schema import XML_TABLE, doc_schema, xml_schema
from tests.store.test_xmlstore import OTHER_BTREES, TEN_COLUMN_SNAPSHOT, with_btrees


@pytest.fixture
def loaded(loaded_store: XmlStore) -> XmlStore:
    return loaded_store


def xml_rows(store: XmlStore) -> list:
    return list(store.xml_table.scan())


def node_where(store: XmlStore, **conditions):
    for row in xml_rows(store):
        if all(getattr(row, key) == value for key, value in conditions.items()):
            return row
    raise AssertionError(f"no node matching {conditions}")


class TestCleanStore:
    def test_sample_corpus_is_clean(self, loaded):
        report = check_store(loaded.database)
        assert report.ok
        assert report.documents_checked == len(loaded)
        assert report.nodes_checked == loaded.node_count
        assert report.indexes_checked == 4  # 2 DOC + 1 XML btree + 1 text

    def test_empty_store_is_clean(self, store):
        assert check_store(store.database).ok

    def test_non_netmark_database_is_misuse(self):
        with pytest.raises(FsckError):
            check_store(Database("plain"))

    def test_an_xml_table_missing_a_column_is_misuse(self):
        database = Database("short")
        database.create_table(doc_schema()).create_index("FILE_NAME")
        columns = [c for c in xml_schema().columns if c.name != "NODETYPE"]
        database.create_table(TableSchema(XML_TABLE, tuple(columns)))
        database.insert(XML_TABLE, {"DOC_ID": 1})
        with pytest.raises(FsckError, match="NETMARK columns"):
            check_store(database)

    def test_the_old_ten_column_table_is_misuse(self):
        with pytest.raises(FsckError, match="NETMARK columns"):
            check_store(load_database(TEN_COLUMN_SNAPSHOT))
        with pytest.raises(FsckError, match="NETMARK columns"):
            repair_store(load_database(TEN_COLUMN_SNAPSHOT))

    @pytest.mark.parametrize("declared", OTHER_BTREES)
    def test_btrees_other_than_the_schemas_are_misuse(self, declared):
        for check in (check_store, repair_store):
            with pytest.raises(FsckError, match="NETMARK B\\+trees"):
                check(load_database(with_btrees(*OTHER_BTREES[declared])))

    def test_report_serialises(self, loaded):
        report = check_store(loaded.database)
        payload = report.as_dict()
        assert payload["ok"] is True
        assert "clean" in report.render_text()


class TestCorruptionClasses:
    """Each seeded corruption class is detected: under its own code, or
    as the break of its document's pre-order walk."""

    #: Damages with no code of their own: each breaks its document's
    #: pre-order walk, reported as ``doc-order`` with the cause.
    WALK_BREAKS = {
        "missing-root": "the run does not start at the root: parent",
        "multiple-roots": "a second root",
        "dangling-parent": "is not a live XML row",
        "foreign-parent": "belongs to document 2",
        "parent-cycle": "does not precede it",
    }

    def seed(self, store: XmlStore, code: str) -> None:
        database = store.database
        rows = xml_rows(store)
        root = node_where(store, PARENTROWID=None, DOC_ID=1)
        child = node_where(store, PARENTROWID=root.rowid)
        if code == "bad-node-type":
            database.update(XML_TABLE, child.rowid, {"NODETYPE": 99})
        elif code == "orphan-node":
            doc_row = store.doc_table.lookup("DOC_ID", 1)[0]
            database.delete("DOC", doc_row.rowid)
        elif code == "empty-document":
            for row in rows:
                if row.DOC_ID == 1:
                    database.delete(XML_TABLE, row.rowid)
        elif code == "missing-root":
            database.update(
                XML_TABLE, root.rowid, {"PARENTROWID": child.rowid}
            )
        elif code == "multiple-roots":
            database.update(XML_TABLE, child.rowid, {"PARENTROWID": None})
        elif code == "dangling-parent":
            victim = node_where(store, PARENTROWID=child.rowid)
            database.delete(XML_TABLE, victim.rowid)
            orphaned = node_where(store, PARENTROWID=victim.rowid)
            assert orphaned is not None  # its children now dangle
        elif code == "foreign-parent":
            other = node_where(store, PARENTROWID=None, DOC_ID=2)
            database.update(
                XML_TABLE, child.rowid, {"PARENTROWID": other.rowid}
            )
        elif code == "parent-cycle":
            grandchild = node_where(store, PARENTROWID=child.rowid)
            database.update(
                XML_TABLE, child.rowid, {"PARENTROWID": grandchild.rowid}
            )
        elif code == "doc-order":
            # A well-linked last child of document 1's, stored behind
            # document 2's rows: no link is wrong, only where the row sits.
            database.insert(XML_TABLE, {
                "DOC_ID": 1, "NODETYPE": 2, "NODENAME": "late", "PARENTROWID": child.rowid,
            })
        elif code == "btree-drift":
            index = store.xml_table.index_on("NODENAME")
            index.insert("ghost-entry", child.rowid)
        elif code == "text-index-drift":
            text_index = store.xml_table.text_index_on("NODEDATA")
            text_index.add(child.rowid, "ghostterm never stored")
        elif code == "section-facts":
            facts = store.xml_table.text_index_on("NODEDATA").facts
            victim = next(iter(facts))
            facts[victim] = ((), None, not facts[victim][2])
        else:
            raise AssertionError(f"unknown corruption class {code}")

    @pytest.mark.parametrize(
        "code",
        [
            "bad-node-type",
            "orphan-node",
            "empty-document",
            "missing-root",
            "multiple-roots",
            "dangling-parent",
            "foreign-parent",
            "parent-cycle",
            "doc-order",
            "btree-drift",
            "text-index-drift",
            "section-facts",
        ],
    )
    def test_detected(self, loaded, code):
        assert check_store(loaded.database).ok  # pristine before seeding
        self.seed(loaded, code)
        report = check_store(loaded.database)
        if code in self.WALK_BREAKS:
            [found] = [v for v in report.violations if v.code == "doc-order"]
            assert found.doc_id == 1 and self.WALK_BREAKS[code] in found.detail
        else:
            assert code in report.codes(), (
                f"seeded {code}, fsck reported {sorted(report.codes())}"
            )

    @pytest.mark.parametrize("damage", [*WALK_BREAKS, "doc-order"])
    def test_a_broken_walk_survives_repair(self, loaded, damage):
        self.seed(loaded, damage)
        report = repair_store(loaded.database)
        assert [v.doc_id for v in report.violations if v.code == "doc-order"] == [1]

    #: A DOC row whose ROOTROWID names some other slot than its run's
    #: first row: how to pick that slot, and what the finding says of it.
    ROOT_DAMAGES = {
        "tombstone": "no live XML row",
        "out-of-range": "no live XML row",
        "non-root": "not its root",
        "another-document": "a row of document 2",
    }

    def plant_root(self, store: XmlStore, damage: str) -> None:
        """Point document 1's ROOTROWID at the ``damage`` slot."""
        root = node_where(store, PARENTROWID=None, DOC_ID=1)
        if damage == "tombstone":
            last = max(store.documents(), key=lambda entry: entry.doc_id)
            doomed = node_where(store, PARENTROWID=None, DOC_ID=last.doc_id)
            store.delete_document(last.doc_id)
            named = doomed.rowid
        elif damage == "out-of-range":
            named = RowId(999_999)
        elif damage == "non-root":
            named = node_where(store, PARENTROWID=root.rowid).rowid
        else:
            named = node_where(store, PARENTROWID=None, DOC_ID=2).rowid
        [doc] = store.doc_table.lookup("DOC_ID", 1)
        store.database.update("DOC", doc.rowid, {"ROOTROWID": named})

    @pytest.mark.parametrize("damage", ROOT_DAMAGES)
    def test_a_rootrowid_that_misses_the_run_is_one_finding(self, loaded, damage):
        """A reader finds a document's run only through its DOC row's
        ``ROOTROWID``: naming any other slot breaks the run's layout, one
        ``doc-order`` finding on the DOC row; the column is stored, not
        derived, so a repair leaves it."""
        self.plant_root(loaded, damage)
        for check in (check_store, repair_store):
            [found] = check(loaded.database).violations
            assert (found.code, found.table, found.doc_id) == ("doc-order", "DOC", 1)
            assert self.ROOT_DAMAGES[damage] in found.detail

    def test_a_delete_through_another_documents_root_takes_none_of_its_rows(self, loaded):
        """The delete reads its run from ``ROOTROWID`` and stops at a row
        of another document: document 2 stays whole, and document 1's
        rows, which the damage hid from it, are left for fsck."""
        second = len(loaded.new_accessor().document(2))
        self.plant_root(loaded, "another-document")
        assert loaded.delete_document(1) == 0
        assert len(loaded.new_accessor().document(2)) == second
        assert check_store(loaded.database).codes() == {"orphan-node"}

    @pytest.mark.parametrize("code", sorted(REPAIRABLE))
    def test_repairable_classes_repair_clean(self, loaded, code):
        self.seed(loaded, code)
        report = repair_store(loaded.database)
        assert report.repaired > 0
        assert report.ok, (
            f"after repairing {code}: {sorted(report.codes())}"
        )

    def test_postings_out_of_rowid_order_are_drift(self, loaded):
        """``BTreeIndex.delete`` bisects a posting list, so one out of
        ROWID order (same contents) would make it miss: fsck says so."""
        index = loaded.xml_table.index_on("NODENAME")
        key, first = next(item for item in index.items() if len(index.search(item[0])) > 1)
        leaf = index._find_leaf(key)
        postings = leaf.values[leaf.keys.index(key)]
        assert postings[0] == first and len(postings) > 1
        postings.reverse()
        assert not index.delete(key, first)  # the miss fsck is guarding
        assert "btree-drift" in check_store(loaded.database).codes()
        assert repair_store(loaded.database).ok
        assert loaded.xml_table.index_on("NODENAME").search(key)[0] == first

    def test_a_finding_on_slot_zero_names_it(self, loaded):
        """Slot 0 is a row: a finding on the XML table's very first row
        carries its address, ``0``, not a table-level blank."""
        first = xml_rows(loaded)[0]
        assert first.rowid == 0 and first.PARENTROWID is None
        loaded.database.update(XML_TABLE, first.rowid, {"NODETYPE": 99})
        report = check_store(loaded.database)
        [found] = [v for v in report.violations if v.code == "bad-node-type"]
        assert (found.table, found.rowid, found.doc_id) == (XML_TABLE, "0", 1)
        assert "bad-node-type: 0 doc=1: " in report.render_text()

    def test_misplaced_row_is_the_only_finding_and_repair_leaves_it(self, loaded):
        """``doc-order`` is about where a row sits, nothing else: every
        link of the planted row is right, and nothing derivable moves it."""
        self.seed(loaded, "doc-order")
        report = check_store(loaded.database)
        assert report.codes() == {"doc-order"} and report.count("doc-order") == 1
        assert report.violations[0].doc_id == 1
        assert repair_store(loaded.database).codes() == {"doc-order"}

    @pytest.mark.parametrize(
        "layout, problem",
        [
            # (name, parent) in the order the rows are stored; siblings
            # are in the order they are stored, so none is out of it
            ([("a", "r"), ("r", None)], "does not start at the root"),
            ([("r", None), ("a", "r"), ("b", "r"), ("c", "a")],
             "not an open ancestor"),
            ([("r", None), ("a", "r"), ("s", None)], "a second root"),
        ],
    )
    def test_every_way_of_leaving_document_order(self, store, layout, problem):
        database = store.database
        names = [name for name, _ in layout]
        addresses = dict(zip(names, store.xml_table.next_rowids(len(layout))))
        database.insert("DOC", {"DOC_ID": 1, "FILE_NAME": "planted.xml", "ROOTROWID": addresses["r"]})
        for name, parent in layout:
            database.insert(XML_TABLE, {
                "DOC_ID": 1, "NODETYPE": 2, "NODENAME": name,
                "PARENTROWID": addresses.get(parent),
            })
        [found] = [
            violation for violation in check_store(database).violations
            if violation.code == "doc-order"
        ]
        assert problem in found.detail

    def test_rowid_order_is_document_node_order(self, store):
        """A plan reads the presentation order off the ROWID, so documents
        follow one another in DOC_ID order along the heap: one stored
        after a higher-numbered one is out of order, though each is one
        well-formed run."""
        database = store.database
        first, second = store.xml_table.next_rowids(2)
        for doc_id, root in ((1, second), (2, first)):
            database.insert("DOC", {"DOC_ID": doc_id, "FILE_NAME": f"{doc_id}.xml", "ROOTROWID": root})
        for doc_id in (2, 1):
            database.insert(XML_TABLE, {"DOC_ID": doc_id, "NODETYPE": 1, "NODENAME": "n"})
        [found] = check_store(database).violations
        assert found.code == "doc-order" and found.rowid == str(second)
        assert "DOC_ID does not rise: document 2's rows come first" in found.detail

    @pytest.mark.parametrize("damage", ["ghost", "missing"])
    def test_heading_postings_are_held_to_a_fresh_pass(self, loaded, damage):
        """The heading postings are derived like the full ones: a body
        row posted there (a ghost) or a heading row gone from them is
        ``text-index-drift`` on its own, and a repair posts them afresh."""
        index = loaded.xml_table.text_index_on("NODEDATA")
        headings = index._headings
        before = index.signature(headings=True)
        assert before and check_store(loaded.database).ok
        if damage == "ghost":
            body = next(rowid for rowid, fact in index.facts.items() if fact[1] is None)
            headings["budget"][body] = [0]
        else:
            term = next(iter(headings))
            del headings[term][next(iter(headings[term]))]
        report = check_store(loaded.database)
        assert report.codes() == {"text-index-drift"}
        assert "heading postings" in report.violations[0].detail
        assert repair_store(loaded.database).ok
        assert loaded.xml_table.text_index_on("NODEDATA").signature(headings=True) == before

    @pytest.mark.parametrize("damage", ["ghost", "missing"])
    def test_section_members_are_held_to_a_fresh_pass(self, loaded, damage):
        """The section members are derived like the heading postings: a
        row listed under a section its fact does not name (a ghost) or
        gone from one it does is ``text-index-drift`` on its own, and a
        repair lists them afresh."""
        index = loaded.xml_table.text_index_on("NODEDATA")
        members, before = index._members, index.members()
        assert before and check_store(loaded.database).ok
        section, rows = next((section, rows) for section, rows in members.items() if rows)
        if damage == "ghost":
            stranger = next(rowid for rowid, fact in index.facts.items() if section not in fact[0])
            rows.append(stranger)
        else:
            rows.pop()
        report = check_store(loaded.database)
        assert report.codes() == {"text-index-drift"}
        assert [violation.detail for violation in report.violations] == [
            "the section members of the text index on NODEDATA disagree "
            "with a fresh pass over the heap"
        ]
        assert repair_store(loaded.database).ok
        assert loaded.xml_table.text_index_on("NODEDATA").members() == before

    def test_structural_loss_survives_repair(self, loaded):
        """Genuinely lost data is still reported after a repair pass."""
        self.seed(loaded, "orphan-node")
        report = repair_store(loaded.database)
        assert "orphan-node" in report.codes()


class TestRepairUnderAWarmPool:
    """Repair rebuilds derived state and edits no row: the store's catalog
    map, read off DOC rows, stays true and stays whole, while a cached
    answer computed from the section facts it rebuilds is dropped — the
    facade clears the result cache after it."""

    QUERIES = ("Content=engine", "Content=shuttle", "Context=Budget")

    @staticmethod
    def answers(engine, queries):
        return [
            serialize(engine.execute(query).to_xml(), indent=2)
            for query in queries
        ]

    def test_cached_equals_bare_after_a_repair(self, loaded_netmark):
        node = loaded_netmark
        # The scan path: it runs each hit's document's pass as it reads,
        # where the index path reads what the loader's pass said.
        cached = QueryEngine(node.store, use_index=False, cache=QueryCache())
        bare = QueryEngine(node.store, use_index=False)
        clean = self.answers(bare, self.QUERIES)
        assert clean == self.answers(node.engine, self.QUERIES)
        # A ghost posting of a heading, under a name no query asks for:
        # drift that repair fixes and no read follows.
        report1 = node.store.lookup_by_name("report1.ndoc").doc_id
        heading = node_where(
            node.store, DOC_ID=report1, NODEDATA="Budget"
        ).PARENTROWID
        node.store.xml_table.index_on("NODENAME").insert("ghost-entry", heading)
        assert node.fsck().codes() == {"btree-drift"}
        damaged = self.answers(cached, self.QUERIES)  # warms the result cache
        assert damaged == self.answers(bare, self.QUERIES) == clean
        assert self.answers(node.engine, self.QUERIES) == clean
        entries = dict(node.store._entries)
        assert entries
        report = node.fsck(repair=True)
        assert report.ok and report.repaired >= 2
        assert node.store._entries == entries  # the map is intact
        assert entries == {doc_id: node.store.describe(doc_id) for doc_id in entries}
        assert self.answers(cached, self.QUERIES) == clean
        assert self.answers(bare, self.QUERIES) == clean

    def test_a_full_cached_answer_is_not_replayed_after_a_repair(
        self, loaded_netmark
    ):
        """A full, ROWID-ordered answer outlives commits while its sections
        stay visible, and repair keeps every ROWID visible: the facade
        clears the result cache."""
        node, query = loaded_netmark, ["Context=Budget&limit=2"]
        clean = self.answers(node.engine, query)
        # Say notes.md's "Budget" heading text sits under its "Overview"
        # heading: the index path then lists the Overview section.
        facts = node.store.xml_table.text_index_on("NODEDATA").facts
        overview = facts[node_where(node.store, NODEDATA="Overview").rowid][1]
        heading = node_where(node.store, NODEDATA="Budget")  # notes.md's
        sections, _, emphasised = facts[heading.rowid]
        facts[heading.rowid] = (sections, overview, emphasised)
        damaged = self.answers(node.api.engine, query)  # admits the entry
        assert "<context>Overview</context>" in damaged[0]
        assert node.api.engine.execute(query[0]).cached
        report = node.fsck(repair=True)  # rebuilds the facts, moves the LSN
        assert report.ok and report.repaired >= 1
        assert not node.api.engine.execute(query[0]).cached
        assert self.answers(node.api.engine, query) == clean


class TestCommandLine:
    @pytest.fixture
    def durable_base(self, tmp_path) -> str:
        base = str(tmp_path / "store")
        device = FileLogDevice(base)
        store = XmlStore.open(device)
        store.store_text("# Title\n\nBody text here.\n", "note.md")
        device.close()
        return base

    def test_clean_store_exits_zero(self, durable_base, capsys):
        assert main([durable_base]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_format(self, durable_base, capsys):
        import json

        assert main([durable_base, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["documents_checked"] == 1

    def test_repair_flag(self, durable_base, capsys):
        assert main([durable_base, "--repair"]) == 0
        assert "repair actions" in capsys.readouterr().out

    def test_the_old_ten_column_table_is_refused(self, tmp_path):
        base = str(tmp_path / "old")
        device = FileLogDevice(base)
        device.save_checkpoint(encode_checkpoint(0, TEN_COLUMN_SNAPSHOT))
        device.close()
        for argv in ([base], [base, "--repair"]):
            with pytest.raises(FsckError, match="NETMARK columns"):
                main(argv)
