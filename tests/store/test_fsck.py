"""store.fsck: clean stores, every seeded corruption class, and repair."""

import pytest

from repro.errors import FsckError
from repro.ordbms import Database
from repro.query import QueryCache, QueryEngine
from repro.sgml.serializer import serialize
from repro.store import XmlStore, check_store, repair_store
from repro.store.fsck import REPAIRABLE, main
from repro.store.schema import XML_TABLE


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
        assert report.indexes_checked == 6  # 2 DOC + 3 XML btrees + 1 text

    def test_empty_store_is_clean(self, store):
        assert check_store(store.database).ok

    def test_non_netmark_database_is_misuse(self):
        with pytest.raises(FsckError):
            check_store(Database("plain"))

    def test_report_serialises(self, loaded):
        report = check_store(loaded.database)
        payload = report.as_dict()
        assert payload["ok"] is True
        assert "clean" in report.render_text()


class TestCorruptionClasses:
    """Each seeded corruption class is detected under its own code."""

    def seed(self, store: XmlStore, code: str) -> None:
        database = store.database
        rows = xml_rows(store)
        root = node_where(store, PARENTROWID=None, DOC_ID=1)
        child = node_where(store, PARENTNODEID=root.NODEID)
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
                XML_TABLE, root.rowid,
                {"PARENTROWID": child.rowid,
                 "PARENTNODEID": child.NODEID},
            )
        elif code == "multiple-roots":
            database.update(
                XML_TABLE, child.rowid,
                {"PARENTROWID": None, "PARENTNODEID": None},
            )
        elif code == "dangling-parent":
            victim = node_where(store, PARENTNODEID=child.NODEID)
            database.delete(XML_TABLE, victim.rowid)
            orphaned = node_where(store, PARENTROWID=victim.rowid)
            assert orphaned is not None  # its children now dangle
        elif code == "foreign-parent":
            other = node_where(store, PARENTROWID=None, DOC_ID=2)
            database.update(
                XML_TABLE, child.rowid,
                {"PARENTROWID": other.rowid,
                 "PARENTNODEID": other.NODEID},
            )
        elif code == "parent-id-mismatch":
            database.update(
                XML_TABLE, child.rowid, {"PARENTNODEID": 9999}
            )
        elif code == "parent-cycle":
            grandchild = node_where(store, PARENTNODEID=child.NODEID)
            database.update(
                XML_TABLE, child.rowid,
                {"PARENTROWID": grandchild.rowid,
                 "PARENTNODEID": grandchild.NODEID},
            )
        elif code == "dangling-sibling":
            from repro.ordbms import RowId

            database.update(
                XML_TABLE, child.rowid,
                {"SIBLINGID": RowId(9, 9, 9)},
            )
        elif code == "foreign-sibling":
            other = node_where(store, PARENTROWID=None, DOC_ID=2)
            database.update(
                XML_TABLE, child.rowid,
                {"SIBLINGID": other.rowid},
            )
        elif code == "duplicate-ordinal":
            first = next(
                row for row in rows
                if row.PARENTNODEID == root.NODEID
                and row.SIBLINGID is not None
            )
            follower = node_where(store, rowid=first.SIBLINGID)
            database.update(
                XML_TABLE, follower.rowid,
                {"ORDINAL": first.ORDINAL},
            )
        elif code == "sibling-chain":
            # A live but mis-linked chain: point a child at itself.
            database.update(
                XML_TABLE, child.rowid,
                {"SIBLINGID": child.rowid},
            )
        elif code == "doc-order":
            # A well-linked node of document 1, stored behind document
            # 2's rows: no link is wrong, only where the row sits.
            last = max(
                (row for row in rows if row.PARENTROWID == child.rowid),
                key=lambda row: row.ORDINAL,
            )
            late = database.insert(XML_TABLE, {
                "NODEID": 9999, "DOC_ID": 1, "NODETYPE": 2,
                "NODENAME": "late", "ORDINAL": last.ORDINAL + 1,
                "PARENTROWID": child.rowid,
                "PARENTNODEID": child.NODEID,
            })
            database.update(XML_TABLE, last.rowid, {"SIBLINGID": late})
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
            "parent-id-mismatch",
            "parent-cycle",
            "dangling-sibling",
            "foreign-sibling",
            "duplicate-ordinal",
            "sibling-chain",
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
        assert code in report.codes(), (
            f"seeded {code}, fsck reported {sorted(report.codes())}"
        )

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
        index = loaded.xml_table.index_on("DOC_ID")
        key, first = next(index.items())
        postings = index._find_leaf(key).values[0]
        assert postings[0] == first and len(postings) > 1
        postings.reverse()
        assert not index.delete(key, first)  # the miss fsck is guarding
        assert "btree-drift" in check_store(loaded.database).codes()
        assert repair_store(loaded.database).ok
        assert loaded.xml_table.index_on("DOC_ID").search(key)[0] == first

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
            # (name, parent, ordinal) in the order the rows are stored
            ([("a", "r", 0), ("r", None, 0)], "does not start at the root"),
            ([("r", None, 0), ("a", "r", 0), ("b", "r", 1), ("c", "a", 0)],
             "not an open ancestor"),
            ([("r", None, 0), ("b", "r", 1), ("a", "r", 0)],
             "after a sibling it should precede"),
            ([("r", None, 0), ("a", "r", 0), ("s", None, 1)],
             "after a sibling it should precede"),  # a second root
        ],
    )
    def test_every_way_of_leaving_document_order(self, store, layout, problem):
        database = store.database
        database.insert("DOC", {"DOC_ID": 1, "FILE_NAME": "planted.xml"})
        names = [name for name, _, _ in layout]
        addresses = dict(zip(names, store.xml_table.next_rowids(len(layout))))
        for name, parent, ordinal in layout:
            database.insert(XML_TABLE, {
                "NODEID": names.index(name) + 1, "DOC_ID": 1, "NODETYPE": 2,
                "NODENAME": name, "ORDINAL": ordinal,
                "PARENTROWID": addresses.get(parent),
                "PARENTNODEID": names.index(parent) + 1 if parent else None,
            })
        [found] = [
            violation for violation in check_store(database).violations
            if violation.code == "doc-order"
        ]
        assert problem in found.detail

    def test_rowid_order_is_document_node_order(self, store):
        """A plan reads the presentation order off the ROWID: a row whose
        NODEID does not rise with its address is out of order too."""
        database = store.database
        database.insert("DOC", {"DOC_ID": 1, "FILE_NAME": "planted.xml"})
        root, child = store.xml_table.next_rowids(2)
        for node_id, parent in ((7, None), (3, root)):
            database.insert(XML_TABLE, {
                "NODEID": node_id, "DOC_ID": 1, "NODETYPE": 1, "NODENAME": "n",
                "ORDINAL": 0, "PARENTROWID": parent,
                "PARENTNODEID": 7 if parent else None,
            })
        [found] = check_store(database).violations
        assert found.code == "doc-order" and found.rowid == str(child)
        assert "ROWID order is not (DOC_ID, NODEID) order" in found.detail

    def test_structural_loss_survives_repair(self, loaded):
        """Genuinely lost data is still reported after a repair pass."""
        self.seed(loaded, "orphan-node")
        report = repair_store(loaded.database)
        assert "orphan-node" in report.codes()


class TestRepairUnderAWarmPool:
    """Repair is the one writer that edits stored rows in place, so the
    one event that can falsify a pooled lift or a cached answer that
    outlives its stamp: the facade clears the pool and the result cache
    after it."""

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
        # A heading with a wrong parent id and a sibling chain pointing
        # at itself: the links repair fixes, which no read follows — a
        # section is the pass over PARENTROWID in ROWID order.
        report1 = node.store.lookup_by_name("report1.ndoc").doc_id
        heading = node_where(
            node.store, DOC_ID=report1, NODEDATA="Budget"
        ).PARENTROWID
        node.database.update(XML_TABLE, heading, {"PARENTNODEID": 424242})
        node.database.update(XML_TABLE, heading, {"SIBLINGID": heading})
        assert {"parent-id-mismatch", "sibling-chain"} <= node.fsck().codes()
        damaged = self.answers(cached, self.QUERIES)  # warms the pool
        assert damaged == self.answers(bare, self.QUERIES) == clean
        assert self.answers(node.engine, self.QUERIES) == clean
        assert len(node.store.lift_cache) > 0
        report = node.fsck(repair=True)
        assert report.ok and report.repaired >= 2
        assert len(node.store.lift_cache) == 0
        assert self.answers(cached, self.QUERIES) == clean
        assert self.answers(bare, self.QUERIES) == clean

    def test_a_full_cached_answer_is_not_replayed_after_a_repair(
        self, loaded_netmark
    ):
        """A full, ROWID-ordered answer outlives commits while its sections
        stay visible, and repair keeps every ROWID visible: the facade
        clears the result cache beside the pool."""
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
        from repro.ordbms import FileLogDevice

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
