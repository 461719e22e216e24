"""A write is one statement: one CHANGE record and one LSN over every
table it names, checked whole before anything moves."""

import pytest

from repro.errors import ConstraintError, RowIdError, SourceUnavailableError
from repro.ordbms import MemoryLogDevice, recover
from repro.ordbms.snapshot import dump_database
from repro.ordbms.wal import CHANGE
from repro.resilience import FaultPlan
from repro.store import DOC_TABLE, XML_TABLE, XmlStore, check_store
from tests.store.chain import document_rows

TEXT = "<doc><h1>Alpha</h1><p>beta <b>gamma</b></p></doc>"


def durable_store(plan=None):
    device = MemoryLogDevice()
    wrapped = device if plan is None else plan.wrap_log_device(device)
    return XmlStore.open(wrapped), device


def appended(device, landed):
    return device._chunks[landed:]  # noqa: SLF001 - the appends since


def heaps(store):
    """What every table holds, indexes included: slots, probes, tail."""
    return (
        store.dump(),
        [row.rowid for row in store.xml_table.lookup("NODENAME", "doc")],
        [row.rowid for row in store.doc_table.lookup("DOC_ID", 2)],
        store.xml_table.next_rowids(1), store.doc_table.next_rowids(1),
    )


class TestOneRecordOneLsn:
    def test_a_store_is_one_change_record_and_one_lsn(self):
        store, device = durable_store()
        store.store_text("<doc><p>first</p></doc>", "first.xml")
        landed, lsn = len(device._chunks), store.database.mvcc.lsn  # noqa: SLF001
        with store.snapshot():  # holds the pre-images the load leaves
            result = store.store_text(TEXT, "a.xml")
            (record,) = appended(device, landed)
            assert record.split("\t")[1:4] == [CHANGE, DOC_TABLE, "1"]
            assert f"\t{XML_TABLE}\t{result.node_count}\t" in record
            assert store.database.mvcc.lsn == lsn + 1
            stamps = {
                stamp
                for table in (store.doc_table, store.xml_table)
                for entries in table._history.values()  # noqa: SLF001
                for stamp, _ in entries
            }
            assert stamps == {lsn + 1}

    def test_a_delete_is_one_record_too(self):
        store, device = durable_store()
        doc_id = store.store_text(TEXT, "a.xml").doc_id
        landed = len(device._chunks)  # noqa: SLF001
        store.delete_document(doc_id)
        (record,) = appended(device, landed)
        assert record.split("\t")[1:3] == [CHANGE, XML_TABLE]
        assert f"\t{DOC_TABLE}\t1\t" in record
        assert XmlStore.open(device).documents() == []


class TestVisibility:
    def test_a_read_lsn_before_the_statement_sees_neither_table(self):
        store = XmlStore()
        store.store_text("<doc><p>first</p></doc>", "first.xml")
        database = store.database
        with database.open_snapshot() as before:
            result = store.store_text(TEXT, "a.xml")
            pin = before.lsn
            assert store.doc_table.snapshot_search("DOC_ID", result.doc_id, pin) == []
            assert document_rows(database, result.doc_id, pin) == []
            assert [entry.file_name for entry in store.documents(before)] == ["first.xml"]
        now = database.mvcc.read_lsn()
        assert len(store.doc_table.snapshot_search("DOC_ID", result.doc_id, now)) == 1
        assert len(document_rows(database, result.doc_id, now)) == result.node_count


class TestNothingMoves:
    def test_a_duplicate_doc_id_in_the_second_group_leaves_the_first_unmoved(self):
        store, device = durable_store()
        store.store_text(TEXT, "a.xml")
        database, xml, doc = store.database, store.xml_table, store.doc_table
        taken = next(doc.scan())
        stamp = heaps(store), len(device._chunks), database.mvcc.lsn  # noqa: SLF001
        template = dict(zip((c.name for c in xml.schema.columns), next(xml.scan())))
        node = xml.schema.row(template, xml.next_rowids(1)[0])
        twin = doc.schema.row(
            {**dict(zip((c.name for c in doc.schema.columns), taken)), "FILE_NAME": "twin"},
            doc.next_rowids(1)[0],
        )
        with pytest.raises(ConstraintError):
            database.change([(XML_TABLE, [(None, node)]), (DOC_TABLE, [(None, twin)])])
        assert (heaps(store), len(device._chunks), database.mvcc.lsn) == stamp  # noqa: SLF001
        assert check_store(database).ok

    def test_a_refused_append_moves_nothing_in_either_table(self):
        plan = FaultPlan()
        store, device = durable_store(plan)
        store.store_text("<doc><p>first</p></doc>", "first.xml")
        database = store.database
        stamp = heaps(store), database.mvcc.lsn, database.stats.rows_inserted
        plan.fail("wal", "append", kind="unavailable")
        with pytest.raises(SourceUnavailableError):
            store.store_text(TEXT, "a.xml")
        assert (heaps(store), database.mvcc.lsn, database.stats.rows_inserted) == stamp
        assert XmlStore.open(device).dump() == store.dump()

    def test_an_insert_aimed_at_a_tombstone_is_refused(self):
        """No rollback fills a tombstone any more, so nothing may: a live
        statement naming a deleted slot raises, and the heap, its
        indexes and the LSN stay as they were."""
        store, device = durable_store()
        doc_id = store.store_text(TEXT, "a.xml").doc_id
        gone = document_rows(store.database, doc_id)
        store.delete_document(doc_id)
        database = store.database
        stamp = store.dump(), store.xml_table.next_rowids(3), database.mvcc.lsn
        landed = len(device._chunks)  # noqa: SLF001
        with pytest.raises(RowIdError, match="tail"):
            database.change([(XML_TABLE, [(None, gone[0])])])
        assert not any(store.xml_table.exists(row.rowid) for row in gone)
        assert (store.dump(), store.xml_table.next_rowids(3), database.mvcc.lsn) == stamp
        assert appended(device, landed) == []
        assert dump_database(recover(device).database) == store.dump()
