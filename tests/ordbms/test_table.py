"""Table layer: constraints, index maintenance, lookups."""

import pytest

from repro.errors import (
    CatalogError,
    ConstraintError,
    RowIdError,
    SourceUnavailableError,
)
from repro.ordbms import (
    CLOB,
    INTEGER,
    VARCHAR,
    Column,
    Database,
    MemoryLogDevice,
    Table,
    TableSchema,
)
from repro.resilience import FaultPlan
from repro.store import DOC_TABLE, XML_TABLE, XmlStore, check_store
from repro.workloads import CorpusSpec, generate_corpus


@pytest.fixture
def table():
    return Table(
        TableSchema(
            "EMP",
            (
                Column("ID", INTEGER, nullable=False),
                Column("NAME", VARCHAR),
                Column("NOTE", CLOB),
            ),
            primary_key="ID",
        )
    )


class TestConstraints:
    def test_primary_key_uniqueness(self, table):
        table.insert({"ID": 1, "NAME": "a"})
        with pytest.raises(ConstraintError):
            table.insert({"ID": 1, "NAME": "b"})

    def test_unique_constraint_via_schema(self):
        schema = TableSchema(
            "U",
            (Column("ID", INTEGER, nullable=False), Column("EMAIL", VARCHAR)),
            primary_key="EMAIL",
        )
        table = Table(schema)
        table.insert({"ID": 1, "EMAIL": "x@y"})
        with pytest.raises(ConstraintError):
            table.insert({"ID": 2, "EMAIL": "x@y"})
        # NULLs never collide.
        table.insert({"ID": 3})
        table.insert({"ID": 4})

    def test_update_respects_uniqueness(self, table):
        table.insert({"ID": 1})
        rowid = table.insert({"ID": 2})
        with pytest.raises(ConstraintError):
            table.update(rowid, {"ID": 1})

    def test_update_to_same_value_allowed(self, table):
        rowid = table.insert({"ID": 1, "NAME": "a"})
        table.update(rowid, {"ID": 1, "NAME": "b"})
        assert table.fetch(rowid).NAME == "b"

    def test_delete_frees_unique_value(self, table):
        rowid = table.insert({"ID": 1})
        table.delete(rowid)
        table.insert({"ID": 1})  # no error


class TestUniqueCheckIsOneRangeProbe:
    """A batch's unique values are checked against each other, then
    against the stored ones through one range read over the batch's
    [min, max]: its edges count, what lies outside or between does not."""

    STORED = (1, 20, 50)

    @staticmethod
    def inserts(table, ids, column="ID"):
        rowids = table.next_rowids(len(ids))
        return [(None, table.schema.row({"ID": 100 + len(table) + i, column: value}, rowid))
                for i, (value, rowid) in enumerate(zip(ids, rowids))]

    @staticmethod
    def state(table):
        return list(table.scan()), list(table.index_on("ID").items()), table.next_rowids(1)

    @pytest.mark.parametrize("batch, clash", [
        ((5, 7, 5), 5),  # twice in the batch
        ((10, 20, 30), 20),  # a stored value strictly inside [min, max]
        ((20, 25, 40), 20),  # equal to the min
        ((5, 8, 20), 20),  # equal to the max
    ])
    def test_a_duplicate_is_refused_by_name_and_nothing_moves(self, table, batch, clash):
        for value in self.STORED:
            table.insert({"ID": value})
        before = self.state(table)
        with pytest.raises(ConstraintError, match=f"duplicate value {clash} for unique column"):
            table.change(self.inserts(table, batch))
        assert self.state(table) == before

    @pytest.mark.parametrize("batch", [(21, 49), (2, 49), (51, 60), (0,)])
    def test_stored_values_outside_the_batch_or_between_its_values_pass(self, table, batch):
        for value in self.STORED:
            table.insert({"ID": value})
        table.change(self.inserts(table, batch))
        assert sorted(row.ID for row in table.scan()) == sorted(self.STORED + batch)

    def test_a_value_freed_by_a_slot_the_statement_deletes_or_moves_passes(self, table):
        gone, moved = (table.fetch(table.insert({"ID": value})) for value in (20, 30))
        table.change([(gone, None), (moved, moved._replace(ID=31))] + self.inserts(table, (20, 30)))
        assert sorted(row.ID for row in table.scan()) == [20, 30, 31]

    def test_null_unique_values_are_skipped(self):
        table = Table(TableSchema(
            "U", (Column("ID", INTEGER, nullable=False), Column("EMAIL", VARCHAR)),
            primary_key="EMAIL",
        ))
        table.insert({"ID": 1})
        table.change(self.inserts(table, (None, "x@y", None), column="EMAIL"))
        with pytest.raises(ConstraintError, match="duplicate value 'x@y'"):
            table.change(self.inserts(table, (None, "x@y"), column="EMAIL"))
        assert sorted(row.EMAIL or "" for row in table.scan()) == ["", "", "", "x@y"]


class TestIndexMaintenance:
    def test_create_index_backfills(self, table):
        table.insert({"ID": 1, "NAME": "alice"})
        table.insert({"ID": 2, "NAME": "bob"})
        table.create_index("NAME")
        assert [row.ID for row in table.lookup("NAME", "bob")] == [2]

    def test_duplicate_index_rejected(self, table):
        table.create_index("NAME")
        with pytest.raises(CatalogError):
            table.create_index("NAME")

    def test_index_follows_updates(self, table):
        table.create_index("NAME")
        rowid = table.insert({"ID": 1, "NAME": "old"})
        table.update(rowid, {"NAME": "new"})
        assert table.lookup("NAME", "old") == []
        assert [row.ID for row in table.lookup("NAME", "new")] == [1]

    def test_index_follows_deletes(self, table):
        table.create_index("NAME")
        rowid = table.insert({"ID": 1, "NAME": "gone"})
        table.delete(rowid)
        assert table.lookup("NAME", "gone") == []

    def test_text_index_backfills_and_follows(self, table):
        rowid = table.insert({"ID": 1, "NOTE": "engine anomaly report"})
        index = table.create_text_index("NOTE")
        assert index.lookup_all(["anomaly"]) == {rowid}
        table.update(rowid, {"NOTE": "budget review"})
        assert index.lookup_all(["anomaly"]) == set()
        assert index.lookup_all(["budget"]) == {rowid}

    def test_restore_reindexes(self, table):
        """A deleted row is never put back in its tombstone; inserted
        again, it takes the tail and the index follows it there."""
        table.create_index("NAME")
        rowid = table.insert({"ID": 1, "NAME": "alice"})
        gone = table.delete(rowid)
        with pytest.raises(RowIdError):
            table.change([(None, gone)])
        assert table.lookup("NAME", "alice") == []
        again = table.insert({"ID": 1, "NAME": "alice"})
        assert again != rowid
        assert [row.rowid for row in table.lookup("NAME", "alice")] == [again]


class TestAccess:
    def test_fetch_includes_rowid_pseudo_column(self, table):
        rowid = table.insert({"ID": 1})
        assert table.fetch(rowid).rowid == rowid

    def test_fetch_raises_for_dead(self, table):
        rowid = table.insert({"ID": 1})
        table.delete(rowid)
        with pytest.raises(RowIdError):
            table.fetch(rowid)

    def test_scan_with_expr_predicate(self, table):
        for i in range(5):
            table.insert({"ID": i})
        rows = list(table.scan(lambda row: row.ID >= 3))
        assert sorted(row.ID for row in rows) == [3, 4]

    def test_scan_with_callable_predicate(self, table):
        for i in range(5):
            table.insert({"ID": i})
        rows = list(table.scan(lambda row: row.ID % 2 == 0))
        assert sorted(row.ID for row in rows) == [0, 2, 4]

    def test_lookup_without_index_scans(self, table):
        table.insert({"ID": 1, "NAME": "x"})
        assert [row.ID for row in table.lookup("NAME", "x")] == [1]

    def test_len(self, table):
        for i in range(3):
            table.insert({"ID": i})
        assert len(table) == 3


def xml_rows(store, count):
    """Node rows for the next ``count`` free XML slots, each a copy of a
    stored row's columns (tests only build rows; nothing edits one)."""
    xml = store.xml_table
    row = next(xml.scan())
    return [xml.schema.row_of_image(row[:-1], rowid) for rowid in xml.next_rowids(count)]


def load(store, corpus):
    for file in corpus:
        store.store_text(file.text, file.name)
    store.replace_text(corpus[0].text.replace("the", "a"), corpus[0].name)
    store.delete_document(store.lookup_by_name(corpus[1].name).doc_id)


class TestTheOneDoor:
    """``Table.change(pairs)``: every slot must hold its ``before``, or
    nothing moves; a change and its reverse leave the table as it was;
    a batch is one statement."""

    def test_a_slot_not_holding_before_refuses_and_nothing_moves(self, table):
        rowid = table.insert({"ID": 1, "NAME": "a"})
        row, journal = table.fetch(rowid), []

        def refused(before, after):
            with pytest.raises(RowIdError):
                table.change([(before, after)], lambda *change: journal.append(change))

        refused(table.schema.row({"ID": 1, "NAME": "b"}, rowid), None)  # stale
        refused(None, row)  # the slot is not free
        table.delete(rowid)
        refused(row, None)  # the slot is free now
        refused(None, row)  # a tombstone is never filled again
        refused(None, table.schema.row({"ID": 2}, table.next_rowids(2)[1]))  # no slot
        assert journal == [] and len(table) == 0 and table.lookup("ID", 1) == []

    def test_a_change_and_its_reverse(self, table):
        table.create_index("NAME")
        rowid = table.insert({"ID": 1, "NAME": "a"})
        before = table.fetch(rowid)
        after = table.schema.row({"ID": 1, "NAME": "b"}, rowid)
        table.change([(before, after)])
        assert table.lookup("NAME", "b") == [after]
        table.change([(after, before)])
        assert table.lookup("NAME", "a") == [before] and table.lookup("NAME", "b") == []

    def test_a_wrong_slot_at_pair_k_moves_nothing(self, table):
        table.create_index("NAME")
        kept = table.fetch(table.insert({"ID": 1, "NAME": "kept"}))
        free = table.next_rowids(3)
        fresh = [table.schema.row({"ID": 10 + i}, rowid) for i, rowid in enumerate(free)]
        stale = table.schema.row({"ID": 1, "NAME": "stale"}, kept.rowid)
        journal = []
        for batch in (
            [(None, fresh[0]), (None, fresh[1]), (stale, None)],  # a stale before
            [(None, fresh[0]), (None, fresh[2])],  # a slot skipped
            [(None, fresh[0]), (None, kept)],  # a live slot taken for free
        ):
            with pytest.raises(RowIdError):
                table.change(batch, lambda *step: journal.append(step))
        assert journal == [] and list(table.scan()) == [kept]
        assert table.lookup("NAME", "kept") == [kept] and table.next_rowids(3) == free

    def test_two_rows_with_one_doc_id_move_nothing(self):
        store = XmlStore()
        store.store_text("<doc><h1>Kept</h1><p>text</p></doc>", "kept.xml")
        dumped, doc = store.dump(), store.doc_table
        template = dict(zip((c.name for c in doc.schema.columns), next(doc.scan())))
        for doc_ids in ((98, 98), (97, 1)):  # within the batch; with a stored row
            rows = [
                doc.schema.row({**template, "DOC_ID": doc_id, "FILE_NAME": f"{doc_id}.xml"}, rowid)
                for doc_id, rowid in zip(doc_ids, doc.next_rowids(2))
            ]
            with pytest.raises(ConstraintError):
                store.database.change([(DOC_TABLE, [(None, row) for row in rows])])
        assert store.dump() == dumped and check_store(store.database).ok

    def test_two_pairs_on_one_slot_are_refused(self, table):
        row = table.fetch(table.insert({"ID": 1, "NAME": "a"}))
        edited = table.schema.row({"ID": 1, "NAME": "b"}, row.rowid)
        for batch in ([(row, edited), (edited, None)], [(row, None), (None, row)]):
            with pytest.raises(RowIdError):
                table.change(batch)
        assert list(table.scan()) == [row]

    def test_a_refused_statement_moves_nothing(self):
        plan, device = FaultPlan(), MemoryLogDevice()
        store = XmlStore.open(plan.wrap_log_device(device))
        store.store_text("<doc><h1>Kept</h1><p>text</p></doc>", "kept.xml")
        dumped, database = store.dump(), store.database
        rows, inserted = xml_rows(store, 5), database.stats.rows_inserted
        lsn = database.mvcc.lsn
        plan.fail("wal", "append", kind="unavailable")
        with pytest.raises(SourceUnavailableError):
            database.change([(XML_TABLE, [(None, row) for row in rows])])
        assert database.stats.rows_inserted == inserted and database.mvcc.lsn == lsn
        assert not any(store.xml_table.exists(row.rowid) for row in rows)
        assert store.xml_table.next_rowids(5) == [row.rowid for row in rows]
        assert store.dump() == dumped
        assert XmlStore.open(device).dump() == dumped
        assert check_store(database).ok

    def test_a_batch_publishes_one_lsn_and_one_history_entry_per_row(self):
        store = XmlStore()
        store.store_text("<doc><p>first</p></doc>", "first.xml")
        mvcc = store.database.mvcc
        with store.snapshot():  # holds the history the load leaves
            lsn = mvcc.lsn
            result = store.store_text("<doc><h1>A</h1><p>b <b>c</b></p></doc>", "a.xml")
            assert mvcc.lsn == lsn + 1  # the DOC row and every node row
            history = store.xml_table._history  # noqa: SLF001 - the pre-images
            assert store.xml_table.version_count == result.node_count
            stamps = {stamp for entries in history.values() for stamp, _ in entries}
            assert stamps == {lsn + 1}

    def test_a_batch_and_its_one_pair_calls_recover_to_the_same_dump(self, monkeypatch):
        corpus = generate_corpus(CorpusSpec(documents=6, seed=5))
        batched_log, single_log = MemoryLogDevice(), MemoryLogDevice()
        batched = XmlStore.open(batched_log)
        load(batched, corpus)
        real = Database.change

        def one_pair_at_a_time(self, groups):
            for table_name, pairs in groups:
                for pair in pairs:
                    real(self, [(table_name, [pair])])

        monkeypatch.setattr(Database, "change", one_pair_at_a_time)
        single = XmlStore.open(single_log)
        load(single, corpus)
        assert single.dump() == batched.dump()
        monkeypatch.undo()
        for device in (batched_log, single_log):
            assert XmlStore.open(device).dump() == batched.dump()
        # A statement is one record: the batches wrote fewer.
        assert len(batched_log.read_log().split("\n")) < len(single_log.read_log().split("\n"))
        assert batched.database.mvcc.lsn < single.database.mvcc.lsn
