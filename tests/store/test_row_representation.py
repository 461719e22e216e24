"""One row representation: the stored tuple is the row, heap to plan.

Pinned here rather than assumed: (a) no stored, logged or served byte
moved when rows stopped being dicts — a golden whose values were
computed at the commit before the change; (b) every read door hands
back the very object the heap holds; (c) the write door's contract;
(d) what a row cannot carry is refused with a typed error at each door
it could come in by.
"""

import datetime as dt
import hashlib
import json

import pytest

from repro import Netmark
from repro.errors import (
    DatabaseError,
    RecoveryError,
    SchemaError,
    TypeMismatchError,
)
from repro.ordbms import (
    CLOB,
    FLOAT,
    INTEGER,
    TIMESTAMP,
    VARCHAR,
    Column,
    Database,
    MemoryLogDevice,
    RowId,
    Table,
    TableSchema,
    WriteAheadLog,
    dump_database,
    load_database,
    recover,
)
from repro.store import XmlStore
from repro.store.fsck import check_store
from repro.store.schema import XML_TABLE, XmlRow
from repro.workloads import CorpusSpec, generate_corpus


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestNoByteMoved:
    """Twelve generated documents through the daemon onto a WAL, one
    replaced, one deleted.  The digests are the parent commit's."""

    GOLDEN = {
        "wal": "ff73d6dfccfb5e8c7b24b0ccf792c4088db0726e797e996fff480ae759789573",
        "dump_rows": "3e99360ed2152910ed6f6648c3553485ccfac280ee08de44b3d300d6432c12d0",
        "fsck_violations": "1294497e53bcca2038faead66d0d0d4ef4c70a1122e6b540ad15e4b3773c5ad1",
        "search_bodies": [
            "911c534018a5964c6cf3ea20fe6f659a0a84aece7a1fb098cdbe34d59c621e3e",
            "aeca9c88057a41e45e39c35c5474a357c06fa87b6e2db7d3d28440c894473e91",
            "b3dfc66c42ef8eafaab5e322ca33cafc469302e69c54c2143b5dac4cd4ee1147",
        ],
    }

    def test_wal_dump_fsck_and_responses_are_the_parents(self):
        device = MemoryLogDevice()
        node = Netmark(device=device)
        files = generate_corpus(CorpusSpec(documents=12, seed=21))
        for file in files:
            node.ingest(file.name, file.text)
        node.ingest(files[2].name, files[7].text)  # one replace
        doomed = node.store.lookup_by_name(files[4].name)
        node.store.delete_document(doomed.doc_id)
        bodies = [
            node.http_get(target).body
            for target in (
                "/search?Context=Objectives",
                "/search?Content=system&limit=3",
                "/search?Nodename=context&limit=4",
            )
        ]
        wal = device.read_log()
        dump = "\n".join(
            line for line in node.store.dump().split("\n")
            if line.startswith(("ROW ", "TOMB "))
        )
        # Damage two links through the in-place door so fsck has
        # something to say: the root's first child gets a wrong parent
        # id and a sibling link that points back at the root.
        root, child = node.store.xml_table.index_on("DOC_ID").search(1)[:2]
        node.database.update(XML_TABLE, child, {"PARENTNODEID": 0})
        node.database.update(XML_TABLE, child, {"SIBLINGID": root})
        violations = [
            [v.code, v.table, v.rowid, v.doc_id, v.detail]
            for v in check_store(node.database).violations
        ]
        assert len(violations) == 2
        assert {
            "wal": _sha(wal),
            "dump_rows": _sha(dump),
            "fsck_violations": _sha(json.dumps(violations)),
            "search_bodies": [_sha(body) for body in bodies],
        } == self.GOLDEN


def _schema() -> TableSchema:
    return TableSchema(
        "EMP",
        (
            Column("ID", INTEGER, nullable=False),
            Column("NAME", VARCHAR),
            Column("NOTE", CLOB, default=""),
            Column("SCORE", FLOAT),
            Column("SEEN", TIMESTAMP),
        ),
        primary_key="ID",
    )


def _durable() -> Database:
    database = Database("rows")
    database.create_table(_schema()).create_index("NAME")
    database.enable_wal(MemoryLogDevice())
    database.insert("EMP", {"ID": 1, "NAME": "ride"})
    database.insert("EMP", {"ID": 2, "NAME": "ride"})
    return database


DATABASES = {
    "fresh": _durable,
    "recovered": lambda: recover(_durable().wal.device).database,
    "loaded": lambda: load_database(dump_database(_durable())),
}


@pytest.mark.parametrize("opened", DATABASES)
class TestTheStoredObjectIsTheRow:
    def test_every_read_door_hands_back_the_heaps_object(self, opened):
        database = DATABASES[opened]()
        table = database.table("EMP")
        lsn = database.mvcc.read_lsn(None)
        first, second = table.scan()
        assert table.fetch(first.rowid) is first
        assert database.fetch("EMP", first.rowid) is first
        assert table.visible_many([first.rowid], lsn)[0] is first
        assert table.visible_row(second.rowid, lsn) is second
        for door in (
            table.lookup("NAME", "ride"),  # by index
            table.lookup("NOTE", ""),  # by scan
            list(table.snapshot_scan(lsn)),
            table.snapshot_search("NAME", "ride", lsn),
            table.snapshot_search("NOTE", "", lsn),
        ):
            assert len(door) == 2
            assert door[0] is first and door[1] is second
        [after] = table.rows_after(first.rowid, lsn)
        assert after is second

    def test_delete_returns_it_and_restore_puts_it_back(self, opened):
        database = DATABASES[opened]()
        table = database.table("EMP")
        stored = next(table.scan())
        assert table.delete(stored.rowid) is stored
        table.restore(stored)
        assert table.fetch(stored.rowid) is stored
        assert table.lookup("NAME", "ride")[0] is stored

    def test_history_keeps_it_and_undo_puts_it_back(self, opened):
        database = DATABASES[opened]()
        table = database.table("EMP")
        stored = next(table.scan())
        with database.open_snapshot() as pinned:
            with pytest.raises(TypeMismatchError):
                with database.begin():
                    database.update("EMP", stored.rowid, {"NAME": "resnik"})
                    assert table.fetch(stored.rowid).NAME == "resnik"
                    assert table.visible_row(stored.rowid, pinned.lsn) is stored
                    database.delete("EMP", stored.rowid)
                    database.insert("EMP", {"ID": "three"})  # rolls back
            assert table.visible_row(stored.rowid, pinned.lsn) is stored
        assert table.fetch(stored.rowid) is stored

    def test_a_row_is_a_tuple_and_not_a_mapping(self, opened):
        table = DATABASES[opened]().table("EMP")
        row = next(table.scan())
        assert type(row) is table.schema.row_type
        assert row == (1, "ride", "", None, None, row.rowid)
        with pytest.raises(TypeError):
            row["NAME"]
        assert not hasattr(row, "keys") and not hasattr(row, "items")
        with pytest.raises(AttributeError):
            row.NAME = "edited"


class TestRowTypes:
    def test_one_class_per_table_however_often_the_schema_is_built(self):
        assert _schema().row_type is _schema().row_type
        assert XmlStore().xml_table.schema.row_type is XmlRow
        other = TableSchema("OTHER", _schema().columns)
        assert other.row_type is not _schema().row_type
        assert other.row_type._fields == _schema().row_type._fields


@pytest.fixture
def table():
    return Table(_schema())


MOMENT = dt.datetime(2005, 6, 14, 12, 0)


class TestTheWriteDoor:
    """``Table.insert``: one pass over the columns — default, type rule,
    NOT NULL — and keys matched as stored."""

    @pytest.mark.parametrize(
        "values, stored",
        [
            pytest.param(
                {"ID": 1, "NAME": "a", "NOTE": "n", "SCORE": 0.5, "SEEN": MOMENT},
                (1, "a", "n", 0.5, MOMENT),
                id="full-row",
            ),
            pytest.param({"ID": 1}, (1, None, "", None, None), id="defaults"),
            pytest.param(
                {"ID": 1, "NOTE": None}, (1, None, None, None, None),
                id="null-said-is-not-defaulted",
            ),
            pytest.param(
                {"ID": 1, "SCORE": 3}, (1, None, "", 3.0, None), id="int-for-float"
            ),
            pytest.param(
                {"ID": 1, "SEEN": "2005-06-14T12:00:00"},
                (1, None, "", None, MOMENT),
                id="iso-text-for-timestamp",
            ),
        ],
    )
    def test_what_is_stored(self, table, values, stored):
        row = table.fetch(table.insert(values))
        assert row[:-1] == stored
        assert [type(value) for value in row[:-1]] == [
            type(value) for value in stored
        ]

    @pytest.mark.parametrize(
        "values, refusal",
        [
            pytest.param({"NAME": "a"}, TypeMismatchError, id="not-null"),
            pytest.param({"ID": None}, TypeMismatchError, id="null-said-in-not-null"),
            pytest.param({"ID": 1, "BOGUS": 2}, SchemaError, id="unknown-column"),
            pytest.param({"id": 1}, SchemaError, id="keys-are-matched-as-stored"),
            pytest.param(
                {"ID": 1, "rowid": RowId(0, 0, 0)}, SchemaError,
                id="the-address-is-not-a-column",
            ),
            pytest.param({"ID": "one"}, TypeMismatchError, id="wrong-type"),
            pytest.param({"ID": True}, TypeMismatchError, id="bool-for-integer"),
            pytest.param(
                {"ID": 1, "SCORE": True}, TypeMismatchError, id="bool-for-float"
            ),
            pytest.param({"ID": 1, "NAME": 7}, TypeMismatchError, id="int-for-varchar"),
            pytest.param(
                {"ID": 1, "SEEN": "not a date"}, TypeMismatchError, id="bad-iso-text"
            ),
        ],
    )
    def test_what_is_refused(self, table, values, refusal):
        with pytest.raises(refusal):
            table.insert(values)
        assert len(table) == 0
        assert table.insert({"ID": 1}) == RowId(0, 0, 0)  # no address spent

    @pytest.mark.parametrize(
        "changes, refusal",
        [
            ({"ID": None}, TypeMismatchError),
            ({"BOGUS": 2}, SchemaError),
            ({"rowid": RowId(9, 9, 9)}, SchemaError),
            ({"SCORE": "high"}, TypeMismatchError),
        ],
    )
    def test_update_goes_through_the_same_pass(self, table, changes, refusal):
        rowid = table.insert({"ID": 1, "NAME": "a"})
        stored = table.fetch(rowid)
        with pytest.raises(refusal):
            table.update(rowid, changes)
        assert table.fetch(rowid) is stored
        table.update(rowid, {"SCORE": 2})
        assert table.fetch(rowid) == (1, "a", "", 2.0, None, rowid)


class TestWhatARowCannotCarry:
    def test_a_column_may_be_called_rowid_underscore(self):
        """The address lives under lower-case ``rowid``; no upper-cased
        column name can clash with it, ``ROWID_`` included."""
        table = Table(TableSchema("T", (Column("ROWID_", VARCHAR),)))
        rowid = table.insert({"ROWID_": "mine"})
        row = table.fetch(rowid)
        assert (row.ROWID_, row.rowid) == ("mine", rowid)
        assert Column("rowid", INTEGER).name == "ROWID"

    @pytest.mark.parametrize(
        "name", ["1A", "_X", "A B", "A-B", pytest.param("", id="empty"), "__class__"]
    )
    def test_a_column_name_is_an_identifier_not_led_by_underscore(self, name):
        with pytest.raises(SchemaError):
            Column(name, INTEGER)

    @pytest.mark.parametrize("name", ["1A", "_X"])
    def test_a_hostile_schema_line_is_a_schema_error(self, name):
        text = dump_database(_durable()).replace("NAME:VARCHAR", f"{name}:VARCHAR")
        with pytest.raises(SchemaError):
            load_database(text)

    @pytest.mark.parametrize(
        "image", [(3,), (3, "a", "", None, None, "extra")], ids=["short", "long"]
    )
    def test_a_wal_image_of_the_wrong_width_is_refused_at_replay(self, image):
        database = _durable()
        device = database.wal.device
        wal = WriteAheadLog(device, start_lsn=database.wal.next_lsn)
        wal.log_insert(0, "EMP", RowId(0, 0, 2), image)
        with pytest.raises(RecoveryError):
            recover(device)

    @pytest.mark.parametrize(
        "payload", ["i:3", "i:3\ts:a\ts:\t~\t~\ts:extra"], ids=["short", "long"]
    )
    def test_a_checkpoint_row_of_the_wrong_width_is_refused_at_load(self, payload):
        text = dump_database(_durable()) + f"ROW F0.B0.S2 {payload}\n"
        with pytest.raises(DatabaseError):
            load_database(text)
