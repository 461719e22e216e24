"""Database snapshots: exact restoration including physical ROWIDs."""

import datetime as dt
import enum
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatabaseError, ReproError, RowIdError
from repro.ordbms import (
    ALL_TYPES,
    CLOB,
    Column,
    Database,
    FLOAT,
    INTEGER,
    MemoryLogDevice,
    ROWID,
    RowId,
    TIMESTAMP,
    TableSchema,
    VARCHAR,
    recover,
)
from repro.ordbms.snapshot import MAGIC, dump_database, load_database
from repro.ordbms.valuecodec import escape, unescape_value
from repro.ordbms.wal import encode_checkpoint
from repro.store import XmlStore, check_store

#: The column type each kind of value is stored under.
TYPE_OF = {int: INTEGER, float: FLOAT, str: VARCHAR, dt.datetime: TIMESTAMP, RowId: ROWID}


def column_round_trip(dtype, value):
    """``value`` packed and unpacked by a one-column schema of ``dtype``."""
    schema = TableSchema("C", (Column("V", dtype),))
    (packed,) = schema.pack((value,))
    return schema.unpack([packed], RowId(0)).V


def build_sample() -> tuple[Database, list[RowId]]:
    database = Database("sample")
    table = database.create_table(
        TableSchema(
            "T",
            (
                Column("ID", INTEGER, nullable=False),
                Column("NAME", VARCHAR),
                Column("NOTE", CLOB),
                Column("WHEN_", TIMESTAMP),
            ),
            primary_key="ID",
        )
    )
    table.create_index("NAME")
    table.create_index("NOTE")
    table.create_text_index("NOTE")
    rowids = []
    for index in range(5):
        rowids.append(
            database.insert(
                "T",
                {
                    "ID": index,
                    "NAME": f"name{index}",
                    "NOTE": f"some note text {index}",
                    "WHEN_": dt.datetime(2005, 6, 14, index),
                },
            )
        )
    database.delete("T", rowids[2])  # leave a tombstone in the middle
    return database, rowids


class TestValueCoding:
    @pytest.mark.parametrize(
        "value",
        [None, 0, -17, 3.5, "", "plain", "tab\there\nnewline\\slash",
         dt.datetime(2005, 6, 14, 12, 30), pytest.param(RowId(1234), id="value8")],
    )
    def test_round_trip(self, value):
        assert column_round_trip(TYPE_OF.get(type(value), VARCHAR), value) == value

    def test_bad_value_rejected(self):
        """No value reaches the codec but through its column's type rule."""
        database, _ = build_sample()
        for value in (object(), True):
            with pytest.raises(DatabaseError):
                database.insert("T", {"ID": value})

    def test_bad_text_rejected(self):
        with pytest.raises(DatabaseError):
            TableSchema("C", (Column("V", INTEGER),)).unpack(["x:nope"], RowId(0))


class TestRoundTrip:
    def test_rows_and_rowids_identical(self):
        database, rowids = build_sample()
        restored = load_database(dump_database(database))
        table = restored.table("T")
        assert len(table) == 4
        for rowid in rowids:
            if rowid == rowids[2]:
                assert not table.exists(rowid)  # tombstone preserved
            else:
                original = database.table("T").fetch(rowid)
                copy = table.fetch(rowid)
                assert copy == original

    def test_new_inserts_do_not_reuse_slots(self):
        database, rowids = build_sample()
        restored = load_database(dump_database(database))
        new_rowid = restored.insert("T", {"ID": 99, "NAME": "new"})
        assert new_rowid not in rowids  # appended after the restored slots

    def test_schema_restored(self):
        database, _ = build_sample()
        restored = load_database(dump_database(database))
        schema = restored.table("T").schema
        assert schema.primary_key == "ID"
        assert schema.column("WHEN_").dtype.name == "TIMESTAMP"

    def test_indexes_rebuilt_and_enforced(self):
        database, _ = build_sample()
        restored = load_database(dump_database(database))
        table = restored.table("T")
        assert table.index_on("NOTE") is not None
        assert table.text_index_on("NOTE") is not None
        assert [row.ID for row in table.lookup("NAME", "name1")] == [1]
        from repro.errors import ConstraintError

        with pytest.raises(ConstraintError):
            restored.insert("T", {"ID": 1, "NAME": "another"})

    def test_text_index_rebuilt(self):
        database, _ = build_sample()
        restored = load_database(dump_database(database))
        index = restored.table("T").text_index_on("NOTE")
        assert len(index.lookup_all(["note"])) == 4

    def test_double_round_trip_stable(self):
        database, _ = build_sample()
        once = dump_database(database)
        twice = dump_database(load_database(once))
        assert once == twice

    def test_bad_magic_rejected(self):
        with pytest.raises(DatabaseError):
            load_database("not a snapshot")

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.text(max_size=25) | st.none(),
            ),
            max_size=80,
            unique_by=lambda pair: pair[0],
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, rows):
        database = Database()
        database.create_table(
            TableSchema(
                "P",
                (Column("K", INTEGER, nullable=False), Column("V", VARCHAR)),
                primary_key="K",
            )
        )
        for key, value in rows:
            database.insert("P", {"K": key, "V": value})
        restored = load_database(dump_database(database))
        original_rows = sorted(
            (row.K, row.V) for row in database.table("P").scan()
        )
        restored_rows = sorted(
            (row.K, row.V) for row in restored.table("P").scan()
        )
        assert original_rows == restored_rows


class TestXmlStoreRestore:
    def test_store_round_trip_with_queries(self):
        from repro.query import QueryEngine
        from repro.sgml.serializer import serialize
        from repro.store import XmlStore

        store = XmlStore()
        store.store_text("# Budget\ntravel dollars\n", "a.md")
        store.store_text("%NPDF-1.0\n[F14] Cost\n[F10] shuttle body\n", "b.npdf")
        snapshot = store.dump()

        restored = XmlStore.restore(snapshot)
        assert len(restored) == 2
        # Documents reconstruct identically.
        for doc_id in (1, 2):
            assert serialize(restored.document(doc_id)) == serialize(
                store.document(doc_id)
            )
        # Queries work (text index was rebuilt).
        engine = QueryEngine(restored)
        assert len(engine.execute("Context=Budget")) == 1
        assert len(engine.execute("Content=shuttle")) == 1

    def test_id_allocators_resume(self):
        from repro.store import XmlStore

        store = XmlStore()
        store.store_text("# A\nx\n", "a.md")
        restored = XmlStore.restore(store.dump())
        result = restored.store_text("# B\ny\n", "b.md")
        assert result.doc_id == 2
        assert check_store(restored.database).ok  # DOC_ID still rises with the ROWID


def _small_store_dump() -> str:
    store = XmlStore()
    store.store_text("# Budget\n\ntravel *dollars* 12\n\n## Cost\n\nshuttle\n", "a.md")
    store.store_text("<doc><h1>Alpha</h1><p>beta <b>gamma</b></p></doc>", "b.xml")
    store.delete_document(store.lookup_by_name("a.md").doc_id)  # tombstones
    store.store_text("# Plan\n\nnext\n", "c.md")
    return store.dump()


class TestLoadWritesNoHistory:
    def test_a_load_moves_no_lsn_and_leaves_nothing_to_reclaim(self):
        """No reader predates a load, so it keeps no pre-image and takes
        no LSN; the loaded tables still share the database's MVCC state
        for every write after it."""
        restored = load_database(_small_store_dump())  # 3 documents, 1 deleted
        mvcc = restored.mvcc
        assert (mvcc.lsn, mvcc.reclaimed_total) == (0, 0)
        assert all(table.version_count == 0 for table in restored.catalog)
        doc = restored.table("DOC")
        rowid = next(doc.scan()).rowid
        with restored.open_snapshot() as snapshot:
            restored.delete("DOC", rowid)
            assert doc.visible_row(rowid, snapshot.lsn) is not None
        assert doc.visible_row(rowid, mvcc.lsn) is None
        assert mvcc.lsn == 1


def _mutate(rng: random.Random, text: str) -> str:
    """One edit: a character deleted, replaced or inserted, a line dropped
    or doubled, or one tab-separated field emptied."""
    alphabet = "\t\n :~!|-.,>0123456789ifstrXF" + text
    at, lines = rng.randrange(len(text)), text.split("\n")
    line = rng.randrange(len(lines))
    edit = rng.randrange(6)
    if edit == 0:
        return text[:at] + text[at + 1:]
    if edit == 1:
        return text[:at] + rng.choice(alphabet) + text[at + 1:]
    if edit == 2:
        return text[:at] + rng.choice(alphabet) + text[at:]
    if edit == 3:
        del lines[line]
    elif edit == 4:
        lines.insert(line, lines[line])
    else:
        fields = lines[line].split("\t")
        fields[rng.randrange(len(fields))] = ""
        lines[line] = "\t".join(fields)
    return "\n".join(lines)


class TestHostileSnapshots:
    """The snapshot loader answers a damaged dump with a store or a
    :mod:`repro.errors` type, never a stray builtin exception."""

    def test_seeded_mutations_raise_only_typed_errors(self):
        dump, rng = _small_store_dump(), random.Random(20)
        for _ in range(3000):
            mutant = _mutate(rng, dump)
            for load in (load_database, XmlStore.restore):
                try:
                    load(mutant)
                except ReproError:
                    pass

    @pytest.mark.parametrize("edit", [
        # A SCHEMA line one tab field short.
        lambda dump: dump.replace("\tNODEDATA\n", "\n", 1),
        # An INTEGER value with no text.
        lambda dump: dump.replace("\t2\t", "\t\t", 1),
        # A value its (primary-key) column's type cannot read.
        lambda dump: dump.replace("ROW 1 ", "ROW 1 x", 1),
        # A renamed column: the table is no longer NETMARK's.
        lambda dump: dump.replace("PARENTROWID:", "PARENTROWIX:", 1),
    ])
    def test_one_edit_is_refused_with_a_typed_error(self, edit):
        dump = _small_store_dump()
        mutant = edit(dump)
        assert mutant != dump
        with pytest.raises(ReproError):
            XmlStore.restore(mutant)

    @pytest.mark.parametrize("text", ["i:", "f:", "t:", "i:x", "f:1.2.3", "t:noon"])
    def test_an_empty_or_bad_body_is_a_database_error(self, text):
        """``i:x`` is ``x`` dumped in an INTEGER column: the letter names
        the column type the body is read by."""
        letter, _, body = text.partition(":")
        dtype = {"i": INTEGER, "f": FLOAT, "t": TIMESTAMP}[letter]
        with pytest.raises(DatabaseError):
            TableSchema("C", (Column("V", dtype),)).unpack([body], RowId(0))

    @pytest.mark.parametrize("escaped", ["Alpha\\q", "Alpha\\"], ids=["unknown", "lone"])
    def test_a_malformed_escape_is_a_database_error(self, escaped):
        """An escape the codec never writes loads no value nobody wrote."""
        dump = _small_store_dump()
        assert "\tAlpha\t" in dump
        for load in (load_database, XmlStore.restore):
            with pytest.raises(DatabaseError, match="escape|backslash"):
                load(dump.replace("\tAlpha\t", f"\t{escaped}\t"))

    def test_a_version_1_dump_is_refused_by_its_magic_line(self):
        """The tagged dialect (``i:``, ``s:``...) is not read as this one:
        a dump of it, and a checkpoint holding one, are refused whole."""
        for load in (load_database, XmlStore.restore):
            with pytest.raises(DatabaseError, match="magic"):
                load(VERSION_1_DUMP)
        device = MemoryLogDevice()
        device.save_checkpoint(encode_checkpoint(0, VERSION_1_DUMP))
        for reopen in (recover, XmlStore.open):
            with pytest.raises(DatabaseError, match="magic"):
                reopen(device)


    def test_a_version_2_dump_is_refused_by_its_magic_line(self):
        """Version 2 addressed a slot as ``F<file>.B<block>.S<slot>``: a
        dump of it, and a checkpoint holding one, are refused whole; and
        such an address under this version's magic is a typed error."""
        version_2 = re.sub(
            r"^(ROW|TOMB) (\d+)",
            lambda m: "%s F0.B%d.S%d" % (m[1], *divmod(int(m[2]), 64)),
            _small_store_dump().replace(MAGIC, "%NETMARK-SNAPSHOT 2", 1),
            flags=re.MULTILINE,
        )
        assert "\nROW F0.B0.S1 " in version_2 and "\nTOMB F0.B0.S" in version_2
        for load in (load_database, XmlStore.restore):
            with pytest.raises(DatabaseError, match="magic"):
                load(version_2)
        device = MemoryLogDevice()
        device.save_checkpoint(encode_checkpoint(0, version_2))
        for reopen in (recover, XmlStore.open):
            with pytest.raises(DatabaseError, match="magic"):
                reopen(device)
        for load in (load_database, XmlStore.restore):
            with pytest.raises(RowIdError, match="malformed ROWID"):
                load(version_2.replace("%NETMARK-SNAPSHOT 2", MAGIC, 1))

    def test_a_version_3_dump_is_refused_by_its_magic_line(self):
        """Version 3 wrote unique and foreign-key fields on each SCHEMA
        line and no ROOTROWID on a DOC row: a dump of it, and a
        checkpoint holding one, are refused whole; and such a SCHEMA line
        under this version's magic is a typed error."""
        for load in (load_database, XmlStore.restore):
            with pytest.raises(DatabaseError, match="magic"):
                load(VERSION_3_DUMP)
        device = MemoryLogDevice()
        device.save_checkpoint(encode_checkpoint(0, VERSION_3_DUMP))
        for reopen in (recover, XmlStore.open):
            with pytest.raises(DatabaseError, match="magic"):
                reopen(device)
        assert device.load_checkpoint() == encode_checkpoint(0, VERSION_3_DUMP)  # left as it was
        for load in (load_database, XmlStore.restore):
            with pytest.raises(DatabaseError, match="SCHEMA has 6 fields, not 4"):
                load(VERSION_3_DUMP.replace("%NETMARK-SNAPSHOT 3", MAGIC, 1))


#: ``<doc><h1>Alpha</h1><p>beta</p></doc>`` as version 3 dumped it.
VERSION_3_DUMP = (
    "%NETMARK-SNAPSHOT 3\nTABLE DOC\nSCHEMA DOC_ID:INTEGER!,FILE_NAME:VARCHAR!,FILE_DATE:TIMESTAMP,"
    "FILE_SIZE:INTEGER,FORMAT:VARCHAR,METADATA:CLOB\tDOC_ID\t-\t-\tFILE_NAME\t-\n"
    "ROW 0 1\tb.xml\t~\t36\txml\tchar_size=36;format=xml;line_count=1\n"
    "TABLE XML\nSCHEMA DOC_ID:INTEGER!,PARENTROWID:ROWID,NODETYPE:INTEGER!,NODENAME:VARCHAR,NODEDATA:CLOB,"
    "ATTRS:CLOB\t-\t-\tDOC_ID>DOC.DOC_ID\tDOC_ID|NODENAME\tNODEDATA\n"
    "ROW 0 1\t~\t1\tdoc\t~\t~\nROW 1 1\t0\t3\th1\t~\t~\nROW 2 1\t1\t2\t~\tAlpha\t~\n"
    "ROW 3 1\t0\t1\tp\t~\t~\nROW 4 1\t3\t2\t~\tbeta\t~\n"
)


#: One Markdown file's store as the previous, tagged codec dumped it:
#: the version 1 dialect.
VERSION_1_DUMP = (
    "%NETMARK-SNAPSHOT 1\nTABLE DOC\nSCHEMA DOC_ID:INTEGER!,FILE_NAME:VARCHAR!,FILE_DATE:TIMESTAMP,"
    "FILE_SIZE:INTEGER,FORMAT:VARCHAR,METADATA:CLOB\tDOC_ID\t-\t-\tFILE_NAME\t-\n"
    "ROW F0.B0.S0 i:1\ts:memo.md\t~\ti:19\ts:markdown\ts:char_size=19;format=markdown;line_count=4\n"
    "TABLE XML\nSCHEMA NODEID:INTEGER!,DOC_ID:INTEGER!,PARENTROWID:ROWID,PARENTNODEID:INTEGER,"
    "SIBLINGID:ROWID,NODETYPE:INTEGER!,NODENAME:VARCHAR,NODEDATA:CLOB,ORDINAL:INTEGER!,ATTRS:CLOB"
    "\tNODEID\t-\tDOC_ID>DOC.DOC_ID\tDOC_ID|NODENAME\tNODEDATA\n"
    "ROW F0.B0.S0 i:1\ti:1\t~\t~\t~\ti:1\ts:document\t~\ti:0\t~\n"
    "ROW F0.B0.S1 i:2\ti:1\tr:F0.B0.S0\ti:1\t~\ti:5\ts:section\t~\ti:0\t~\n"
    "ROW F0.B0.S2 i:3\ti:1\tr:F0.B0.S1\ti:2\tr:F0.B0.S4\ti:3\ts:context\t~\ti:0\t~\n"
    "ROW F0.B0.S3 i:4\ti:1\tr:F0.B0.S2\ti:3\t~\ti:2\t~\ts:Memo\ti:0\t~\n"
    "ROW F0.B0.S4 i:5\ti:1\tr:F0.B0.S1\ti:2\t~\ti:1\ts:content\t~\ti:1\t~\n"
    "ROW F0.B0.S5 i:6\ti:1\tr:F0.B0.S4\ti:5\t~\ti:2\t~\ts:Valve test\ti:0\t~\n"
)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class Name(str):
    pass


class Moment(dt.datetime):
    pass


class Address(RowId):
    pass


#: Text the two layouts separate on, the two tokens, Unicode line
#: breaks ``str.splitlines`` would split on, and escapes never written.
NASTY_TEXT = [
    "", "\t", "\n", "\r", "\\", "~", ".", "~~", "..", "\\t", "\\~", " lead",
    "trail ", " ", "a\tb\nc\rd", "\u2028", "\u0085", "x\u2028y", "\\q", "a\\",
]

#: Per column type, values of it — exact, subclassed, widened — and NULL.
VALUES = {
    INTEGER: st.integers() | st.sampled_from(list(Level)),
    FLOAT: st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]) | st.integers(-9, 9),
    VARCHAR: st.text() | st.sampled_from(NASTY_TEXT) | st.builds(Name, st.sampled_from(NASTY_TEXT)),
    CLOB: st.text() | st.sampled_from(NASTY_TEXT),
    TIMESTAMP: st.datetimes() | st.builds(Moment, st.integers(1, 9999), st.integers(1, 12), st.integers(1, 28)),
    ROWID: st.builds(RowId, st.integers(0, 2**48)) | st.builds(Address, st.integers(0, 999)),
}
#: The exact type each column type stores.
STORED = {INTEGER: int, FLOAT: float, VARCHAR: str, CLOB: str, TIMESTAMP: dt.datetime, ROWID: RowId}


def _same(dtype, stored, back) -> bool:
    """``back`` is ``stored`` as its column keeps it: equal (a float to
    the bit, NaN and -0.0 included) and of exactly the column's type."""
    if stored is None or back is None:
        return stored is back
    if type(back) is not STORED[dtype]:
        return False
    return repr(float(stored)) == repr(back) if dtype is FLOAT else stored == back


class TestValueCodecProperties:
    """The WAL and the dump speak one column-typed codec, and every
    storable value of every column type round-trips through both.

    Recovery promises byte-identical restored state only because the
    log and the checkpoint speak exactly this dialect, so these
    properties are load-bearing for the durability layer.
    """

    SCHEMA = TableSchema(
        "ALL",
        (Column("K", INTEGER, nullable=False),)
        + tuple(Column(f"C{at}", dtype) for at, dtype in enumerate(ALL_TYPES)),
        primary_key="K",
    )

    @given(st.tuples(*(st.none() | VALUES[dtype] for dtype in ALL_TYPES)))
    @settings(max_examples=300, deadline=None)
    def test_value_round_trip(self, values):
        """Through WAL encode, parse and redo, and through dump and load,
        a value comes back equal and of its column's exact type (an
        ``IntEnum`` as an ``int``)."""
        database, device = Database(), MemoryLogDevice()
        database.create_table(self.SCHEMA)
        database.enable_wal(device)
        rowid = database.insert("ALL", {"K": 1, **{f"C{at}": value for at, value in enumerate(values)}})
        stored = database.table("ALL").fetch(rowid)
        for back in (
            recover(device).database.table("ALL").fetch(rowid),
            load_database(dump_database(database)).table("ALL").fetch(rowid),
        ):
            assert back.rowid == rowid and back.K == 1
            assert all(
                _same(dtype, value, got)
                for dtype, value, got in zip(ALL_TYPES, stored[1:-1], back[1:-1])
            ), (stored, back)

    @given(st.tuples(*(st.none() | VALUES[dtype] for dtype in ALL_TYPES)))
    @settings(max_examples=200, deadline=None)
    def test_packed_row_round_trips_as_one_clean_token(self, values):
        schema = TableSchema("P", tuple(Column(f"C{at}", dtype) for at, dtype in enumerate(ALL_TYPES)))
        row = schema.row_of_image(values, RowId(0))
        fields = schema.pack(row)
        # A record is one line of tab-separated fields, an image as many
        # of them as its table has columns: no field holds either.
        assert len(fields) == len(ALL_TYPES)
        assert not any(sep in field for field in fields for sep in "\t\n\r")
        back = schema.unpack("\t".join(fields).split("\t"), row.rowid)
        assert all(_same(dtype, *pair) for dtype, *pair in zip(ALL_TYPES, row, back))

    @given(st.text() | st.sampled_from(NASTY_TEXT))
    @settings(max_examples=200, deadline=None)
    def test_escape_round_trip(self, text):
        escaped = escape(text)
        assert unescape_value(escaped) == text
        assert not any(sep in escaped for sep in "\t\n\r")
        assert escaped not in ("~", ".")  # it reads as NULL, or as no image
        assert escaped.count(" ") == text.count(" ")  # a space is one byte


class TestTombstoneStability:
    @given(
        st.lists(st.integers(0, 19), max_size=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_dump_load_preserves_live_and_dead_slots(self, deletions):
        """Any delete pattern: dump/load keeps every surviving ROWID at
        its slot and every tombstone dead, byte-stably."""
        database = Database()
        database.create_table(
            TableSchema(
                "P",
                (Column("K", INTEGER, nullable=False), Column("V", VARCHAR)),
                primary_key="K",
            )
        )
        rowids = [
            database.insert("P", {"K": key, "V": f"v{key}"})
            for key in range(20)
        ]
        dead = set()
        for victim in deletions:
            if victim not in dead:
                database.delete("P", rowids[victim])
                dead.add(victim)
        restored = load_database(dump_database(database))
        table = restored.table("P")
        for index, rowid in enumerate(rowids):
            if index in dead:
                assert not table.exists(rowid)
            else:
                assert table.fetch(rowid).K == index
        assert dump_database(restored) == dump_database(database)
