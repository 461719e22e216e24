"""Database snapshots: exact restoration including physical ROWIDs."""

import datetime as dt
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatabaseError, ReproError
from repro.ordbms import (
    CLOB,
    Column,
    Database,
    INTEGER,
    RowId,
    TIMESTAMP,
    TableSchema,
    VARCHAR,
)
from repro.ordbms.snapshot import (
    decode_value,
    dump_database,
    encode_value,
    load_database,
)
from repro.store import XmlStore


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
            unique=("NAME",),
        )
    )
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
         dt.datetime(2005, 6, 14, 12, 30), RowId(1, 2, 3)],
    )
    def test_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_bad_value_rejected(self):
        with pytest.raises(DatabaseError):
            encode_value(object())
        with pytest.raises(DatabaseError):
            encode_value(True)

    def test_bad_text_rejected(self):
        with pytest.raises(DatabaseError):
            decode_value("x:nope")


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
        assert schema.unique == ("NAME",)
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
            restored.insert("T", {"ID": 100, "NAME": "name1"})

    def test_text_index_rebuilt(self):
        database, _ = build_sample()
        restored = load_database(dump_database(database))
        index = restored.table("T").text_index_on("NOTE")
        assert len(index.lookup("note")) == 4

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
        node_ids = [row.NODEID for row in restored.xml_table.scan()]
        assert len(node_ids) == len(set(node_ids))  # no collisions


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
        # A value tag with no body.
        lambda dump: dump.replace("\ti:2\t", "\ti:\t", 1),
        # A value of the wrong type for its (indexed) column.
        lambda dump: dump.replace("ROW F0.B0.S1 i:", "ROW F0.B0.S1 s:", 1),
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
        with pytest.raises(DatabaseError):
            decode_value(text)


class TestValueCodecProperties:
    """The snapshot/WAL value dialect round-trips every storable value.

    Recovery promises byte-identical restored state only because snapshots
    and WAL row images speak exactly this dialect, so these properties are
    load-bearing for the durability layer.
    """

    storable = st.one_of(
        st.none(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(),  # any codepoint: NULs, newlines, '|', unicode spaces
        st.datetimes(
            min_value=dt.datetime(1970, 1, 1),
            max_value=dt.datetime(2100, 1, 1),
        ),
        st.builds(
            RowId,
            st.integers(0, 2**16),
            st.integers(0, 2**16),
            st.integers(0, 2**16),
        ),
    )

    @given(storable)
    @settings(max_examples=200, deadline=None)
    def test_value_round_trip(self, value):
        from repro.ordbms.valuecodec import decode_value, encode_value

        assert decode_value(encode_value(value)) == value

    @given(st.lists(storable, max_size=8).map(tuple))
    @settings(max_examples=200, deadline=None)
    def test_packed_row_round_trips_as_one_clean_token(self, values):
        from repro.ordbms.valuecodec import pack_row, unpack_row

        token = pack_row(values)
        # The WAL line format separates fields on single spaces and
        # records on newlines; a row image must never contain either.
        assert " " not in token and "\n" not in token
        assert "\t" not in token and "\r" not in token
        assert unpack_row(token) == values

    @given(st.text())
    @settings(max_examples=200, deadline=None)
    def test_escape_round_trip(self, text):
        from repro.ordbms.valuecodec import escape, unescape

        assert unescape(escape(text)) == text
        assert "\t" not in escape(text) and "\n" not in escape(text)


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
