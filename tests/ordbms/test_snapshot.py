"""Database snapshots: exact restoration including physical ROWIDs."""

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatabaseError
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
