"""Table layer: constraints, index maintenance, lookups."""

import pytest

from repro.errors import CatalogError, ConstraintError, RowIdError
from repro.ordbms import (
    CLOB,
    INTEGER,
    VARCHAR,
    Column,
    Table,
    TableSchema,
)


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
            primary_key="ID",
            unique=("EMAIL",),
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
        assert index.lookup("anomaly") == {rowid}
        table.update(rowid, {"NOTE": "budget review"})
        assert index.lookup("anomaly") == set()
        assert index.lookup("budget") == {rowid}

    def test_restore_reindexes(self, table):
        table.create_index("NAME")
        rowid = table.insert({"ID": 1, "NAME": "alice"})
        table.restore(table.delete(rowid))
        assert [row.ID for row in table.lookup("NAME", "alice")] == [1]


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
