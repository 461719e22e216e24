"""Column types and table schemas."""

import datetime as dt

import pytest

from repro.errors import SchemaError, TypeMismatchError
from repro.ordbms import (
    CLOB,
    FLOAT,
    INTEGER,
    ROWID,
    TIMESTAMP,
    VARCHAR,
    Column,
    RowId,
    TableSchema,
)


class TestTypes:
    def test_integer_accepts_int(self):
        assert INTEGER.validate(5, "C") == 5

    def test_integer_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            INTEGER.validate(True, "C")

    def test_integer_rejects_str(self):
        with pytest.raises(TypeMismatchError):
            INTEGER.validate("5", "C")

    def test_float_coerces_int(self):
        assert FLOAT.validate(3, "C") == 3.0
        assert isinstance(FLOAT.validate(3, "C"), float)

    def test_varchar_and_clob_accept_str(self):
        assert VARCHAR.validate("x", "C") == "x"
        assert CLOB.validate("y" * 10000, "C") == "y" * 10000

    def test_timestamp_accepts_datetime_and_iso(self):
        moment = dt.datetime(2005, 6, 14, 12, 0)
        assert TIMESTAMP.validate(moment, "C") == moment
        assert TIMESTAMP.validate("2005-06-14T12:00:00", "C") == moment

    def test_timestamp_rejects_garbage_string(self):
        with pytest.raises(TypeMismatchError):
            TIMESTAMP.validate("not a date", "C")

    def test_rowid_type(self):
        assert ROWID.validate(RowId(0), "C") == RowId(0)
        with pytest.raises(TypeMismatchError):
            ROWID.validate("F0.B0.S0", "C")

    @pytest.mark.parametrize("value", [5, RowId(4) + 1, True])
    def test_a_plain_int_is_not_a_rowid(self, value):
        """Arithmetic on a ROWID answers a plain ``int``: it names no
        slot the heap handed out, so the column refuses it."""
        assert type(value) is not RowId
        with pytest.raises(TypeMismatchError):
            ROWID.validate(value, "C")

    def test_none_always_passes_type_check(self):
        for data_type in (INTEGER, FLOAT, VARCHAR, TIMESTAMP, ROWID):
            assert data_type.validate(None, "C") is None


def make_schema(**overrides):
    parameters = dict(
        name="EMP",
        columns=(
            Column("ID", INTEGER, nullable=False),
            Column("NAME", VARCHAR),
            Column("NOTE", CLOB, default=""),
        ),
        primary_key="ID",
    )
    parameters.update(overrides)
    return TableSchema(**parameters)


class TestTableSchema:
    def test_names_uppercased(self):
        schema = TableSchema("emp", (Column("id", INTEGER),))
        assert schema.name == "EMP"
        assert schema.columns[0].name == "ID"

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("T", (Column("A", INTEGER), Column("a", VARCHAR)))

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("T", ())

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            make_schema(primary_key="NOPE")

    @pytest.mark.parametrize("declared", ["unique", "foreign_keys"])
    def test_a_primary_key_is_the_only_constraint(self, declared):
        """No unique column and no foreign key: the NETMARK tables are
        joined by address, and the primary key is all a table enforces."""
        with pytest.raises(TypeError, match=declared):
            make_schema(**{declared: ("NAME",)})

    def test_position_and_column_lookup(self):
        schema = make_schema()
        assert schema.position("name") == 1
        assert schema.column("NOTE").dtype is CLOB
        with pytest.raises(SchemaError):
            schema.position("missing")

    def test_invalid_column_name(self):
        with pytest.raises(SchemaError):
            Column("bad name!", INTEGER)

    def test_row_type_is_the_columns_then_the_address(self):
        assert make_schema().row_type._fields == ("ID", "NAME", "NOTE", "rowid")
