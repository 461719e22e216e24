"""A value of exactly a storable type passes ``DataType.validate`` on
one identity test.  A subclass must still take the isinstance path, and
a bool must still be refused — by every column type, so no value the
column-typed codec cannot write reaches a row.

What the log and the dump make of each value — subclasses, NaN, text
with separators in it — is ``test_snapshot.TestValueCodecProperties``'s
round-trip property, which holds what the encoder-table tests here once
compared with the isinstance ladder.
"""

from __future__ import annotations

import datetime as dt
import enum

import pytest

from repro.errors import TypeMismatchError
from repro.ordbms import (
    ALL_TYPES, CLOB, FLOAT, INTEGER, ROWID, TIMESTAMP, VARCHAR, Column, RowId, TableSchema,
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


class TestEncoderTable:
    """A schema takes each column's encoder from its type, once; a value
    reaches it only through the column's type rule."""

    @pytest.mark.parametrize("value", [True, False, object(), dt.date(2005, 6, 14), (1, 2, 3)])
    def test_a_bool_and_an_unknown_type_are_refused(self, value):
        schema = TableSchema("E", tuple(
            Column(f"C{at}", data_type) for at, data_type in enumerate(ALL_TYPES)
        ))
        for at in range(len(ALL_TYPES)):
            image = [None] * len(ALL_TYPES)
            image[at] = value
            with pytest.raises(TypeMismatchError):
                schema.row_of_image(image, RowId(0))


class TestValidateFastPath:
    @pytest.mark.parametrize("data_type, value", [
        (INTEGER, 5), (FLOAT, 2.5), (VARCHAR, "x"), (CLOB, "y"),
        (TIMESTAMP, dt.datetime(2005, 6, 14)), (ROWID, RowId(66)),
    ])
    def test_an_exact_value_is_stored_as_it_is(self, data_type, value):
        assert data_type.validate(value, "C") is value

    @pytest.mark.parametrize("data_type, value", [
        (INTEGER, Level.LOW), (VARCHAR, Name("n")), (TIMESTAMP, Moment(2005, 6, 14)),
        (ROWID, Address(66)),
    ])
    def test_a_subclass_still_passes_its_isinstance_test(self, data_type, value):
        assert data_type.validate(value, "C") is value

    @pytest.mark.parametrize("data_type", [INTEGER, FLOAT])
    def test_a_bool_is_still_refused(self, data_type):
        for value in (True, False):
            with pytest.raises(TypeMismatchError):
                data_type.validate(value, "C")

    def test_an_int_still_widens_to_float(self):
        for value in (3, Level.HIGH):
            stored = FLOAT.validate(value, "C")
            assert type(stored) is float and stored == float(value)
