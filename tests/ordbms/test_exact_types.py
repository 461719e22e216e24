"""A value of exactly a storable type takes one lookup: ``encode_value``
by its exact type's encoder, ``DataType.validate`` by one identity test.
A subclass must still take the path it took before, and a bool must
still be refused."""

from __future__ import annotations

import datetime as dt
import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DatabaseError, TypeMismatchError
from repro.ordbms import CLOB, FLOAT, INTEGER, ROWID, TIMESTAMP, VARCHAR, RowId
from repro.ordbms.valuecodec import encode_value, escape


def ladder_encode(value):
    """The isinstance ladder ``encode_value`` was, as it was."""
    if value is None:
        return "~"
    if isinstance(value, bool):
        raise DatabaseError("boolean values are not storable")
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, str):
        return f"s:{escape(value)}"
    if isinstance(value, dt.datetime):
        return f"t:{value.isoformat()}"
    if isinstance(value, RowId):
        return f"r:{value.encode()}"
    raise DatabaseError(f"cannot encode value of type {type(value).__name__}")


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


class Name(str):
    pass


class Moment(dt.datetime):
    pass


class Address(RowId):
    pass


SUBCLASSED = [
    Level.HIGH, Name("tab\there"), Moment(2005, 6, 14, 12, 30),
    Address(1, 2, 3),
]

storable = st.one_of(
    st.none(), st.integers(), st.floats(allow_nan=False), st.text(),
    st.datetimes(), st.builds(RowId, st.integers(0, 9), st.integers(0, 99), st.integers(0, 99)),
)


class TestEncoderTable:
    @given(storable)
    @settings(max_examples=200, deadline=None)
    def test_an_exact_type_encodes_as_the_ladder_did(self, value):
        assert encode_value(value) == ladder_encode(value)

    @pytest.mark.parametrize("value", SUBCLASSED, ids=lambda value: type(value).__name__)
    def test_a_subclass_encodes_as_the_ladder_did(self, value):
        assert encode_value(value) == ladder_encode(value)

    @pytest.mark.parametrize("value", [True, False, object(), dt.date(2005, 6, 14), (1, 2, 3)])
    def test_a_bool_and_an_unknown_type_are_refused(self, value):
        with pytest.raises(DatabaseError):
            ladder_encode(value)
        with pytest.raises(DatabaseError):
            encode_value(value)


class TestValidateFastPath:
    @pytest.mark.parametrize("data_type, value", [
        (INTEGER, 5), (FLOAT, 2.5), (VARCHAR, "x"), (CLOB, "y"),
        (TIMESTAMP, dt.datetime(2005, 6, 14)), (ROWID, RowId(0, 1, 2)),
    ])
    def test_an_exact_value_is_stored_as_it_is(self, data_type, value):
        assert data_type.validate(value, "C") is value

    @pytest.mark.parametrize("data_type, value", [
        (INTEGER, Level.LOW), (VARCHAR, Name("n")), (TIMESTAMP, Moment(2005, 6, 14)),
        (ROWID, Address(0, 1, 2)),
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
