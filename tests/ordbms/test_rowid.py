"""ROWID encoding, ordering and refusal of hostile text."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RowIdError
from repro.ordbms.rowid import RowId


class TestEncoding:
    def test_str_form(self):
        assert str(RowId(37)) == "37"
        assert f"{RowId(0)}" == "0"

    def test_encode_matches_str(self):
        rowid = RowId(123)
        assert rowid.encode() == str(rowid)

    def test_decode_round_trip(self):
        rowid = RowId(456)
        decoded = RowId.decode(rowid.encode())
        assert decoded == rowid and type(decoded) is RowId

    @pytest.mark.parametrize(
        "text",
        [
            "", "F1.B2", "f1.b2.s3", "F1,B2,S3", "F-1.B2.S3", "rubbish",
            "-1", "+3", "03", "00", " 3", "3 ", "3\n", "٣", "1_000", "F0.B0.S1",
        ],
    )
    def test_decode_rejects_malformed(self, text):
        """Only ASCII ``0`` or a digit run with no leading zero: ``int()``
        would take a sign, spaces, ``_`` and other scripts' digits."""
        with pytest.raises(RowIdError):
            RowId.decode(text)

    @given(st.integers(0, 10**12))
    def test_round_trip_property(self, slot):
        rowid = RowId(slot)
        assert RowId.decode(rowid.encode()) == rowid

    @given(st.text(max_size=8))
    def test_decode_answers_a_rowid_or_a_typed_error(self, text):
        try:
            rowid = RowId.decode(text)
        except RowIdError:
            return
        assert type(rowid) is RowId and rowid.encode() == text


class TestOrderingAndValidity:
    def test_total_order_is_physical(self):
        assert RowId(5) < RowId(64) < RowId(65536)

    def test_hashable_and_equal(self):
        assert RowId(1) == RowId(1)
        assert len({RowId(1), RowId(1)}) == 1

    def test_arithmetic_answers_a_plain_int(self):
        assert type(RowId(4) + 1) is int
        assert type(RowId(4)) is RowId
