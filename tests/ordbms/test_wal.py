"""WAL record grammar, CRCs, torn-tail semantics and log devices."""

import datetime as dt
import zlib

import pytest

from repro.errors import CorruptLogError, WalError
from repro.ordbms import (
    FLOAT, INTEGER, TIMESTAMP, VARCHAR, Column, Database, RowId, TableSchema, recover,
)
from repro.ordbms.wal import (
    ABSENT_IMAGE,
    CHANGE,
    CHECKPOINT,
    FileLogDevice,
    MemoryLogDevice,
    WalRecord,
    WriteAheadLog,
    decode_checkpoint,
    encode_checkpoint,
    parse_log,
)

ROWID, NEXT = RowId(0), RowId(1)
T = TableSchema("T", (Column("ID", INTEGER), Column("V", VARCHAR)))
D = TableSchema("D", (Column("ID", INTEGER),))


def change(lsn: int, *groups) -> WalRecord:
    return WalRecord(lsn, CHANGE, tuple(groups))


def line(body: str) -> str:
    """A CRC-valid log line; a space in ``body`` stands for the field
    separator, so a body reads as the record it is."""
    body = body.replace(" ", "\t")
    return f"{body}|{zlib.crc32(body.encode()):08x}\n"


def sample_records() -> list[WalRecord]:
    return [
        change(1, ("T", ((ROWID, None, T.pack((1, "a b\tc"))),))),
        change(2, ("T", (
            (ROWID, T.pack((1, "a b\tc")), T.pack((1, "x\ny"))),
            (NEXT, None, T.pack((2, "."))),
        ))),
        change(3, ("D", ((ROWID, None, ["7"]),)), ("T", ((RowId(2), None, ["3", "~"]),))),
        change(4, ("T", ((ROWID, T.pack((1, "x\ny")), None),))),
        change(5, ("T", ((NEXT, T.pack((2, ".")), None),)), ("D", ((ROWID, ["7"], None),))),
        change(6, ("A", ((ROWID, None, [""]),)), ("B", ((ROWID, None, ["~"]),)), ("C", ((ROWID, None, ["1.5"]),))),
        WalRecord(7, CHECKPOINT),
        change(8, ("T", ((RowId(2), ["3", "~"], T.pack((3, "three"))),))),
    ]


class TestRecordCodec:
    @pytest.mark.parametrize("record", sample_records())
    def test_round_trip(self, record):
        parsed, torn = parse_log(record.encode())
        assert torn is None
        assert parsed == [record]

    def test_encoded_form_is_one_line_with_crc(self):
        encoded = change(1, ("D", ((ROWID, None, ["7"]),)), ("T", ((NEXT, ["1"], None),))).encode()
        assert encoded.endswith("\n")
        assert encoded.count("\n") == 1
        body, _, crc = encoded.rstrip("\n").rpartition("|")
        # Per group its table, change count and image width; no value tags.
        assert body == "1 CHANGE D 1 1 0 . 7 T 1 1 1 1 .".replace(" ", "\t")
        assert len(crc) == 8

    def test_unknown_kind_rejected(self):
        for kind in ("MERGE", "BEGIN", "COMMIT"):
            with pytest.raises(WalError):
                WalRecord(1, kind).encode()
        # Reading refuses what writing refuses — the savepoint, per-row
        # and transaction kinds this grammar once had included — and a
        # whole record it cannot read is corruption, never a torn tail.
        for body in ("1 MERGE 7", "4 TRUNCATE 7 1", "2 INSERT 1 T 0 1", "1 BEGIN 7"):
            with pytest.raises(CorruptLogError, match="unknown WAL record kind"):
                parse_log(line(body))

    def test_special_characters_survive(self):
        nasty = "tab\there\nnewline \\slash space\r"
        schema = TableSchema("N", (Column("V", VARCHAR), Column("W", VARCHAR)))
        record = change(1, ("N", ((ROWID, None, schema.pack((nasty, None))),)))
        encoded = record.encode()
        assert encoded.count("\n") == 1 and "\r" not in encoded
        assert " space" in encoded  # a space is written as it is
        parsed, _ = parse_log(encoded)
        assert schema.unpack(parsed[0].groups[0][1][0][2], ROWID) == (nasty, None, ROWID)

    def test_the_absent_token_is_no_packed_row(self):
        schema = TableSchema("V", (Column("V", VARCHAR), Column("I", INTEGER)))
        rows = [(None, None), (".", None), (ABSENT_IMAGE, 1), ("~", 2), ("", 3)]
        assert ABSENT_IMAGE not in [schema.pack(row)[0] for row in rows]
        record = change(1, ("V", tuple(
            (RowId(slot), schema.pack(row), None) for slot, row in enumerate(rows)
        )))
        assert parse_log(record.encode()) == ([record], None)
        (parsed,), _ = parse_log(record.encode())
        assert [schema.unpack(before, rowid)[:-1] for rowid, before, _ in parsed.groups[0][1]] == rows


class TestParseLog:
    def test_empty_log(self):
        assert parse_log("") == ([], None)

    def test_torn_tail_is_truncated_not_fatal(self):
        good = sample_records()[0].encode()
        torn = WalRecord(2, CHECKPOINT).encode()[:-5]  # cut mid-CRC
        records, reason = parse_log(good + torn)
        assert [record.lsn for record in records] == [1]
        assert reason is not None and "record 2" in reason

    def test_flipped_crc_at_tail_is_torn(self):
        good = sample_records()[0].encode()
        bad = sample_records()[1].encode()
        bad = bad[:-2] + ("0" if bad[-2] != "0" else "1") + "\n"
        records, reason = parse_log(good + bad)
        assert len(records) == 1
        assert "CRC" in reason

    def test_damage_followed_by_valid_record_is_corruption(self):
        first, middle, last = (record.encode() for record in sample_records()[:3])
        middle = middle[:-2] + ("0" if middle[-2] != "0" else "1") + "\n"
        with pytest.raises(CorruptLogError):
            parse_log(first + middle + last)

    @pytest.mark.parametrize("value", ["i:", "f:", "t:", "t:noon", "i:1.5"])
    def test_a_bad_value_is_a_malformed_record(self, value):
        """``i:1.5`` is ``1.5`` logged in the INTEGER column: the letter
        names the column a body is read by, as a record's table says."""
        # Its CRC checks, so it was written whole: corruption wherever it sits.
        database, device = Database(), MemoryLogDevice()
        database.create_table(TableSchema("T", (
            Column("I", INTEGER), Column("F", FLOAT), Column("W", TIMESTAMP),
        )))
        database.enable_wal(device)
        letter, _, text = value.partition(":")
        image = {"i": "1", "f": "1.5", "t": dt.datetime(2005, 6, 14).isoformat()}
        image[letter] = text
        bad = line(f"3 CHANGE T 1 3 0 . {image['i']} {image['f']} {image['t']}")
        first, last = WalRecord(2, CHECKPOINT).encode(), WalRecord(4, CHECKPOINT).encode()
        assert parse_log(first + bad + last)[1] is None  # the log does not type it
        for text in (first + bad, first + bad + last):
            device.truncate_log()
            device.append(text)
            with pytest.raises(CorruptLogError, match="malformed WAL record"):
                recover(device)

    @pytest.mark.parametrize("body", [
        "2 CHANGE T 2 1 0 . 1",  # a count the pairs do not fill
        "2 CHANGE T 0 1 0 . 1",  # pairs past the count
        "2 CHANGE T 1 0 . 1",  # no count
        "2 CHANGE T 0 1",  # a group of no change
        "2 CHANGE T 1 0 0 .",  # an image of no column
        "2 CHANGE T 1 2 0 . 1",  # an image short of its width
        "2 CHANGE T 1 1 0 . .",  # neither image
        "2 CHANGE T 1 1 nowhere . 1",  # no rowid
        "2 CHANGE T 1 1 0 1",  # one image
        "2 CHANGE",  # no group
        "2 CHANGE T 1 1 0 . 1 U",  # a second group with no count
        "2 CHANGE 1 T 1 0 . i:1",  # the transaction-era layout
        "2 CHANGE T 1 0 . i:1",  # the tagged layout: no width
    ])
    def test_a_change_of_the_wrong_shape_is_a_malformed_record(self, body):
        with pytest.raises(CorruptLogError, match="malformed WAL record"):
            parse_log(WalRecord(1, CHECKPOINT).encode() + line(body))

    def test_lsn_must_advance(self):
        lines = WalRecord(5, CHECKPOINT).encode() + WalRecord(5, CHECKPOINT).encode()
        records, reason = parse_log(lines)
        assert len(records) == 1
        assert "LSN" in reason

    def test_a_whole_record_that_does_not_parse_is_never_a_torn_tail(self):
        # Cut as a torn tail, both records would be dropped at reopen.
        text = line("1 CHECKPOINT") + line("2 NEWKIND 7") + line("3 NEWKIND 7")
        with pytest.raises(CorruptLogError, match="record 2|NEWKIND"):
            parse_log(text)
        with pytest.raises(CorruptLogError):
            parse_log(line("1 CHECKPOINT") + line("2 NEWKIND 7"))
        # What a crash leaves — no newline, or a failed CRC — is still torn.
        assert parse_log(line("1 CHECKPOINT") + line("2 NEWKIND 7")[:-1])[1] is not None
        assert parse_log(line("1 CHECKPOINT") + "2 NEWKIND 7|00000000\n")[1] is not None


class TestCheckpointCodec:
    def test_round_trip(self):
        text = encode_checkpoint(42, "snapshot body\nwith lines\n")
        assert decode_checkpoint(text) == (42, "snapshot body\nwith lines\n")

    def test_damaged_snapshot_detected(self):
        text = encode_checkpoint(42, "snapshot body\n")
        with pytest.raises(CorruptLogError):
            decode_checkpoint(text[:-2] + "X\n")

    @pytest.mark.parametrize(
        "bad", ["", "nonsense", "%NETMARK-CKPT x y\nbody"]
    )
    def test_bad_header_detected(self, bad):
        with pytest.raises(CorruptLogError):
            decode_checkpoint(bad)


class TestWriteAheadLog:
    def test_lsns_are_sequential_and_synced_on_commit(self):
        device = MemoryLogDevice()
        wal = WriteAheadLog(device)
        wal.log_changes([(T, [(None, T.row_type(1, "v", ROWID))])])
        wal.log_changes([(T, [(T.row_type(1, "v", ROWID), None)])])
        wal.write_checkpoint("SNAP")
        records, torn = wal.records()
        assert torn is None
        assert [record.lsn for record in records] == [3]
        assert wal.next_lsn == 4
        assert wal.records_written == 3

    def test_a_statement_is_one_record_and_one_append(self):
        device, third = MemoryLogDevice(), RowId(2)
        wal = WriteAheadLog(device)
        row = T.row_type
        old, new = row(1, "v", ROWID), row(1, "w", ROWID)
        pairs = [(None, row(2, "x", third)), (old, new), (row(3, "y", NEXT), None)]
        doc = D.row_type(9, ROWID)
        assert wal.log_changes([(T, pairs), (D, [(None, doc)])]) == 1
        assert len(device._chunks) == 1  # noqa: SLF001 - one append
        assert wal.records() == ([change(1, ("T", (
            (third, None, ["2", "x"]),
            (ROWID, ["1", "v"], ["1", "w"]),
            (NEXT, ["3", "y"], None),
        )), ("D", ((ROWID, None, ["9"]),)))], None)

    def test_start_lsn_below_one_rejected(self):
        with pytest.raises(WalError):
            WriteAheadLog(MemoryLogDevice(), start_lsn=0)

    def test_checkpoint_truncates_and_stamps(self):
        device = MemoryLogDevice()
        wal = WriteAheadLog(device)
        wal.log_changes([(T, [(None, T.row_type(1, "v", ROWID))])])
        wal.log_changes([(T, [(T.row_type(1, "v", ROWID), None)])])
        covered = wal.write_checkpoint("SNAP")
        assert covered == 2
        assert decode_checkpoint(device.load_checkpoint()) == (2, "SNAP")
        records, _ = wal.records()
        assert [record.kind for record in records] == [CHECKPOINT]
        assert records[0].lsn == 3  # LSNs keep advancing across checkpoints


class TestFileLogDevice:
    def test_append_read_truncate(self, tmp_path):
        device = FileLogDevice(str(tmp_path / "db"))
        device.append("one|ffffffff\n")
        device.sync()
        assert device.read_log() == "one|ffffffff\n"
        device.truncate_log()
        assert device.read_log() == ""
        device.close()

    def test_checkpoint_slot_round_trip(self, tmp_path):
        device = FileLogDevice(str(tmp_path / "db"))
        assert device.load_checkpoint() is None
        device.save_checkpoint("ckpt-bytes")
        assert device.load_checkpoint() == "ckpt-bytes"
        device.close()

    def test_survives_reopen(self, tmp_path):
        base = str(tmp_path / "db")
        first = FileLogDevice(base)
        first.append("line|00000000\n")
        first.sync()
        first.close()
        second = FileLogDevice(base)
        assert second.read_log() == "line|00000000\n"
        second.close()
