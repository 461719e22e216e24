"""WAL record grammar, CRCs, torn-tail semantics and log devices."""

import zlib

import pytest

from repro.errors import CorruptLogError, WalError
from repro.ordbms import RowId
from repro.ordbms.wal import (
    AUTOCOMMIT_TXID,
    BEGIN,
    CHECKPOINT,
    COMMIT,
    DELETE,
    FileLogDevice,
    INSERT,
    MemoryLogDevice,
    ROLLBACK,
    UPDATE,
    WalRecord,
    WriteAheadLog,
    decode_checkpoint,
    encode_checkpoint,
    highest_txid,
    parse_log,
)

ROWID = RowId(0, 0, 0)


def sample_records() -> list[WalRecord]:
    return [
        WalRecord(1, BEGIN, 7),
        WalRecord(2, INSERT, 7, table="T", rowid=ROWID, after=(1, "a b\tc")),
        WalRecord(
            3, UPDATE, 7, table="T", rowid=ROWID,
            before=(1, "a b\tc"), after=(1, "x\ny"),
        ),
        WalRecord(4, BEGIN, 8),
        WalRecord(5, DELETE, 7, table="T", rowid=ROWID, before=(1, "x\ny")),
        WalRecord(6, COMMIT, 7),
        WalRecord(7, ROLLBACK, 8),
        WalRecord(8, CHECKPOINT),
    ]


class TestRecordCodec:
    @pytest.mark.parametrize("record", sample_records())
    def test_round_trip(self, record):
        parsed, torn = parse_log(record.encode())
        assert torn is None
        assert parsed == [record]

    def test_encoded_form_is_one_line_with_crc(self):
        line = WalRecord(1, BEGIN, 3).encode()
        assert line.endswith("\n")
        assert line.count("\n") == 1
        body, _, crc = line.rstrip("\n").rpartition("|")
        assert body == "1 BEGIN 3"
        assert len(crc) == 8

    def test_unknown_kind_rejected(self):
        with pytest.raises(WalError):
            WalRecord(1, "MERGE").encode()
        # Reading refuses what writing refuses — the savepoint record
        # kind this grammar once had included.
        for body in ("1 MERGE 7", "4 TRUNCATE 7 1"):
            line = f"{body}|{zlib.crc32(body.encode()):08x}\n"
            records, torn = parse_log(line)
            assert records == [] and "unknown WAL record kind" in torn

    def test_special_characters_survive(self):
        nasty = "tab\there\nnewline \\slash space"
        record = WalRecord(
            1, INSERT, table="T", rowid=ROWID, after=(nasty, None)
        )
        parsed, _ = parse_log(record.encode())
        assert parsed[0].after == (nasty, None)


class TestParseLog:
    def test_empty_log(self):
        assert parse_log("") == ([], None)

    def test_torn_tail_is_truncated_not_fatal(self):
        good = WalRecord(1, BEGIN, 1).encode()
        torn = WalRecord(2, COMMIT, 1).encode()[:-5]  # cut mid-CRC
        records, reason = parse_log(good + torn)
        assert [record.lsn for record in records] == [1]
        assert reason is not None and "record 2" in reason

    def test_flipped_crc_at_tail_is_torn(self):
        good = WalRecord(1, BEGIN, 1).encode()
        bad = WalRecord(2, COMMIT, 1).encode()
        bad = bad[:-2] + ("0" if bad[-2] != "0" else "1") + "\n"
        records, reason = parse_log(good + bad)
        assert len(records) == 1
        assert "CRC" in reason

    def test_damage_followed_by_valid_record_is_corruption(self):
        first = WalRecord(1, BEGIN, 1).encode()
        middle = WalRecord(2, COMMIT, 1).encode()
        middle = middle[:-2] + ("0" if middle[-2] != "0" else "1") + "\n"
        last = WalRecord(3, BEGIN, 2).encode()
        with pytest.raises(CorruptLogError):
            parse_log(first + middle + last)

    def test_lsn_must_advance(self):
        lines = WalRecord(5, BEGIN, 1).encode() + WalRecord(5, COMMIT, 1).encode()
        records, reason = parse_log(lines)
        assert len(records) == 1
        assert "LSN" in reason

    def test_highest_txid(self):
        records, _ = parse_log(
            WalRecord(1, BEGIN, 4).encode() + WalRecord(2, COMMIT, 4).encode()
        )
        assert highest_txid(records) == 4
        assert highest_txid([]) == AUTOCOMMIT_TXID


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
        wal.log_begin(1)
        wal.log_insert(1, "T", ROWID, (1, "v"))
        wal.log_commit(1)
        records, torn = wal.records()
        assert torn is None
        assert [record.lsn for record in records] == [1, 2, 3]
        assert wal.next_lsn == 4
        assert wal.records_written == 3

    def test_start_lsn_below_one_rejected(self):
        with pytest.raises(WalError):
            WriteAheadLog(MemoryLogDevice(), start_lsn=0)

    def test_checkpoint_truncates_and_stamps(self):
        device = MemoryLogDevice()
        wal = WriteAheadLog(device)
        wal.log_begin(1)
        wal.log_commit(1)
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
