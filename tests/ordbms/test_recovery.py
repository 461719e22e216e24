"""Crash recovery: replay, checkpoints, torn tails and the crash matrix."""

import random
import zlib

import pytest

from repro.errors import (
    ConstraintError,
    CorruptLogError,
    ReproError,
    RecoveryError,
    SourceUnavailableError,
    WalError,
)
from repro.ordbms import (
    Column,
    Database,
    INTEGER,
    MemoryLogDevice,
    RowId,
    TableSchema,
    VARCHAR,
    recover,
)
from repro.ordbms.recovery import recover_follower
from repro.ordbms.snapshot import dump_database
from repro.ordbms.wal import CHANGE, WalRecord, parse_log
from repro.resilience import FaultPlan
from repro.store import XmlStore, check_store


def durable_database(device=None) -> Database:
    database = Database("durable")
    database.create_table(
        TableSchema(
            "T",
            (Column("ID", INTEGER, nullable=False), Column("V", VARCHAR)),
            primary_key="ID",
        )
    )
    database.enable_wal(device if device is not None else MemoryLogDevice())
    return database


def crash_and_recover(database: Database) -> Database:
    """Abandon the live object, recover a fresh one from its device."""
    return recover(database.wal.device).database


def inserts(database: Database, *values: dict) -> list:
    """The rows ``values`` would be as inserts into T, at the heap's tail."""
    table = database.table("T")
    return [
        (None, table.schema.row(row, rowid))
        for row, rowid in zip(values, table.next_rowids(len(values)))
    ]


def packed(values: tuple | None) -> list[str] | None:
    """An image of integers, strings and NULLs as the log writes it."""
    if values is None:
        return None
    return [
        "~" if value is None else (INTEGER if isinstance(value, int) else VARCHAR).encode(value)
        for value in values
    ]


def change_record(lsn: int, table: str, changes: tuple) -> WalRecord:
    """A one-group CHANGE record; each image given as its values."""
    return WalRecord(lsn, CHANGE, ((table, tuple(
        (rowid, packed(before), packed(after)) for rowid, before, after in changes
    )),))


class TestBasicRecovery:
    def test_autocommit_rows_survive(self):
        database = durable_database()
        rowid = database.insert("T", {"ID": 1, "V": "tab\there"})
        recovered = crash_and_recover(database)
        assert recovered.fetch("T", rowid) == (1, "tab\there", rowid)
        assert dump_database(recovered) == dump_database(database)

    def test_committed_transaction_survives(self):
        """A statement of several rows is one record, replayed whole."""
        database = durable_database()
        database.change([("T", inserts(database, {"ID": 1}, {"ID": 2}))])
        result = recover(database.wal.device)
        assert len(result.database.table("T")) == 2
        assert result.records_replayed == 2

    def test_uncommitted_transaction_is_discarded(self):
        """A statement whose record the log refused moved nothing live,
        and recovery lands on exactly the same state."""
        plan, device = FaultPlan(), MemoryLogDevice()
        database = durable_database(plan.wrap_log_device(device))
        database.insert("T", {"ID": 1})
        plan.fail("wal", "append", kind="unavailable")
        with pytest.raises(SourceUnavailableError):
            database.change([("T", inserts(database, {"ID": 2}, {"ID": 3}))])
        recovered = recover(device).database
        assert [row.ID for row in recovered.table("T").scan()] == [1]
        assert dump_database(recovered) == dump_database(database)

    def test_loser_reported_in_result(self):
        """What a crash can leave unfinished is one torn last record: the
        result reports it, and none of its rows is replayed."""
        database = durable_database()
        database.insert("T", {"ID": 1})
        landed = database.wal.device.read_log()
        database.change([("T", inserts(database, {"ID": 2}, {"ID": 3}))])
        torn = database.wal.device.read_log()[len(landed):-3]
        result = recover(_with_log(database.wal.device, landed + torn))
        assert result.torn_tail is not None and result.records_replayed == 1
        assert [row.ID for row in result.database.table("T").scan()] == [1]

    def test_a_transaction_left_open_mid_log_is_taken_back(self):
        """The log refuses an update's record; the writer moved nothing
        and writes the row again.  Nothing is left for replay to take
        back, so that record's before-image matches."""
        plan, device = FaultPlan(), MemoryLogDevice()
        database = durable_database(plan.wrap_log_device(device))
        rowid = database.insert("T", {"ID": 1, "V": "old"})
        plan.fail("wal", "append", kind="unavailable")
        with pytest.raises(SourceUnavailableError):
            database.update("T", rowid, {"V": "lost"})
        assert database.fetch("T", rowid).V == "old"
        database.update("T", rowid, {"V": "new"})
        result = recover(device)
        assert result.database.fetch("T", rowid).V == "new"
        assert dump_database(result.database) == dump_database(database)

    def test_rolled_back_transaction_leaves_no_rows(self):
        """A statement the table refuses writes no record: nothing to
        replay, nothing to take back."""
        database = durable_database()
        lsn = database.wal.next_lsn
        with pytest.raises(ConstraintError):
            database.change([("T", inserts(database, {"ID": 1}, {"ID": 1}))])
        assert database.wal.next_lsn == lsn
        recovered = crash_and_recover(database)
        assert len(recovered.table("T")) == 0

    def test_update_delete_replay(self):
        database = durable_database()
        rowid = database.insert("T", {"ID": 1, "V": "old"})
        victim = database.insert("T", {"ID": 2})
        database.update("T", rowid, {"V": "new"})
        database.delete("T", victim)
        recovered = crash_and_recover(database)
        assert recovered.fetch("T", rowid).V == "new"
        assert not recovered.table("T").exists(victim)


class TestRowIdStability:
    def test_slots_match_after_interleaved_rollback(self):
        """A refused insert consumes no slot, live or during replay: the
        next insert lands at the address it would have taken."""
        database = durable_database()
        first = database.insert("T", {"ID": 1})
        with pytest.raises(ConstraintError):
            database.insert("T", {"ID": 1})
        survivor = database.insert("T", {"ID": 2})
        assert survivor == first + 1
        recovered = crash_and_recover(database)
        assert recovered.fetch("T", survivor).ID == 2

    def test_new_writes_after_recovery_do_not_collide(self):
        database = durable_database()
        first = database.insert("T", {"ID": 1})
        recovered = crash_and_recover(database)
        second = recovered.insert("T", {"ID": 2})
        assert second != first
        twice = crash_and_recover(recovered)
        assert sorted(row.ID for row in twice.table("T").scan()) == [1, 2]


class TestCheckpoints:
    def test_recovery_from_checkpoint_plus_log(self):
        database = durable_database()
        database.insert("T", {"ID": 1})
        database.checkpoint()
        database.insert("T", {"ID": 2})
        result = recover(database.wal.device)
        assert result.checkpoint_lsn > 0
        ids = sorted(row.ID for row in result.database.table("T").scan())
        assert ids == [1, 2]

    def test_crash_between_save_and_truncate_is_idempotent(self):
        """Records at or below the checkpoint LSN are skipped on replay."""
        database = durable_database()
        database.insert("T", {"ID": 1})
        device = database.wal.device
        from repro.ordbms.wal import encode_checkpoint

        # Simulate: checkpoint saved, crash before the log was truncated.
        device.save_checkpoint(
            encode_checkpoint(database.wal.next_lsn - 1, dump_database(database))
        )
        recovered = recover(device).database
        assert len(recovered.table("T")) == 1  # not doubled

    def test_checkpoint_without_wal_rejected(self):
        with pytest.raises(WalError):
            Database("plain").checkpoint()

    def test_double_attach_rejected(self):
        database = durable_database()
        with pytest.raises(WalError):
            database.enable_wal(MemoryLogDevice())


class TestTornTail:
    def test_torn_tail_is_trimmed_and_log_stays_appendable(self):
        database = durable_database()
        database.insert("T", {"ID": 1})
        device = database.wal.device
        device.append("2 CHANGE T 1|deadbeef")  # torn: bad CRC, no newline
        result = recover(device)
        assert result.torn_tail is not None
        # The trim must be physical: appending new records after it and
        # recovering again must parse cleanly.
        result.database.insert("T", {"ID": 2})
        second = recover(device)
        assert second.torn_tail is None
        ids = sorted(row.ID for row in second.database.table("T").scan())
        assert ids == [1, 2]

    def test_writer_and_follower_open_a_torn_device_alike(self):
        database = durable_database()
        database.insert("T", {"ID": 1})
        database.insert("T", {"ID": 2})
        database.wal.device.append("9 CHANGE T 1|deadbeef")  # torn
        devices = []
        for _ in range(2):
            device = MemoryLogDevice()
            device.save_checkpoint(database.wal.device.load_checkpoint())
            device.append(database.wal.device.read_log())
            devices.append(device)
        writer = recover(devices[0])
        follower = recover_follower(devices[1])
        # One way to open a device: same trim, same records replayed.
        assert writer.torn_tail == follower.torn_tail is not None
        assert devices[0].read_log() == devices[1].read_log()
        assert devices[0].read_log().endswith("\n")
        assert writer.records_replayed == follower.records_replayed == 2
        assert writer.checkpoint_lsn == follower.checkpoint_lsn
        assert dump_database(writer.database) == dump_database(follower.database)
        # The one difference: the writer resumes the log.
        assert writer.database.wal is not None and follower.database.wal is None

    @pytest.mark.parametrize(
        "cut", ["first-byte", "middle", "before-crc", "before-newline"]
    )
    def test_a_torn_statement_moves_nothing(self, cut):
        """A document's DOC row and node rows are one record: torn
        anywhere, recovery drops it whole and lands where the log stood
        before it."""
        device = MemoryLogDevice()
        store = XmlStore.open(device)
        store.store_text("# Budget\n\ntravel *dollars* 12\n", "a.md")
        landed = len(device._chunks)  # noqa: SLF001 - the appends so far
        store.store_text("<doc><h1>Alpha</h1><p>beta <b>gamma</b></p></doc>", "b.xml")
        (batch,) = device._chunks[landed:]  # noqa: SLF001
        assert batch.split("\t")[1:4] == [CHANGE, "DOC", "1"]
        assert "\tXML\t7\t" in batch
        end = {
            "first-byte": 1, "middle": len(batch) // 2,
            "before-crc": batch.rindex("|") + 1, "before-newline": len(batch) - 1,
        }[cut]
        prefix = device._chunks[:landed]  # noqa: SLF001
        expected = XmlStore.open(_with_log(device, "".join(prefix)))
        torn = recover(_with_log(device, "".join(prefix) + batch[:end]))
        assert torn.torn_tail is not None
        assert dump_database(torn.database) == expected.dump()
        assert [entry.file_name for entry in expected.documents()] == ["a.md"]
        assert check_store(torn.database).ok

    def test_an_autocommit_whose_sync_fails_stays_moved(self):
        """Its record landed before the sync failed: the statement moves,
        as recovery will replay it, and the sync's error surfaces."""
        plan, device = FaultPlan(), MemoryLogDevice()
        database = durable_database(plan.wrap_log_device(device))
        plan.fail("wal", "sync", kind="unavailable")
        with pytest.raises(SourceUnavailableError):
            database.insert("T", {"ID": 1})
        assert [row.ID for row in database.table("T").scan()] == [1]
        assert dump_database(recover(device).database) == dump_database(database)

    def test_preimage_divergence_refused(self):
        database = durable_database()
        rowid = database.insert("T", {"ID": 1, "V": "real"})
        device = database.wal.device
        device.append(change_record(
            database.wal.next_lsn, "T", ((rowid, (1, "imposter"), (1, "other")),),
        ).encode())
        with pytest.raises(RecoveryError):
            recover(device)

    def test_unknown_table_refused(self):
        device = MemoryLogDevice()
        database = durable_database(device)
        device.append(change_record(
            database.wal.next_lsn, "GHOST", ((RowId(0), None, (1,)),),
        ).encode())
        with pytest.raises(RecoveryError):
            recover(device)

    def test_a_statement_replay_cannot_finish_is_refused(self):
        """A record whose second group the heap refuses is a
        RecoveryError naming the LSN: its first group moved nothing."""
        database = durable_database()
        database.create_table(TableSchema("U", (Column("ID", INTEGER),)))
        database.checkpoint()
        kept = database.insert("T", {"ID": 1})
        device, lsn = database.wal.device, database.wal.next_lsn
        device.append(WalRecord(lsn, CHANGE, (
            ("U", ((RowId(0), None, ["5"]),)),
            ("T", ((kept, ["1", "imposter"], None),)),
        )).encode())
        with pytest.raises(RecoveryError, match=f"LSN {lsn}: cannot redo"):
            recover(device)


def live_rows(database: Database) -> list[tuple]:
    """Canonical live-row state: (rowid, columns) of every live row.

    Atomicity is asserted on the rows a query can see, ROWIDs included.
    """
    return sorted(
        (row.rowid, row.ID, row.V)
        for row in database.table("T").scan()
    )


class TestCrashMatrixProperty:
    def test_every_crash_point_recovers_to_a_boundary(self):
        """The tentpole property: at every append the process could die,
        recovery lands on the state before or after a statement, never
        between, and ROWIDs are preserved exactly."""
        from repro.resilience import crash_matrix

        boundary_states: list[list[tuple]] = []

        def run(device):
            database = Database("durable")
            database.create_table(
                TableSchema(
                    "T",
                    (
                        Column("ID", INTEGER, nullable=False),
                        Column("V", VARCHAR),
                    ),
                    primary_key="ID",
                )
            )
            database.enable_wal(device)
            boundary_states.append(live_rows(database))
            database.change([("T", inserts(
                database, {"ID": 1, "V": "first"}, {"ID": 2, "V": "second"}
            ))])
            boundary_states.append(live_rows(database))
            rowid = database.insert("T", {"ID": 3, "V": "third"})
            boundary_states.append(live_rows(database))
            database.update("T", rowid, {"V": "patched"})
            boundary_states.append(live_rows(database))

        matrix = crash_matrix(MemoryLogDevice, run)
        assert matrix.total_appends > 0
        for point in matrix.points:
            assert point.crashed, f"point {point.index}/{point.kind} ran clean"
            recovered = recover(point.device).database
            state = live_rows(recovered)
            assert state in boundary_states, (
                f"crash at append {point.index} ({point.kind}) recovered "
                f"to a state between statement boundaries"
            )

    def test_uncrashed_matrix_baseline_recovers_byte_identical(self):
        """Recovery of an *intact* log is an exact no-op replay."""
        from repro.resilience import crash_matrix

        dumps: list[str] = []

        def run(device):
            database = Database("durable")
            database.create_table(
                TableSchema(
                    "T",
                    (
                        Column("ID", INTEGER, nullable=False),
                        Column("V", VARCHAR),
                    ),
                    primary_key="ID",
                )
            )
            database.enable_wal(device)
            database.change([("T", inserts(database, {"ID": 1, "V": "first"}))])
            database.insert("T", {"ID": 2, "V": "second"})
            dumps.append(dump_database(database))

        matrix = crash_matrix(MemoryLogDevice, run, kinds=())
        recovered = recover(matrix.baseline.target).database
        assert dump_database(recovered) == dumps[0]

    def test_no_crash_run_matches_in_memory_run(self):
        """With zero faults, the durable database behaves byte-identically
        to a WAL-free one."""

        def workload(database: Database) -> None:
            database.change([("T", inserts(database, {"ID": 1, "V": "a"}))])
            rowid = database.insert("T", {"ID": 2, "V": "b"})
            database.update("T", rowid, {"V": "b2"})
            with pytest.raises(ConstraintError):
                database.change([("T", inserts(database, {"ID": 3}, {"ID": 2}))])
            database.delete("T", rowid)

        def plain() -> Database:
            database = Database("durable")
            database.create_table(
                TableSchema(
                    "T",
                    (
                        Column("ID", INTEGER, nullable=False),
                        Column("V", VARCHAR),
                    ),
                    primary_key="ID",
                )
            )
            return database

        in_memory = plain()
        workload(in_memory)
        durable = plain()
        durable.enable_wal(MemoryLogDevice())
        workload(durable)
        assert dump_database(durable) == dump_database(in_memory)
        recovered = recover(durable.wal.device).database
        assert dump_database(recovered) == dump_database(in_memory)


def _small_store_device() -> MemoryLogDevice:
    """A durable NETMARK store's device: inserts, a delete, a replace."""
    device = MemoryLogDevice()
    store = XmlStore.open(device)
    store.store_text("# Budget\n\ntravel *dollars* 12\n\n## Cost\n\nshuttle\n", "a.md")
    store.store_text("<doc><h1>Alpha</h1><p>beta <b>gamma</b></p></doc>", "b.xml")
    store.delete_document(store.lookup_by_name("a.md").doc_id)
    store.store_text("# Plan\n\nnext\n", "c.md")
    store.replace_text("<doc><h1>Alpha</h1><p>delta</p></doc>", "b.xml")
    return device


def _with_log(device: MemoryLogDevice, log: str) -> MemoryLogDevice:
    """A copy of ``device`` (its checkpoint) holding ``log``."""
    copy = MemoryLogDevice()
    copy.save_checkpoint(device.load_checkpoint())
    copy.append(log)
    return copy


def _re_crc(body: str) -> str:
    return f"{body}|{zlib.crc32(body.encode('utf-8')):08x}"


def _mutate_record(rng: random.Random, log: str) -> str:
    """One edit to one record's body, CRC recomputed so the record
    parses: a character deleted, replaced or inserted, one field emptied
    or swapped for another of the record (a value in a column of another
    type); or, in a CHANGE record's first group, its pair count or image
    width moved, an image swapped for the absent token (or the token for
    an image), or a pair's rowid moved."""
    lines = log.split("\n")
    edit = rng.randrange(9)
    at = rng.choice(  # the last "line" is the final newline
        range(len(lines) - 1) if edit < 5
        else [index for index, line in enumerate(lines) if f"\t{CHANGE}\t" in line]
    )
    body = lines[at].rpartition("|")[0]
    where = rng.randrange(len(body))
    fields = body.split("\t")
    alphabet = " \t\\:~|.0123456789tnrq"
    if edit == 0:
        body = body[:where] + body[where + 1:]
    elif edit == 1:
        body = body[:where] + rng.choice(alphabet) + body[where + 1:]
    elif edit == 2:
        body = body[:where] + rng.choice(alphabet) + body[where:]
    elif edit < 5:
        fields[rng.randrange(len(fields))] = "" if edit == 3 else rng.choice(fields)
        body = "\t".join(fields)
    elif edit < 7:
        field = 3 if edit == 5 else 4  # the first group's count, its width
        moved = int(fields[field])
        fields[field] = str(rng.choice((moved - 1, moved + 1, 0, -1)))
        body = "\t".join(fields)
    else:
        ((record,), _) = parse_log(lines[at] + "\n")
        (table, changes), *rest = record.groups
        changes, pair = list(changes), rng.randrange(len(changes))
        rowid, before, after = changes[pair]
        if edit == 7:
            images = [image for change in changes for image in change[1:] if image]
            if rng.randrange(2):
                before = rng.choice(images) if before is None else None
            else:
                after = rng.choice(images) if after is None else None
        else:
            rowid = rng.choice((changes[rng.randrange(len(changes))][0], RowId(rng.randrange(40))))
        changes[pair] = (rowid, before, after)
        if before is None and after is None:
            return log
        mutant = WalRecord(record.lsn, CHANGE, ((table, tuple(changes)), *rest))
        body = mutant.encode().rpartition("|")[0]
    lines[at] = _re_crc(body)
    return "\n".join(lines)


#: What the previous, tagged codec logged for one Markdown file through
#: the daemon: a CHECKPOINT marker and one CHANGE record in the tagged
#: grammar (``i:``, ``s:``, ``t:``, ``r:`` values, each image
#: escaped again into one space-free token).  Every CRC checks.
TAGGED_LOG = (
    "1 CHECKPOINT|95d0b124\n2 CHANGE DOC 1 F0.B0.S0 . i:1\\ts:memo.md\\tt:2005-06-14T00:00:00"
    "\\ti:29\\ts:markdown\\ts:char_size=29;format=markdown;line_count=4;revision=1 XML 6 "
    "F0.B0.S0 . i:1\\ti:1\\t~\\t~\\t~\\ti:1\\ts:document\\t~\\ti:0\\t~ F0.B0.S1 . "
    "i:2\\ti:1\\tr:F0.B0.S0\\ti:1\\t~\\ti:5\\ts:section\\t~\\ti:0\\t~ F0.B0.S2 . "
    "i:3\\ti:1\\tr:F0.B0.S1\\ti:2\\tr:F0.B0.S4\\ti:3\\ts:context\\t~\\ti:0\\t~ F0.B0.S3 . "
    "i:4\\ti:1\\tr:F0.B0.S2\\ti:3\\t~\\ti:2\\t~\\ts:Memo\\ti:0\\t~ F0.B0.S4 . "
    "i:5\\ti:1\\tr:F0.B0.S1\\ti:2\\t~\\ti:1\\ts:content\\t~\\ti:1\\t~ F0.B0.S5 . "
    "i:6\\ti:1\\tr:F0.B0.S4\\ti:5\\t~\\ti:2\\t~\\ts:Valve\\stelemetry\\stest\\ti:0\\t~"
    "|602a66d4\n"
)


class TestHostileLogs:
    """Recovery and follower replay answer a CRC-valid but damaged log
    with a database or a :mod:`repro.errors` type, never a stray builtin
    exception — the twin of the snapshot loader's ``TestHostileSnapshots``."""

    def test_seeded_mutations_raise_only_typed_errors(self):
        device, rng = _small_store_device(), random.Random(29)
        log = device.read_log()
        for _ in range(600):
            mutant = _mutate_record(rng, log)
            for reopen in (recover, recover_follower):
                try:
                    reopen(_with_log(device, mutant))
                except ReproError:
                    pass

    @staticmethod
    def _with_first_insert(device: MemoryLogDevice, value: str) -> MemoryLogDevice:
        """The device with the first document's node row at slot 3
        logging ``value`` for its NODETYPE (2), CRC recomputed."""
        lines = device.read_log().split("\n")
        (at,) = [
            index for index, line in enumerate(lines)
            if line.startswith(f"2\t{CHANGE}\tDOC\t1\t")
        ]
        insert = "\t3\t.\t2\t2\t"
        assert lines[at].count(insert) == 1
        lines[at] = _re_crc(
            lines[at].rpartition("|")[0].replace(insert, f"\t3\t.\t2\t{value}\t")
        )
        return _with_log(device, "\n".join(lines))

    def test_a_wrong_typed_logged_value_is_a_recovery_error(self):
        """``~`` in the INTEGER (NOT NULL) NODETYPE column, the one value
        of another type a column-typed image can carry: NULL would reach
        the store as a node of no type."""
        device = self._with_first_insert(_small_store_device(), "~")
        for reopen in (recover, recover_follower):
            with pytest.raises(RecoveryError, match="NODETYPE"):
                reopen(device)

    @pytest.mark.parametrize("value", ["4x", "s:4"], ids=["unreadable", "tagged"])
    def test_a_logged_value_its_column_cannot_read_is_corruption(self, value):
        """A logged value is read by its column's type: text no INTEGER
        has — a value tag of the old grammar included — was never written
        by this one, and its CRC checks, so the record is corruption."""
        device = self._with_first_insert(_small_store_device(), value)
        for reopen in (recover, recover_follower):
            with pytest.raises(CorruptLogError, match="LSN 2: malformed WAL record"):
                reopen(device)

    @pytest.mark.parametrize("escaped", ["Alpha\\q", "Alpha\\"], ids=["unknown", "lone"])
    def test_a_malformed_escape_is_corruption(self, escaped):
        """An escape the codec never writes — ``\\q``, or a backslash
        that ends the value — loads no value nobody wrote: the record,
        its CRC checking, is corruption, and the device is left alone."""
        device = _small_store_device()
        log = device.read_log()
        assert "\tAlpha\t" in log
        damaged = "\n".join(
            _re_crc(line.rpartition("|")[0].replace("\tAlpha\t", f"\t{escaped}\t"))
            if "\tAlpha\t" in line else line
            for line in log.split("\n")
        )
        for reopen in (recover, recover_follower):
            copy = _with_log(device, damaged)
            with pytest.raises(CorruptLogError, match="escape|backslash"):
                reopen(copy)
            assert copy.read_log() == damaged

    @pytest.mark.parametrize("slot", ["live", "tombstone", "past-the-tail"])
    def test_a_logged_insert_off_the_tail_is_a_recovery_error(self, slot):
        """An insert the log places anywhere but the table's next slot
        says the log and the checkpoint diverged: a live slot, a
        tombstone (only a rollback fills one) or an address past the tail."""
        database = durable_database()
        kept = database.insert("T", {"ID": 1})
        gone = database.insert("T", {"ID": 2})
        database.delete("T", gone)
        rowid = {
            "live": kept, "tombstone": gone,
            "past-the-tail": database.table("T").next_rowids(2)[1],
        }[slot]
        device = database.wal.device
        device.append(change_record(
            database.wal.next_lsn, "T", ((rowid, None, (3, "x")),),
        ).encode())
        for reopen in (recover, recover_follower):
            with pytest.raises(RecoveryError, match="cannot redo"):
                reopen(_with_log(device, device.read_log()))

    def test_a_log_the_tagged_grammar_wrote_is_refused_not_cut(self):
        """The previous, tagged codec wrote this log: every line passes
        its CRC, none parses in today's grammar.  Recovery
        refuses it, typed, and leaves the device as it found it."""
        for reopen in (recover, recover_follower):
            device = _with_log(_small_store_device(), TAGGED_LOG)
            with pytest.raises(CorruptLogError, match="does not parse"):
                reopen(device)
            assert device.read_log() == TAGGED_LOG

    def test_a_log_of_file_block_slot_addresses_is_refused_not_cut(self):
        """The slotted heap logged each address as ``F<file>.B<block>.S<slot>``:
        every line of such a log passes its CRC, none parses in today's
        grammar, whose address is the decimal slot number."""
        device = _small_store_device()

        class Triple(RowId):
            def encode(self):
                return "F0.B%d.S%d" % divmod(self, 64)

        log = "".join(
            WalRecord(record.lsn, record.kind, tuple(
                (table, tuple((Triple(rowid), *images) for rowid, *images in changes))
                for table, changes in record.groups
            )).encode()
            for record in parse_log(device.read_log())[0]
        )
        assert "\tF0.B0.S" in log
        for reopen in (recover, recover_follower):
            copy = _with_log(device, log)
            with pytest.raises(CorruptLogError, match="does not parse"):
                reopen(copy)
            assert copy.read_log() == log

    def test_a_log_the_transaction_era_wrote_is_refused_not_cut(self):
        """Every line of this log passes its CRC; none parses in today's
        grammar.  Cutting it as a torn tail would drop committed work
        silently: recovery refuses it, typed, and leaves the device as
        it found it."""
        database = durable_database()
        log = database.wal.device.read_log() + "".join(
            _re_crc(body) + "\n" for body in (
                "2 BEGIN 1",
                "3 CHANGE 1 T 1 F0.B0.S0 . i:1\ts:x",
                "4 COMMIT 1",
            )
        )
        for reopen in (recover, recover_follower):
            device = _with_log(database.wal.device, log)
            with pytest.raises(CorruptLogError):
                reopen(device)
            assert device.read_log() == log
