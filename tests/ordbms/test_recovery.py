"""Crash recovery: replay, losers, checkpoints, and the crash matrix."""

import random
import zlib

import pytest

from repro.errors import (
    ReproError,
    RecoveryError,
    SourceUnavailableError,
    TransactionError,
    WalError,
)
from repro.ordbms import (
    Column,
    Database,
    INTEGER,
    MemoryLogDevice,
    TableSchema,
    VARCHAR,
    recover,
)
from repro.ordbms.recovery import recover_follower
from repro.ordbms.snapshot import dump_database
from repro.ordbms.transaction import Transaction
from repro.ordbms.wal import INSERT, UPDATE, WalRecord
from repro.resilience import FaultPlan
from repro.store import XmlStore


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


class TestBasicRecovery:
    def test_autocommit_rows_survive(self):
        database = durable_database()
        rowid = database.insert("T", {"ID": 1, "V": "tab\there"})
        recovered = crash_and_recover(database)
        assert recovered.fetch("T", rowid) == (1, "tab\there", rowid)
        assert dump_database(recovered) == dump_database(database)

    def test_committed_transaction_survives(self):
        database = durable_database()
        with database.begin():
            database.insert("T", {"ID": 1})
            database.insert("T", {"ID": 2})
        recovered = crash_and_recover(database)
        assert len(recovered.table("T")) == 2

    def test_uncommitted_transaction_is_discarded(self):
        database = durable_database()
        database.begin()
        database.insert("T", {"ID": 1})
        # No commit: the process "dies" here.  Recovery must land on
        # exactly the state a live rollback would have produced (the
        # undone insert leaves the same tombstone either way).
        twin = durable_database()
        twin_transaction = twin.begin()
        twin.insert("T", {"ID": 1})
        twin_transaction.rollback()
        recovered = crash_and_recover(database)
        assert len(recovered.table("T")) == 0
        assert dump_database(recovered) == dump_database(twin)

    def test_loser_reported_in_result(self):
        database = durable_database()
        database.begin()
        database.insert("T", {"ID": 1})
        result = recover(database.wal.device)
        assert result.losers_discarded == (1,)
        assert result.transactions_committed == 0

    def test_rolled_back_transaction_leaves_no_rows(self):
        database = durable_database()
        transaction = database.begin()
        database.insert("T", {"ID": 1})
        transaction.rollback()
        recovered = crash_and_recover(database)
        assert len(recovered.table("T")) == 0

    def test_a_transaction_left_open_mid_log_is_taken_back(self):
        """The log refuses a COMMIT and its ROLLBACK; the writer took the
        update back in memory and writes the row again.  Replay takes the
        open transaction back at the writer's next record, so that
        record's before-image matches."""
        plan, device = FaultPlan(), MemoryLogDevice()
        database = durable_database(plan.wrap_log_device(device))
        rowid = database.insert("T", {"ID": 1, "V": "old"})
        transaction = database.begin()
        database.update("T", rowid, {"V": "lost"})
        plan.fail("wal", "append", kind="unavailable", times=2)
        with pytest.raises(SourceUnavailableError):
            transaction.commit()
        assert database.fetch("T", rowid).V == "old"
        database.update("T", rowid, {"V": "new"})
        result = recover(device)
        assert result.database.fetch("T", rowid).V == "new"
        assert result.transactions_rolled_back == 1
        assert result.losers_discarded == ()
        assert dump_database(result.database) == dump_database(database)

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
        """Rolled-back inserts still consume slots during replay."""
        database = durable_database()
        transaction = database.begin()
        database.insert("T", {"ID": 1})
        transaction.rollback()
        survivor = database.insert("T", {"ID": 2})
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

    def test_checkpoint_inside_transaction_rejected(self):
        database = durable_database()
        database.begin()
        with pytest.raises(TransactionError):
            database.checkpoint()

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
        device.append("2 COMMIT 99|deadbeef")  # torn: bad CRC, no newline
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
        database.begin()
        in_flight = database.insert("T", {"ID": 2})  # never committed
        database.wal.device.append("9 COMMIT 99|deadbeef")  # torn
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
        # The one difference: the writer discards the loser, the
        # follower keeps it open (its COMMIT may still be shipped).
        assert writer.losers_discarded == follower.replayer.in_flight != ()
        assert follower.database.fetch("T", in_flight).ID == 2
        assert [row.ID for row in writer.database.table("T").scan()] == [1]

    def test_preimage_divergence_refused(self):
        database = durable_database()
        rowid = database.insert("T", {"ID": 1, "V": "real"})
        device = database.wal.device
        device.append(WalRecord(
            database.wal.next_lsn, UPDATE, table="T", rowid=rowid,
            before=(1, "imposter"), after=(1, "other"),
        ).encode())
        with pytest.raises(RecoveryError):
            recover(device)

    def test_unknown_table_refused(self):
        device = MemoryLogDevice()
        database = durable_database(device)
        from repro.ordbms import RowId

        device.append(WalRecord(
            database.wal.next_lsn, INSERT, table="GHOST", rowid=RowId(0, 0, 0),
            after=(1,),
        ).encode())
        with pytest.raises(RecoveryError):
            recover(device)

    def test_a_rollback_replay_cannot_finish_is_refused(self, monkeypatch):
        """A logged ROLLBACK replays through the writer's own rollback; a
        change it cannot take back is a RecoveryError naming the LSN."""
        database = durable_database()
        transaction = database.begin()
        database.insert("T", {"ID": 1})
        transaction.rollback()
        rollback_lsn = database.wal.last_lsn

        def cannot(transaction):
            raise TransactionError("the slot moved")

        monkeypatch.setattr(Transaction, "_unwind", cannot)
        with pytest.raises(RecoveryError, match=f"LSN {rollback_lsn}: cannot roll back"):
            recover(database.wal.device)


def live_rows(database: Database) -> list[tuple]:
    """Canonical live-row state: (rowid, columns) of every live row.

    Tombstones are physical residue — a loser undone by recovery leaves
    the same dead slots a live rollback would, but *which* slots depends
    on where the crash fell — so atomicity is asserted on the rows a
    query can see, ROWIDs included.
    """
    return sorted(
        (row.rowid, row.ID, row.V)
        for row in database.table("T").scan()
    )


class TestCrashMatrixProperty:
    def test_every_crash_point_recovers_to_a_boundary(self):
        """The tentpole property: at every append the process could die,
        recovery lands on the pre- or post-transaction state, never
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
            with database.begin():
                database.insert("T", {"ID": 1, "V": "first"})
                database.insert("T", {"ID": 2, "V": "second"})
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
                f"to a state between transaction boundaries"
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
            with database.begin():
                database.insert("T", {"ID": 1, "V": "first"})
            database.insert("T", {"ID": 2, "V": "second"})
            dumps.append(dump_database(database))

        matrix = crash_matrix(MemoryLogDevice, run, kinds=())
        recovered = recover(matrix.baseline.target).database
        assert dump_database(recovered) == dumps[0]

    def test_no_crash_run_matches_in_memory_run(self):
        """With zero faults, the durable database behaves byte-identically
        to a WAL-free one."""

        def workload(database: Database) -> None:
            with database.begin():
                database.insert("T", {"ID": 1, "V": "a"})
            rowid = database.insert("T", {"ID": 2, "V": "b"})
            database.update("T", rowid, {"V": "b2"})
            transaction = database.begin()
            database.insert("T", {"ID": 3})
            transaction.rollback()

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


#: The field separator of a packed row image (its tabs are escaped).
_TAB = "\\t"


def _re_crc(body: str) -> str:
    return f"{body}|{zlib.crc32(body.encode('utf-8')):08x}"


def _mutate_record(rng: random.Random, log: str) -> str:
    """One edit to one record's body, CRC recomputed so the record
    parses: a character deleted, replaced or inserted, one row-image
    field emptied, or one value's type tag swapped."""
    lines = log.split("\n")
    at = rng.randrange(len(lines) - 1)  # the last "line" is the final newline
    body = lines[at].rpartition("|")[0]
    where = rng.randrange(len(body))
    edit = rng.randrange(5)
    if edit == 0:
        body = body[:where] + body[where + 1:]
    elif edit == 1:
        body = body[:where] + rng.choice(" :~|.0123456789isftr") + body[where + 1:]
    elif edit == 2:
        body = body[:where] + rng.choice(" :~|.0123456789isftr") + body[where:]
    else:
        head, _, image = body.rpartition(" ")
        fields = image.split(_TAB)
        field = rng.randrange(len(fields))
        if edit == 3:
            fields[field] = ""
        elif fields[field][1:2] == ":":
            fields[field] = rng.choice("isftr") + fields[field][1:]
        body = head + " " + _TAB.join(fields)
    lines[at] = _re_crc(body)
    return "\n".join(lines)


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

    def test_a_wrong_typed_logged_value_is_a_recovery_error(self):
        """``s:4`` in the INTEGER (primary-key) NODEID column: the value
        would reach the B+tree and compare a str with an int."""
        device = _small_store_device()
        lines = device.read_log().split("\n")
        (at,) = [
            index for index, line in enumerate(lines)
            if line.startswith("7 INSERT 1 XML F0.B0.S3 i:4" + _TAB)
        ]
        lines[at] = _re_crc(
            lines[at].rpartition("|")[0].replace(" i:4", " s:4", 1)
        )
        for reopen in (recover, recover_follower):
            with pytest.raises(RecoveryError, match="NODEID"):
                reopen(_with_log(device, "\n".join(lines)))
