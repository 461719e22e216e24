"""Atomicity without transactions: a statement lands whole or not at all.

Every write is one statement (``Database.change``), one WAL record over
every table it names; what a transaction's commit and rollback once
promised, a statement's checks and its single record give by
construction.
"""

import pytest

from repro.errors import (
    ConstraintError,
    RecoveryError,
    RowIdError,
    SourceUnavailableError,
    TransactionError,
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
from repro.ordbms.wal import CHANGE, WalRecord
from repro.resilience import FaultPlan
from repro.store import XmlStore, check_store


def make_database(device=None) -> Database:
    db = Database("txtest")
    for name in ("T", "U"):
        db.create_table(
            TableSchema(
                name,
                (Column("ID", INTEGER, nullable=False), Column("V", VARCHAR)),
                primary_key="ID",
            )
        )
    if device is not None:
        db.enable_wal(device)
    return db


@pytest.fixture
def database():
    return make_database()


def inserts(database, name, *ids):
    table = database.table(name)
    return [
        (None, table.schema.row({"ID": id_}, rowid))
        for id_, rowid in zip(ids, table.next_rowids(len(ids)))
    ]


def refusing_log():
    """A durable database whose next append the log refuses."""
    plan, device = FaultPlan(), MemoryLogDevice()
    database = make_database(plan.wrap_log_device(device))
    return database, plan, device


def rows(database, name="T"):
    return [(row.ID, row.V) for row in database.table(name).scan()]


class TestCommitRollback:
    def test_commit_keeps_rows(self, database):
        database.change([("T", inserts(database, "T", 1))])
        assert len(database.table("T")) == 1
        assert database.stats.rows_inserted == 1

    def test_rollback_removes_inserts(self):
        database, plan, device = refusing_log()
        plan.fail("wal", "append", kind="unavailable")
        with pytest.raises(SourceUnavailableError):
            database.change([("T", inserts(database, "T", 1, 2))])
        assert len(database.table("T")) == 0
        assert database.stats.rows_inserted == 0

    def test_rollback_restores_deletes_at_same_rowid(self):
        database, plan, device = refusing_log()
        rowid = database.insert("T", {"ID": 1, "V": "keep"})
        plan.fail("wal", "append", kind="unavailable")
        with pytest.raises(SourceUnavailableError):
            database.delete("T", rowid)
        assert database.fetch("T", rowid).V == "keep"

    def test_rollback_restores_updates(self):
        database, plan, device = refusing_log()
        rowid = database.insert("T", {"ID": 1, "V": "old"})
        plan.fail("wal", "append", kind="unavailable")
        with pytest.raises(SourceUnavailableError):
            database.update("T", rowid, {"V": "new"})
        assert database.fetch("T", rowid).V == "old"
        assert recover(device).database.fetch("T", rowid).V == "old"

    def test_rollback_insert_then_delete(self, database):
        # Insert and delete one slot in one statement: it names the slot
        # twice and is refused before it moves.
        (pair,) = inserts(database, "T", 1)
        with pytest.raises(RowIdError):
            database.change([("T", [pair, (pair[1], None)])])
        assert len(database.table("T")) == 0 and database.mvcc.lsn == 0

    def test_context_manager_commits_on_success(self, database):
        database.change([("T", inserts(database, "T", 1)), ("U", inserts(database, "U", 2))])
        assert rows(database, "T") == [(1, None)] and rows(database, "U") == [(2, None)]
        assert database.mvcc.lsn == 1

    def test_context_manager_rolls_back_on_error(self, database):
        database.insert("U", {"ID": 2})
        with pytest.raises(ConstraintError):
            database.change([("T", inserts(database, "T", 1)), ("U", inserts(database, "U", 2))])
        assert len(database.table("T")) == 0 and rows(database, "U") == [(2, None)]


class TestStateMachine:
    def test_double_begin_rejected(self, database):
        """A second writer starting a statement while one is mid-way is
        refused, and moves nothing."""
        lsn = database.mvcc.begin_statement()  # a writer mid-statement
        with pytest.raises(TransactionError):
            database.insert("T", {"ID": 1})
        database.mvcc.commit_statement(lsn)
        assert len(database.table("T")) == 0
        database.insert("T", {"ID": 1})
        assert database.mvcc.lsn == lsn + 1

    def test_commit_twice_rejected(self, database):
        pairs = inserts(database, "T", 1)
        database.change([("T", pairs)])
        with pytest.raises(RowIdError):
            database.change([("T", pairs)])  # its slot is no longer the tail
        assert len(database.table("T")) == 1 and database.mvcc.lsn == 1

    def test_rollback_after_commit_rejected(self, database):
        """A delete is not taken back: its pre-image aimed at the slot
        is an insert into a tombstone, and refused."""
        rowid = database.insert("T", {"ID": 1})
        row = database.fetch("T", rowid)
        database.delete("T", rowid)
        with pytest.raises(RowIdError):
            database.change([("T", [(None, row)])])
        assert len(database.table("T")) == 0

    def test_new_transaction_after_close(self, database):
        database.insert("T", {"ID": 1})
        with pytest.raises(ConstraintError):
            database.insert("T", {"ID": 1})
        database.insert("T", {"ID": 2})  # no error
        assert rows(database) == [(1, None), (2, None)]

    def test_autocommit_outside_transaction(self, database):
        database.insert("T", {"ID": 1})
        assert database.mvcc.lsn == database.mvcc.read_lsn() == 1
        assert len(database.table("T")) == 1


class TestSavepoints:
    # The class keeps its name so the test keeps its id.
    def test_pending_undo_count(self, database):
        """A statement's pairs reach its journal once, grouped by table,
        before any slot moves; nothing is kept after it."""
        table, seen = database.table("T"), []
        pairs = inserts(database, "T", 1, 2)

        def journal(groups):
            seen.append([(group, list(changes)) for group, changes in groups])
            assert not any(table.exists(after.rowid) for _, after in pairs)

        table.change(pairs, journal)
        assert seen == [[(table, pairs)]]
        assert [row.ID for row in table.scan()] == [1, 2]


class TestFailedRollback:
    """A change that cannot apply — its slot no longer holds its
    ``before`` — is refused before anything moves."""

    def poison(self, database, rowid):
        database.table("T").delete(rowid)  # behind the statement's back

    def test_failure_surfaces_wrapped_and_chained(self):
        """In the log, such a change is the log and the heap disagreeing:
        replay names the LSN and chains the table's refusal."""
        device = MemoryLogDevice()
        database = make_database(device)
        rowid = database.insert("T", {"ID": 1})
        lsn = database.wal.next_lsn
        device.append(WalRecord(lsn, CHANGE, (
            ("T", ((rowid, ["1", "imposter"], None),)),
        )).encode())
        with pytest.raises(RecoveryError) as info:
            recover(device)
        assert f"LSN {lsn}" in str(info.value)
        assert isinstance(info.value.__cause__, RowIdError)

    def test_failed_state_is_terminal(self, database):
        """A refused statement is refused again when retried, and leaves
        no writer state behind: no writer active, the seqlock even."""
        rowid = database.insert("T", {"ID": 1})
        before = database.fetch("T", rowid)
        self.poison(database, rowid)
        table = database.table("T")
        for _ in range(2):
            with pytest.raises(RowIdError):
                database.change([("T", [(before, None)])])
        assert table._seq % 2 == 0  # noqa: SLF001 - no bracket left open
        lsn = database.mvcc.begin_statement()  # no writer left active
        database.mvcc.commit_statement(lsn)

    def test_failure_counted_and_database_reusable(self, database):
        rowid = database.insert("T", {"ID": 1})
        before = database.fetch("T", rowid)
        self.poison(database, rowid)
        inserted = database.stats.rows_inserted
        with pytest.raises(RowIdError):
            database.change([("T", [*inserts(database, "T", 2), (before, None)])])
        assert database.stats.rows_inserted == inserted
        database.insert("T", {"ID": 7})
        assert rows(database) == [(7, None)]


class TestARefusedCommit:
    """A store's one record the log refuses, the process living on."""

    def test_the_writer_is_not_wedged(self):
        plan, device = FaultPlan(), MemoryLogDevice()
        store = XmlStore.open(plan.wrap_log_device(device))
        plan.fail("wal", "append", kind="unavailable")
        text = "<doc><h1>Alpha</h1><p>beta <b>gamma</b></p></doc>"
        with pytest.raises(SourceUnavailableError):
            store.store_text(text, "a.xml")  # the DOC row and the node rows
        database = store.database
        assert database.mvcc.lsn == 0 and database.stats.rows_inserted == 0
        assert store.documents() == []
        assert check_store(database).ok
        store.store_text("<doc><p>next</p></doc>", "b.xml")
        assert [entry.file_name for entry in store.documents()] == ["b.xml"]
        assert XmlStore.open(device).dump() == store.dump()
