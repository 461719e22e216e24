"""Transactions: atomicity of multi-row loads, rollback."""

import pytest

from repro.errors import RowIdError, SourceUnavailableError, TransactionError
from repro.ordbms import (
    Column,
    Database,
    INTEGER,
    MemoryLogDevice,
    TableSchema,
    VARCHAR,
)
from repro.resilience import FaultPlan
from repro.store import XmlStore, check_store


@pytest.fixture
def database():
    db = Database("txtest")
    db.create_table(
        TableSchema(
            "T",
            (Column("ID", INTEGER, nullable=False), Column("V", VARCHAR)),
            primary_key="ID",
        )
    )
    return db


class TestCommitRollback:
    def test_commit_keeps_rows(self, database):
        with database.begin():
            database.insert("T", {"ID": 1})
        assert len(database.table("T")) == 1
        assert database.stats.transactions_committed == 1

    def test_rollback_removes_inserts(self, database):
        transaction = database.begin()
        database.insert("T", {"ID": 1})
        database.insert("T", {"ID": 2})
        transaction.rollback()
        assert len(database.table("T")) == 0
        assert database.stats.transactions_rolled_back == 1

    def test_rollback_restores_deletes_at_same_rowid(self, database):
        rowid = database.insert("T", {"ID": 1, "V": "keep"})
        transaction = database.begin()
        database.delete("T", rowid)
        transaction.rollback()
        assert database.fetch("T", rowid).V == "keep"

    def test_rollback_restores_updates(self, database):
        rowid = database.insert("T", {"ID": 1, "V": "old"})
        transaction = database.begin()
        database.update("T", rowid, {"V": "new"})
        transaction.rollback()
        assert database.fetch("T", rowid).V == "old"

    def test_rollback_insert_then_delete(self, database):
        # The regression that motivated HeapFile.restore: undo order is
        # delete-undo (restore) then insert-undo (delete) on the same slot.
        transaction = database.begin()
        rowid = database.insert("T", {"ID": 1})
        database.delete("T", rowid)
        transaction.rollback()
        assert len(database.table("T")) == 0

    def test_context_manager_commits_on_success(self, database):
        with database.begin():
            database.insert("T", {"ID": 1})
        assert len(database.table("T")) == 1

    def test_context_manager_rolls_back_on_error(self, database):
        with pytest.raises(ValueError):
            with database.begin():
                database.insert("T", {"ID": 1})
                raise ValueError("boom")
        assert len(database.table("T")) == 0


class TestStateMachine:
    def test_double_begin_rejected(self, database):
        database.begin()
        with pytest.raises(TransactionError):
            database.begin()

    def test_commit_twice_rejected(self, database):
        transaction = database.begin()
        transaction.commit()
        with pytest.raises(TransactionError):
            transaction.commit()

    def test_rollback_after_commit_rejected(self, database):
        transaction = database.begin()
        transaction.commit()
        with pytest.raises(TransactionError):
            transaction.rollback()

    def test_new_transaction_after_close(self, database):
        database.begin().commit()
        database.begin().rollback()  # no error

    def test_autocommit_outside_transaction(self, database):
        database.insert("T", {"ID": 1})
        assert not database.in_transaction
        assert len(database.table("T")) == 1


class TestSavepoints:
    # Savepoints are gone; the class keeps its name because the suite's
    # floor list knows the surviving test by it.
    def test_pending_undo_count(self, database):
        transaction = database.begin()
        assert transaction.changes == []
        rowid = database.insert("T", {"ID": 1})
        [(table, before, after)] = transaction.changes
        assert table is database.table("T") and before is None
        assert after is database.fetch("T", rowid)


class TestFailedRollback:
    """A change that cannot be taken back must fail the transaction
    terminally: the row it put in a slot was deleted behind the
    transaction's back, so the slot no longer holds it."""

    def poison(self, database, rowid):
        database.table("T").delete(rowid)  # outside the transaction

    def test_failure_surfaces_wrapped_and_chained(self, database):
        transaction = database.begin()
        rowid = database.insert("T", {"ID": 1})
        self.poison(database, rowid)
        with pytest.raises(TransactionError) as info:
            transaction.rollback()
        assert f"change to T at {rowid}" in str(info.value)
        assert isinstance(info.value.__cause__, RowIdError)

    def test_failed_state_is_terminal(self, database):
        transaction = database.begin()
        self.poison(database, database.insert("T", {"ID": 1}))
        with pytest.raises(TransactionError):
            transaction.rollback()
        assert transaction.is_failed
        assert not transaction.is_active
        for retry in (transaction.rollback, transaction.commit):
            with pytest.raises(TransactionError):
                retry()

    def test_failure_counted_and_database_reusable(self, database):
        transaction = database.begin()
        self.poison(database, database.insert("T", {"ID": 1}))
        with pytest.raises(TransactionError):
            transaction.rollback()
        assert database.stats.transactions_failed == 1
        assert database.stats.transactions_rolled_back == 0
        # The slot is released: a fresh transaction can begin and commit.
        with database.begin():
            database.insert("T", {"ID": 7})
        assert len(database.table("T")) == 1

    def test_undo_records_before_the_poison_still_ran(self, database):
        transaction = database.begin()
        database.insert("T", {"ID": 1})  # would be taken back last
        poisoned = database.insert("T", {"ID": 2})
        database.insert("T", {"ID": 3})  # taken back first
        self.poison(database, poisoned)
        with pytest.raises(TransactionError):
            transaction.rollback()
        # Newest first: 3 went, then 2 failed, and 1 was never reached.
        assert [row.ID for row in database.table("T").scan()] == [1]


class TestARefusedCommit:
    """A COMMIT the log refuses, the process living on, is a rollback."""

    def test_the_writer_is_not_wedged(self):
        plan, device = FaultPlan(), MemoryLogDevice()
        store = XmlStore.open(plan.wrap_log_device(device))
        plan.fail("wal", "append", kind="unavailable", after=9)
        text = "<doc><h1>Alpha</h1><p>beta <b>gamma</b></p></doc>"  # 7 nodes
        with pytest.raises(SourceUnavailableError):
            store.store_text(text, "a.xml")  # its 10th append is the COMMIT
        database = store.database
        assert not database.in_transaction
        assert database.mvcc.read_lsn() == database.mvcc.lsn  # no pin left
        assert database.stats.transactions_rolled_back == 1
        assert store.documents() == []
        assert check_store(database).ok
        store.store_text("<doc><p>next</p></doc>", "b.xml")
        assert [entry.file_name for entry in store.documents()] == ["b.xml"]
        assert XmlStore.open(device).dump() == store.dump()
