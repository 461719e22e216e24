"""Transactions: atomicity of multi-row loads, rollback."""

import pytest

from repro.errors import TransactionError
from repro.ordbms import Column, Database, INTEGER, TableSchema, VARCHAR


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
        assert transaction.pending_undo_count == 0
        database.insert("T", {"ID": 1})
        assert transaction.pending_undo_count == 1


class TestFailedRollback:
    """An undo callback that raises must fail the transaction terminally."""

    def poison(self, transaction):
        def explode():
            raise RuntimeError("disk fell out")

        transaction.record_undo("poisoned step", explode)

    def test_failure_surfaces_wrapped_and_chained(self, database):
        transaction = database.begin()
        self.poison(transaction)
        with pytest.raises(TransactionError) as info:
            transaction.rollback()
        assert "poisoned step" in str(info.value)
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_failed_state_is_terminal(self, database):
        transaction = database.begin()
        self.poison(transaction)
        with pytest.raises(TransactionError):
            transaction.rollback()
        assert transaction.is_failed
        assert not transaction.is_active
        for retry in (transaction.rollback, transaction.commit):
            with pytest.raises(TransactionError):
                retry()

    def test_failure_counted_and_database_reusable(self, database):
        transaction = database.begin()
        self.poison(transaction)
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
        database.insert("T", {"ID": 1})  # will be undone (popped last)
        self.poison(transaction)
        undone = []
        transaction.record_undo("tracer", lambda: undone.append(True))
        with pytest.raises(TransactionError):
            transaction.rollback()
        assert undone == [True]  # newest-first: tracer ran, then the poison
        assert len(database.table("T")) == 1  # insert's undo never reached
