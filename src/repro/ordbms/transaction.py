"""Transactions that roll back by taking their changes back.

The NETMARK load path inserts a ``DOC`` row plus hundreds of ``XML`` node
rows per document; the store wraps each document load in a transaction so a
mid-load failure never leaves a half-decomposed document behind.

The model is single-writer with logical undo: every change a transaction
makes is kept as ``(table, before, after)``, and rollback applies each one
reversed — ``(after, before)``, newest first, a run of one table's
changes as one batch — through the same statement that applied it.
This is all the paper's workload needs — NETMARK has no
concurrent-writer story and neither do we.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ConstraintError, ReproError, RowIdError, TransactionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.ordbms.database import Database
    from repro.ordbms.table import Table


@dataclass
class Transaction:
    """An open transaction; obtained from :meth:`Database.begin`."""

    database: "Database"
    #: Log-visible transaction id (0 is reserved for autocommit records).
    txid: int = 0
    #: The changes made so far, oldest first: ``(table, before, after)``.
    changes: list[tuple["Table", Any, Any]] = field(default_factory=list)
    _state: str = "active"  # active | committed | rolled_back | failed

    @property
    def is_active(self) -> bool:
        return self._state == "active"

    @property
    def is_failed(self) -> bool:
        """True when rollback itself raised; see :meth:`rollback`."""
        return self._state == "failed"

    def commit(self) -> None:
        """Make all changes permanent and close the transaction.

        With a write-ahead log attached, the COMMIT record is appended
        and synced *before* the state flips — once this method returns,
        the transaction survives any crash.  A COMMIT record the log
        refuses (its append raises an error; a death is no refusal) is a
        rollback: the changes are taken back, a ROLLBACK is appended if
        the log takes it, and the error surfaces.  A COMMIT that landed
        but failed to sync is committed as far as the log can tell.
        """
        self._require_active()
        wal = self.database.wal
        if wal is not None:
            landing = wal.next_lsn
            try:
                wal.log_commit(self.txid)
            except (ReproError, OSError):
                if wal.next_lsn == landing:
                    self.rollback()
                else:
                    self._close("committed")
                raise
        self._close("committed")

    def rollback(self) -> None:
        """Take every change back, newest first, and close the transaction.

        If a change cannot be taken back, the transaction moves to the
        terminal ``failed`` state (never stranded ``active``) and the
        error surfaces wrapped in :class:`TransactionError`.  A failed
        transaction writes no ROLLBACK record, so an attached write-ahead
        log still discards it cleanly on recovery.  The transaction
        closes even when the log refuses its ROLLBACK record.
        """
        self._require_active()
        try:
            self._unwind()
            self._state = "rolled_back"
            wal = self.database.wal
            if wal is not None:
                wal.log_rollback(self.txid)
        finally:
            self.database._transaction_closed(self)

    def _unwind(self) -> None:
        """Apply every change reversed, newest first, a run of one table's
        changes as one batch; fail terminally.  A batch the table refuses
        (a slot it names twice, a change that cannot be taken back) moved
        nothing: it is taken back a change at a time instead."""
        while self.changes:
            table, run = self.changes[-1][0], []
            while self.changes and self.changes[-1][0] is table:
                _, before, after = self.changes.pop()
                run.append((after, before))
            batch = run
            try:
                try:
                    table.change(batch)
                except (RowIdError, ConstraintError):  # it moved nothing
                    for pair in run:
                        batch = [pair]
                        table.change(batch)
            except Exception as error:  # lint: allow-broad-except(any undo failure must fail the transaction, not escape it)
                self._state = "failed"
                row = next(row for row in batch[0] if row is not None)
                raise TransactionError(
                    f"rollback failed while taking back a change to "
                    f"{table.schema.name} at {row.rowid}; transaction is now "
                    f"failed and its in-memory effects may be partially applied"
                ) from error

    def _close(self, state: str) -> None:
        self.changes.clear()
        self._state = state
        self.database._transaction_closed(self)

    # -- context manager: commit on success, roll back on exception -------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if not self.is_active:
            return False
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False

    def _require_active(self) -> None:
        if self._state != "active":
            raise TransactionError(f"transaction is {self._state}, not active")
