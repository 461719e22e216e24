"""Transactions with an undo log.

The NETMARK load path inserts a ``DOC`` row plus hundreds of ``XML`` node
rows per document; the store wraps each document load in a transaction so a
mid-load failure never leaves a half-decomposed document behind.

The model is single-writer with logical undo: every mutation appends an
undo record; rollback replays them in reverse.  This is all the paper's
workload needs — NETMARK has no concurrent-writer story and neither do we.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import TransactionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.ordbms.database import Database


@dataclass
class _UndoRecord:
    """One reversible action; ``undo`` restores the pre-action state."""

    description: str
    undo: Callable[[], None]


@dataclass
class Transaction:
    """An open transaction; obtained from :meth:`Database.begin`."""

    database: "Database"
    #: Log-visible transaction id (0 is reserved for autocommit records).
    txid: int = 0
    _undo_log: list[_UndoRecord] = field(default_factory=list)
    _state: str = "active"  # active | committed | rolled_back | failed

    @property
    def is_active(self) -> bool:
        return self._state == "active"

    @property
    def is_failed(self) -> bool:
        """True when rollback itself raised; see :meth:`rollback`."""
        return self._state == "failed"

    def record_undo(self, description: str, undo: Callable[[], None]) -> None:
        """Register a compensating action for a completed mutation."""
        self._require_active()
        self._undo_log.append(_UndoRecord(description, undo))

    def commit(self) -> None:
        """Make all mutations permanent and close the transaction.

        With a write-ahead log attached, the COMMIT record is appended
        and synced *before* the state flips — once this method returns,
        the transaction survives any crash.
        """
        self._require_active()
        wal = self.database.wal
        if wal is not None:
            wal.log_commit(self.txid)
        self._undo_log.clear()
        self._state = "committed"
        self.database._transaction_closed(self)

    def rollback(self) -> None:
        """Undo every mutation and close the transaction.

        If an undo callback itself raises, the transaction moves to the
        terminal ``failed`` state (never stranded ``active``) and the
        original error surfaces wrapped in :class:`TransactionError`.
        A failed transaction writes no ROLLBACK record, so an attached
        write-ahead log still discards it cleanly on recovery.
        """
        self._require_active()
        self._unwind()
        self._state = "rolled_back"
        wal = self.database.wal
        if wal is not None:
            wal.log_rollback(self.txid)
        self.database._transaction_closed(self)

    def _unwind(self) -> None:
        """Pop and run every undo record; fail terminally."""
        while self._undo_log:
            record = self._undo_log.pop()
            try:
                record.undo()
            except Exception as error:  # lint: allow-broad-except(any undo failure must fail the transaction, not escape it)
                self._state = "failed"
                self.database._transaction_closed(self)
                raise TransactionError(
                    f"rollback failed while undoing "
                    f"{record.description!r}; transaction is now failed "
                    f"and its in-memory effects may be partially applied"
                ) from error

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

    @property
    def pending_undo_count(self) -> int:
        """Mutations that would be reverted by :meth:`rollback`."""
        return len(self._undo_log)
