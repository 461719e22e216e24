"""The `Database` facade: catalog + transactional mutation entry points.

This is the single object the rest of the library holds onto.  All
mutations can run inside a :class:`~repro.ordbms.transaction.Transaction`
obtained from :meth:`Database.begin`; when no transaction is open,
mutations auto-commit (each statement is atomic on its own, which matches
how the table layer already behaves).

The facade also exposes ``stats`` counters (rows written, rowid fetches,
transactions closed) — operation counts are a machine-independent proxy
for the I/O the paper's Oracle deployment saved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro import obs
from repro.errors import ReproError, TransactionError, WalError
from repro.ordbms.catalog import Catalog
from repro.ordbms.mvcc import MvccState, Snapshot
from repro.ordbms.rowid import RowId
from repro.ordbms.schema import TableSchema
from repro.ordbms.table import Pair, Table
from repro.ordbms.transaction import Transaction
from repro.ordbms.wal import AUTOCOMMIT_TXID, LogDevice, WriteAheadLog


@dataclass
class DatabaseStats:
    """Operation counters; reset with :meth:`reset`."""

    rows_inserted: int = 0
    rows_updated: int = 0
    rows_deleted: int = 0
    rowid_fetches: int = 0
    transactions_committed: int = 0
    transactions_rolled_back: int = 0
    #: Transactions whose *rollback itself* raised: a change could not
    #: be taken back, so the in-memory state may be partially reverted.
    #: The write-ahead log (when attached) still discards them cleanly.
    transactions_failed: int = 0

    def reset(self) -> None:
        for field_name in self.__dataclass_fields__:
            setattr(self, field_name, 0)


@dataclass
class Database:
    """An in-process object-relational database instance."""

    name: str = "netmarkdb"
    catalog: Catalog = field(default_factory=Catalog)
    stats: DatabaseStats = field(default_factory=DatabaseStats)
    #: Attached write-ahead log; None means the database is volatile
    #: (today's default).  Attach via :meth:`enable_wal` (fresh database)
    #: or :func:`repro.ordbms.recovery.recover` (reopen after a crash).
    wal: WriteAheadLog | None = None
    #: Database-level MVCC state: the commit LSN every mutation statement
    #: advances and the snapshot pins readers hold.  Tables created
    #: through :meth:`create_table` share it, so one snapshot covers the
    #: DOC and XML tables consistently.
    mvcc: MvccState = field(default_factory=MvccState)
    _current: Transaction | None = None
    _next_txid: int = 1
    #: GC horizon of the last commit-time history sweep.
    _swept_horizon: int = -1

    # -- DDL ----------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        table = self.catalog.create_table(schema)
        table.bind_mvcc(self.mvcc)
        return table

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    # -- transactions ---------------------------------------------------------

    def begin(self) -> Transaction:
        """Open a transaction; only one may be active at a time."""
        if self.in_transaction:
            raise TransactionError("a transaction is already active")
        txid = self._next_txid
        self._next_txid += 1
        if self.wal is not None:
            self.wal.log_begin(txid)  # a refused BEGIN opens nothing
        self._current = Transaction(self, txid=txid)
        # Snapshots opened while this transaction is in flight pin the
        # pre-transaction LSN: no reader ever sees a partial transaction
        # (each document ingest is one transaction).
        self.mvcc.transaction_opened()
        return self._current

    def _transaction_closed(self, transaction: Transaction) -> None:
        """Let reads see past the transaction that just resolved, reclaim
        the MVCC history it superseded and count it."""
        self.mvcc.transaction_closed()
        # What the transaction superseded is at or below every future
        # pin.  An unmoved horizon (a long-held snapshot) frees nothing
        # new, so commits stay O(own statements).
        horizon = self.mvcc.gc_horizon()
        if horizon != self._swept_horizon:
            self._swept_horizon = horizon
            for table in self.catalog:
                table.vacuum_versions(horizon)
        if transaction is self._current:
            self._current = None
        if transaction._state == "committed":
            self.stats.transactions_committed += 1
        elif transaction._state == "failed":
            self.stats.transactions_failed += 1
        else:
            self.stats.transactions_rolled_back += 1

    @property
    def in_transaction(self) -> bool:
        return self._current is not None  # cleared as it closes

    # -- snapshots (MVCC) -----------------------------------------------------

    def open_snapshot(self) -> Snapshot:
        """Pin the current commit LSN for non-blocking consistent reads.

        The returned handle is a context manager; release it (or leave
        the ``with`` block) to let version-GC advance past its LSN::

            with database.open_snapshot() as snap:
                row = table.visible_row(rowid, snap.lsn)
        """
        return self.mvcc.open()

    def vacuum_versions(self) -> int:
        """Version-GC across every table, down to the current GC horizon.

        Tables also auto-vacuum every
        :data:`~repro.ordbms.table.AUTO_VACUUM_INTERVAL` statements; this
        is the explicit sweep (e.g. after the last snapshot over a bulk
        ingest closes).  Returns total history entries reclaimed.
        """
        return sum(table.vacuum_versions() for table in self.catalog)

    # -- durability -----------------------------------------------------------

    def enable_wal(self, device: LogDevice) -> WriteAheadLog:
        """Attach a write-ahead log to a fresh database.

        Writes a baseline checkpoint immediately — the WAL carries no
        DDL records, so the checkpoint is what makes the current schema
        (and any rows already present) recoverable.  Every later commit
        is durable the moment it returns.
        """
        wal = WriteAheadLog(device)
        self.attach_wal(wal)
        self.checkpoint()
        return wal

    def attach_wal(self, wal: WriteAheadLog, next_txid: int | None = None) -> None:
        """Adopt an existing log (the recovery resume path)."""
        if self.wal is not None:
            raise WalError(
                f"database {self.name!r} already has a write-ahead log"
            )
        if self.in_transaction:
            raise TransactionError(
                "cannot attach a write-ahead log inside an open transaction"
            )
        self.wal = wal
        if next_txid is not None:
            self._next_txid = max(self._next_txid, next_txid)

    def checkpoint(self) -> int:
        """Fold all durable state into a fresh checkpoint; truncate the log.

        Returns the highest LSN the checkpoint covers.  Forbidden while
        a transaction is open — a checkpoint must capture a transaction-
        consistent image.
        """
        if self.wal is None:
            raise WalError("checkpoint requires an attached write-ahead log")
        if self.in_transaction:
            raise TransactionError(
                "cannot checkpoint while a transaction is active"
            )
        from repro.ordbms.snapshot import dump_database

        return self.wal.write_checkpoint(dump_database(self))

    # -- DML (transaction-aware) ------------------------------------------------

    def insert(self, table_name: str, values: Mapping[str, Any]) -> RowId:
        return self.table(table_name).insert(values, self._journal)

    def update(
        self, table_name: str, rowid: RowId, changes: Mapping[str, Any]
    ) -> None:
        self.table(table_name).update(rowid, changes, self._journal)

    def delete(self, table_name: str, rowid: RowId) -> None:
        self.table(table_name).delete(rowid, self._journal)

    def change(self, table_name: str, pairs: Sequence[Pair]) -> None:
        """Apply ``pairs`` (see :meth:`Table.change`) as one statement: a
        document's rows, loaded or deleted, in one go."""
        self.table(table_name).change(pairs, self._journal)

    def _journal(
        self, table: Table, pairs: Sequence[Pair]
    ) -> tuple[int, BaseException | None]:
        """Checked changes, about to move their slots: log them (outside
        a transaction a statement commits, so it syncs too), keep them for
        rollback and count them.  A log that refuses a record stops the
        statement there: the prefix it took is what moves (and is kept),
        and its error is the statement's."""
        current, taken, refusal = self._current, len(pairs), None
        if self.wal is not None:
            txid = AUTOCOMMIT_TXID if current is None else current.txid
            landing = self.wal.next_lsn
            try:
                self.wal.log_changes(txid, table.schema.name, pairs)
                if current is None:
                    self.wal.device.sync()
                    obs.inc("repro_ordbms_wal_syncs_total", reason="autocommit")
            except ReproError as error:
                taken, refusal = self.wal.next_lsn - landing, error
        done, stats = pairs[:taken], self.stats
        if current is not None:
            current.changes += [(table, before, after) for before, after in done]
        for before, after in done:  # a loop: replay calls this once a row
            if before is None:
                stats.rows_inserted += 1
            elif after is None:
                stats.rows_deleted += 1
            else:
                stats.rows_updated += 1
        return taken, refusal

    def fetch(self, table_name: str, rowid: RowId) -> Any:
        """O(1) fetch by physical ROWID (counted in stats): the stored row."""
        self.stats.rowid_fetches += 1
        return self.table(table_name).fetch(rowid)
