"""Crash recovery: rebuild a :class:`Database` from its log device.

ARIES-lite, sized to the single-writer engine: one forward pass over the
log redoes every change *positionally* — an insert must take exactly the
ROWID the log recorded, which is what lets ``PARENTROWID`` /
``SIBLINGID`` values stored inside rows survive a crash — and resolves
transactions as their COMMIT / ROLLBACK records stream past.
Whatever is still unresolved at the end of the log died with the process
and is rolled back (the *losers*).

Replay is a client of the database it rebuilds, with no transaction
machine of its own: a logged BEGIN is :meth:`Database.begin`, a change
is :meth:`Database.change`, a COMMIT is ``commit()`` and a ROLLBACK —
or a transaction the writer abandoned, or a loser — is ``rollback()``.
So replay holds the writer's transaction pin, takes a transaction back
the way the writer does (a run of one table's changes per statement)
and counts in the database's ``stats``.  Two properties fall out of the
design and are what the crash harness asserts:

* **Atomicity** — recovered state equals the pre- or post-transaction
  state, never anything in between, because a transaction's changes
  are kept only once its COMMIT record is durable.
* **Physical identity** — every replayed insert takes the logged
  address, and every update/delete before-image must be what the
  recovered slot holds; any disagreement means the log and the
  checkpoint diverged, and recovery refuses with
  :class:`~repro.errors.RecoveryError` rather than guess.

Rolled-back transactions are replayed *then* rolled back at their
ROLLBACK record's position in the LSN stream — not skipped — so that
slot allocation during replay matches slot allocation during the
original run exactly (a skipped insert would shift every later row's
address).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro import obs
from repro.errors import (
    CatalogError,
    ConstraintError,
    RecoveryError,
    RowIdError,
    SchemaError,
    TransactionError,
    TypeMismatchError,
)
from repro.ordbms.database import Database
from repro.ordbms.snapshot import load_database
from repro.ordbms.table import Table
from repro.ordbms.transaction import Transaction
from repro.ordbms.wal import (
    AUTOCOMMIT_TXID,
    BEGIN,
    COMMIT,
    DELETE,
    INSERT,
    ROLLBACK,
    UPDATE,
    LogDevice,
    WalRecord,
    WriteAheadLog,
    decode_checkpoint,
    highest_txid,
    parse_log,
)


class StreamReplayer:
    """Incremental ARIES-lite replay: one record at a time.

    The follower half of WAL shipping (``repro.cluster``) and the inner
    loop of :func:`recover` share this machinery.  Records at or below
    ``applied_lsn`` are skipped — the property that makes catch-up after
    a checkpoint install idempotent.  Every other record runs through
    the database's own transactions (see the module docstring).

    A transaction stays open (``database.in_transaction``) across
    :meth:`apply` calls until its COMMIT / ROLLBACK streams past or a
    record outside it (a BEGIN, an autocommit change, a CHECKPOINT)
    shows the single writer took it back; :meth:`discard_in_flight`
    rolls back whatever is still open (the loser-discard step, used at
    end-of-log and at failover promotion).  While one is open the
    database's transaction pin holds reads at the LSN before its BEGIN,
    so a follower's reader never sees half a shipped transaction.
    """

    def __init__(self, database: Database, applied_lsn: int = 0) -> None:
        self.database = database
        self.applied_lsn = applied_lsn
        #: The open transaction, carrying the log's transaction id.
        self._open: Transaction | None = None

    @property
    def in_flight(self) -> tuple[int, ...]:
        """The log's id of the transaction begun but not yet resolved
        (one at most)."""
        return () if self._open is None else (self._open.txid,)

    def apply(self, record: WalRecord) -> bool:
        """Replay one record; returns False when it was already covered."""
        if record.lsn <= self.applied_lsn:
            # Already folded into the checkpoint (or already shipped):
            # skipping is what makes replay and catch-up idempotent.
            return False
        if record.txid not in self.in_flight and (
            record.kind == BEGIN or record.txid == AUTOCOMMIT_TXID
        ):
            # One writer, one transaction at a time: a record outside the
            # open one means the writer took it back with no terminal
            # record landing (both refused, or a restart).  So does replay.
            self.discard_in_flight()
        if record.kind == BEGIN:
            if self._open is not None:  # this txid: any other was discarded
                raise RecoveryError(
                    f"LSN {record.lsn}: BEGIN for transaction "
                    f"{record.txid} which is already open"
                )
            self._open = self.database.begin()
            self._open.txid = record.txid  # the log's, not a fresh one
        elif record.kind in (INSERT, UPDATE, DELETE):
            if record.txid != AUTOCOMMIT_TXID:
                self._require_open(record)
            _redo(self.database, record)
        elif record.kind in (COMMIT, ROLLBACK):
            transaction, self._open = self._require_open(record), None
            if record.kind == COMMIT:
                transaction.commit()
            else:
                _roll_back(transaction, record.lsn)
        # CHECKPOINT markers carry no state; they only advance the LSN.
        self.applied_lsn = record.lsn
        return True

    def discard_in_flight(self) -> tuple[int, ...]:
        """Roll back the open transaction, if any.

        Returns the discarded transaction ids — the *losers* at a crash
        or failover: their changes were durable but their commit never
        was, so recovered state must not contain them.
        """
        losers, transaction, self._open = self.in_flight, self._open, None
        if transaction is not None:
            _roll_back(transaction, self.applied_lsn)
        return losers

    def _require_open(self, record: WalRecord) -> Transaction:
        """The open transaction, which ``record`` must belong to."""
        if self._open is None or record.txid != self._open.txid:
            raise RecoveryError(
                f"LSN {record.lsn}: {record.kind} for transaction "
                f"{record.txid} which has no BEGIN record"
            )
        return self._open


@dataclass(frozen=True)
class RecoveryResult:
    """What one recovery pass did, for logs, tests and post-mortems.

    The counters are the recovered database's ``stats`` at the end of
    the log, before any loser is discarded."""

    database: Database
    #: Positioned at the device's last durable record; a follower keeps
    #: it for further shipping.
    replayer: StreamReplayer
    checkpoint_lsn: int
    last_lsn: int
    records_replayed: int
    transactions_committed: int
    transactions_rolled_back: int
    #: Transaction ids that were open when the process died; their
    #: changes were rolled back (never by :func:`recover_follower`).
    losers_discarded: tuple[int, ...]
    #: Human-readable reason the log's tail was truncated (torn write),
    #: or None when the log parsed cleanly to its end.
    torn_tail: str | None


def _replay_device(
    device: LogDevice, name: str
) -> tuple[RecoveryResult, list[WalRecord]]:
    """Replay what a device durably holds: both recoveries start so.

    Returns the result, losers still open, and the log's well-formed
    records, replayed over the checkpoint's image (an empty database
    when the slot is empty).  A torn tail is physically dropped —
    appends after damaged bytes would read as mid-log corruption on the
    next open, and a follower must ack from its last *durable* record,
    never past it.
    """
    checkpoint_text = device.load_checkpoint()
    if checkpoint_text is None:
        database, checkpoint_lsn = Database(name), 0
    else:
        checkpoint_lsn, snapshot_text = decode_checkpoint(checkpoint_text)
        database = load_database(snapshot_text, name)
        obs.inc("repro_ordbms_recovery_checkpoint_loads_total")
    records, torn_tail = parse_log(device.read_log())
    if torn_tail is not None:
        device.truncate_log()
        for record in records:
            device.append(record.encode())
        device.sync()
    replayer = StreamReplayer(database, applied_lsn=checkpoint_lsn)
    for record in records:
        replayer.apply(record)
    stats = database.stats
    replayed = stats.rows_inserted + stats.rows_updated + stats.rows_deleted
    obs.inc("repro_ordbms_recovery_runs_total")
    obs.inc("repro_ordbms_recovery_records_replayed_total", replayed)
    if torn_tail is not None:
        obs.inc("repro_ordbms_recovery_torn_tails_total")
    return RecoveryResult(
        database=database,
        replayer=replayer,
        checkpoint_lsn=checkpoint_lsn,
        last_lsn=max(checkpoint_lsn, records[-1].lsn if records else 0),
        records_replayed=replayed,
        transactions_committed=stats.transactions_committed,
        transactions_rolled_back=stats.transactions_rolled_back,
        losers_discarded=(),
        torn_tail=torn_tail,
    ), records


def recover(device: LogDevice, name: str = "recovered") -> RecoveryResult:
    """Rebuild the database held by ``device`` and resume its WAL.

    Loads the checkpoint (if any), replays log records with LSNs above
    the checkpoint's, rolls back losers, trims any torn tail off the
    device, and attaches a resumed :class:`~repro.ordbms.wal.WriteAheadLog`
    so the returned database is immediately writable-and-durable again.

    Raises :class:`~repro.errors.CorruptLogError` for mid-log damage
    (never silently skipped) and :class:`~repro.errors.RecoveryError`
    when the log disagrees with the checkpoint it claims to extend.
    """
    result, records = _replay_device(device, name)
    # Whatever is still open died with the process: roll it back.
    losers = result.replayer.discard_in_flight()
    wal = WriteAheadLog(device, start_lsn=result.last_lsn + 1)
    result.database.attach_wal(wal, next_txid=highest_txid(records) + 1)
    obs.inc("repro_ordbms_recovery_losers_discarded_total", len(losers))
    return replace(result, losers_discarded=losers)


def recover_follower(
    device: LogDevice, name: str = "replica"
) -> RecoveryResult:
    """Rebuild a follower's applied state from its shipped-log device.

    Like :func:`recover`, but for *replication*, not for writing: no
    write-ahead log is attached (a follower never allocates LSNs of its
    own — every record it applies arrives from the coordinator's
    shipped stream), and a transaction in flight at the crash stays
    *open* on the result's replayer (its commit may still be shipped);
    promotion to coordinator goes through :func:`recover` instead.

    Raises :class:`~repro.errors.CorruptLogError` for mid-log damage —
    the caller (the cluster membership layer) quarantines the replica
    rather than replaying past corruption.
    """
    return _replay_device(device, name)[0]


def _table(database: Database, record: WalRecord) -> Table:
    try:
        return database.catalog.table(record.table)
    except CatalogError:
        raise RecoveryError(
            f"LSN {record.lsn}: record names table {record.table!r} "
            f"which the checkpoint does not define"
        ) from None


def _row(table: Table, record: WalRecord, image: tuple | None) -> Any:
    """The stored row a logged image stands for, at the record's address
    (None for no image)."""
    if image is None:
        return None
    assert record.rowid is not None
    try:
        return table.schema.row_of_image(image, record.rowid)
    except (SchemaError, TypeMismatchError) as error:
        raise RecoveryError(
            f"LSN {record.lsn}: {record.kind} image for {record.table} "
            f"is not a row of that table: {error}"
        ) from error


def _redo(database: Database, record: WalRecord) -> None:
    """Apply one logged change through the database's statement; an
    INSERT must take the next slot."""
    table = _table(database, record)
    if record.kind == INSERT and record.rowid != table.next_rowids(1)[0]:
        raise RecoveryError(
            f"LSN {record.lsn}: INSERT at {record.rowid}, but the next slot "
            f"of {record.table} is {table.next_rowids(1)[0]} — slot "
            f"allocation diverged"
        )
    pair = _row(table, record, record.before), _row(table, record, record.after)
    try:
        database.change(record.table, [pair])
    except (RowIdError, ConstraintError) as error:
        raise RecoveryError(
            f"LSN {record.lsn}: cannot redo the logged change to "
            f"{record.table}: {error}"
        ) from error


def _roll_back(transaction: Transaction, lsn: int) -> None:
    """Roll a replayed transaction back; a change it cannot take back
    means the log and the recovered heap disagree."""
    try:
        transaction.rollback()
    except TransactionError as error:
        raise RecoveryError(
            f"LSN {lsn}: cannot roll back transaction {transaction.txid}: "
            f"{error}"
        ) from error
