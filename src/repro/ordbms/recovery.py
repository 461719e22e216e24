"""Crash recovery: rebuild a :class:`Database` from its log device.

ARIES-lite, sized to the single-writer engine: one forward pass over the
log redoes every change *positionally* — an insert must take exactly the
ROWID the log recorded, which is what lets ``PARENTROWID`` /
``SIBLINGID`` values stored inside rows survive a crash — and resolves
transactions as their COMMIT / ROLLBACK records stream past.
Whatever is still unresolved at the end of the log died with the process
and is undone from its logged before-images (the *losers*).

Redo and undo go through the one statement every writer uses,
:meth:`~repro.ordbms.table.Table.change`: it checks that the slot holds
the change's before-image, moves the heap slot and the indexes together
inside the seqlock, keeps the pre-image for pinned readers and moves the
commit LSN.  Two properties fall out of the design and are what the
crash harness asserts:

* **Atomicity** — recovered state equals the pre- or post-transaction
  state, never anything in between, because a transaction's changes
  are kept only once its COMMIT record is durable.
* **Physical identity** — every replayed insert takes the logged
  address, and every update/delete before-image must be what the
  recovered slot holds; any disagreement means the log and the
  checkpoint diverged, and recovery refuses with
  :class:`~repro.errors.RecoveryError` rather than guess.

Rolled-back transactions are replayed *then* undone at their ROLLBACK
record's position in the LSN stream — not skipped — so that slot
allocation during replay matches slot allocation during the original
run exactly (a skipped insert would shift every later row's address).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.errors import (
    CatalogError,
    ConstraintError,
    RecoveryError,
    RowIdError,
    SchemaError,
    TypeMismatchError,
)
from repro.ordbms.database import Database
from repro.ordbms.snapshot import load_database
from repro.ordbms.table import Table
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


#: One replayed change: ``(lsn, table, before, after)``.
Change = tuple[int, Table, Any, Any]


class StreamReplayer:
    """Incremental ARIES-lite replay: one record at a time.

    The follower half of WAL shipping (``repro.cluster``) and the inner
    loop of :func:`recover` share this machinery.  Records at or below
    ``applied_lsn`` are skipped — the property that makes catch-up after
    a checkpoint install idempotent.  Every logged change is redone, and
    undone, through the table's own statement
    (:meth:`~repro.ordbms.table.Table.change`), which verifies the slot
    and moves the commit LSN like a live write does.

    A transaction stays *open* across :meth:`apply` calls until its
    COMMIT / ROLLBACK streams past or a record outside it (a BEGIN, an
    autocommit change, a CHECKPOINT) shows the single writer took it
    back; :meth:`discard_in_flight` undoes whatever is still open (the
    loser-discard step, used at end-of-log and at failover promotion).
    While one is open the database's transaction pin holds reads at the
    LSN before its BEGIN, so a follower's reader never sees half a
    shipped transaction.
    """

    def __init__(self, database: Database, applied_lsn: int = 0) -> None:
        self.database = database
        self.applied_lsn = applied_lsn
        self._open: dict[int, list[Change]] = {}
        self.records_applied = 0
        self.transactions_committed = 0
        self.transactions_rolled_back = 0

    @property
    def in_flight(self) -> tuple[int, ...]:
        """Transaction ids begun but not yet resolved, ascending."""
        return tuple(sorted(self._open))

    def apply(self, record: WalRecord) -> bool:
        """Replay one record; returns False when it was already covered."""
        if record.lsn <= self.applied_lsn:
            # Already folded into the checkpoint (or already shipped):
            # skipping is what makes replay and catch-up idempotent.
            return False
        if record.txid not in self._open and (
            record.kind == BEGIN or record.txid == AUTOCOMMIT_TXID
        ):
            # One writer, one transaction at a time: a record outside the
            # open one means the writer took it back with no terminal
            # record landing (both refused, or a restart).  So does replay.
            self.transactions_rolled_back += len(self.discard_in_flight())
        if record.kind == BEGIN:
            if self._open:  # this very txid: any other was just discarded
                raise RecoveryError(
                    f"LSN {record.lsn}: BEGIN for transaction "
                    f"{record.txid} which is already open"
                )
            self.database.mvcc.transaction_opened()
            self._open[record.txid] = []
        elif record.kind in (INSERT, UPDATE, DELETE):
            autocommit = record.txid == AUTOCOMMIT_TXID
            changes = [] if autocommit else self._changes(record)
            changes.append(_redo(self.database, record))
            self.records_applied += 1
        elif record.kind in (COMMIT, ROLLBACK):
            changes = self._changes(record)
            del self._open[record.txid]
            if record.kind == COMMIT:
                self.transactions_committed += 1
            else:
                _take_back(changes)
                self.transactions_rolled_back += 1
            self.database.release_transaction_pin()
        # CHECKPOINT markers carry no state; they only advance the LSN.
        self.applied_lsn = record.lsn
        return True

    def discard_in_flight(self) -> tuple[int, ...]:
        """Undo every open transaction (newest change first).

        Returns the discarded transaction ids — the *losers* at a crash
        or failover: their changes were durable but their commit never
        was, so recovered state must not contain them.
        """
        losers = tuple(self._open)
        if losers:  # one at most: a BEGIN discards the one before it
            _take_back(self._open.popitem()[1])
            self.database.release_transaction_pin()
        return losers

    def _changes(self, record: WalRecord) -> list[Change]:
        """The changes so far of ``record``'s open transaction."""
        try:
            return self._open[record.txid]
        except KeyError:
            raise RecoveryError(
                f"LSN {record.lsn}: {record.kind} for transaction "
                f"{record.txid} which has no BEGIN record"
            ) from None


@dataclass(frozen=True)
class RecoveryResult:
    """What one recovery pass did, for logs, tests and post-mortems."""

    database: Database
    checkpoint_lsn: int
    last_lsn: int
    records_replayed: int
    transactions_committed: int
    transactions_rolled_back: int
    #: Transaction ids that were open when the process died; their
    #: mutations were undone from logged before-images.
    losers_discarded: tuple[int, ...]
    #: Human-readable reason the log's tail was truncated (torn write),
    #: or None when the log parsed cleanly to its end.
    torn_tail: str | None


def _replay_device(
    device: LogDevice, name: str
) -> tuple[StreamReplayer, int | None, list[WalRecord], str | None]:
    """Replay what a device durably holds: both recoveries start so.

    Returns ``(replayer, checkpoint_lsn, records, torn_tail)``: the
    log's well-formed records replayed over the checkpoint's image (an
    empty database and ``None`` when the slot is empty).  A torn tail is
    physically dropped — appends after damaged bytes would read as
    mid-log corruption on the next open, and a follower must ack from
    its last *durable* record, never past it.
    """
    checkpoint_text = device.load_checkpoint()
    if checkpoint_text is None:
        database, checkpoint_lsn = Database(name), None
    else:
        checkpoint_lsn, snapshot_text = decode_checkpoint(checkpoint_text)
        database = load_database(snapshot_text, name)
    records, torn_tail = parse_log(device.read_log())
    if torn_tail is not None:
        device.truncate_log()
        for record in records:
            device.append(record.encode())
        device.sync()
    replayer = StreamReplayer(database, applied_lsn=checkpoint_lsn or 0)
    for record in records:
        replayer.apply(record)
    obs.inc("repro_ordbms_recovery_runs_total")
    obs.inc(
        "repro_ordbms_recovery_records_replayed_total",
        replayer.records_applied,
    )
    if torn_tail is not None:
        obs.inc("repro_ordbms_recovery_torn_tails_total")
    return replayer, checkpoint_lsn, records, torn_tail


def recover(device: LogDevice, name: str = "recovered") -> RecoveryResult:
    """Rebuild the database held by ``device`` and resume its WAL.

    Loads the checkpoint (if any), replays log records with LSNs above
    the checkpoint's, undoes losers, trims any torn tail off the device,
    and attaches a resumed :class:`~repro.ordbms.wal.WriteAheadLog` so
    the returned database is immediately writable-and-durable again.

    Raises :class:`~repro.errors.CorruptLogError` for mid-log damage
    (never silently skipped) and :class:`~repro.errors.RecoveryError`
    when the log disagrees with the checkpoint it claims to extend.
    """
    replayer, checkpoint_lsn, records, torn_tail = _replay_device(device, name)
    database, covered = replayer.database, checkpoint_lsn or 0
    # Whatever is still open died with the process: undo it newest-first.
    losers = replayer.discard_in_flight()
    last_lsn = max(covered, records[-1].lsn if records else 0)
    wal = WriteAheadLog(device, start_lsn=last_lsn + 1)
    database.attach_wal(wal, next_txid=highest_txid(records) + 1)
    obs.inc("repro_ordbms_recovery_losers_discarded_total", len(losers))
    if checkpoint_lsn is not None:
        obs.inc("repro_ordbms_recovery_checkpoint_loads_total")
    return RecoveryResult(
        database=database,
        checkpoint_lsn=covered,
        last_lsn=last_lsn,
        records_replayed=replayer.records_applied,
        transactions_committed=replayer.transactions_committed,
        transactions_rolled_back=replayer.transactions_rolled_back,
        losers_discarded=losers,
        torn_tail=torn_tail,
    )


@dataclass(frozen=True)
class FollowerRecovery:
    """A device reopened for *replication*, not for writing.

    Unlike :func:`recover`, no write-ahead log is attached: a follower
    never allocates LSNs of its own — every record it will ever apply
    arrives from the coordinator's shipped stream.  The returned
    :class:`StreamReplayer` is positioned at the device's last durable
    record, with any transaction that was in flight at the crash left
    *open* (its commit may still be shipped); promotion to coordinator
    goes through :func:`recover` instead, which discards those losers.
    """

    database: Database
    replayer: StreamReplayer
    checkpoint_lsn: int
    #: Reason the tail was trimmed (the follower died mid-append), or
    #: None when the shipped log parsed cleanly to its end.
    torn_tail: str | None


def recover_follower(
    device: LogDevice, name: str = "replica"
) -> FollowerRecovery:
    """Rebuild a follower's applied state from its shipped-log device.

    Loads the checkpoint (if any), trims a torn tail physically (a
    follower killed mid-append must ack from its last *durable* record,
    never past it), and replays the surviving records through a
    :class:`StreamReplayer` that stays attached for further shipping.

    Raises :class:`~repro.errors.CorruptLogError` for mid-log damage —
    the caller (the cluster membership layer) quarantines the replica
    rather than replaying past corruption.
    """
    replayer, checkpoint_lsn, _, torn_tail = _replay_device(device, name)
    return FollowerRecovery(
        database=replayer.database,
        replayer=replayer,
        checkpoint_lsn=checkpoint_lsn or 0,
        torn_tail=torn_tail,
    )


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


def _redo(database: Database, record: WalRecord) -> Change:
    """Apply one logged change; an INSERT must take the next slot."""
    table = _table(database, record)
    if record.kind == INSERT and record.rowid != table.next_rowids(1)[0]:
        raise RecoveryError(
            f"LSN {record.lsn}: INSERT at {record.rowid}, but the next slot "
            f"of {record.table} is {table.next_rowids(1)[0]} — slot "
            f"allocation diverged"
        )
    change = (
        record.lsn, table,
        _row(table, record, record.before), _row(table, record, record.after),
    )
    _apply(change, "redo")
    return change


def _take_back(changes: list[Change]) -> None:
    """Take replayed changes back, newest first."""
    for lsn, table, before, after in reversed(changes):
        _apply((lsn, table, after, before), "undo")


def _apply(change: Change, verb: str) -> None:
    """Run one change through its table's statement; a refusal means the
    log and the recovered heap disagree."""
    lsn, table, before, after = change
    try:
        table.change([(before, after)])
    except (RowIdError, ConstraintError) as error:
        raise RecoveryError(
            f"LSN {lsn}: cannot {verb} the logged change to "
            f"{table.schema.name}: {error}"
        ) from error
