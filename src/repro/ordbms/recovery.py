"""Crash recovery: rebuild a :class:`Database` from its log device.

ARIES-lite, sized to the single-writer engine: one forward pass over the
log replays every mutation *physically* — inserts must land at exactly
the ROWID the log recorded, which is what lets ``PARENTROWID`` /
``SIBLINGID`` values stored inside rows survive a crash — and resolves
transactions as their COMMIT / ROLLBACK records stream past.
Whatever is still unresolved at the end of the log died with the process
and is undone from its logged before-images (the *losers*).

Two properties fall out of the design and are what the crash harness
asserts:

* **Atomicity** — recovered state equals the pre- or post-transaction
  state, never anything in between, because a transaction's mutations
  are kept only once its COMMIT record is durable.
* **Physical identity** — every replayed insert is verified to land at
  the logged address, and every update/delete pre-image is compared
  against the recovered heap; any disagreement means the log and the
  checkpoint diverged, and recovery refuses with
  :class:`~repro.errors.RecoveryError` rather than guess.

Rolled-back transactions are replayed *then* undone at their ROLLBACK
record's position in the LSN stream — not skipped — so that slot
allocation during replay matches slot allocation during the original
run exactly (a skipped insert would shift every later row's address).

Derived state (B+tree and text indexes) is rebuilt incrementally as
rows are applied; checkpoints load through :mod:`repro.ordbms.snapshot`,
which rebuilds indexes the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import CatalogError, RecoveryError, RowIdError, SchemaError
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


class StreamReplayer:
    """Incremental ARIES-lite replay: one record at a time.

    The follower half of WAL shipping (``repro.cluster``) and the inner
    loop of :func:`recover` share this machinery.  Records at or below
    ``applied_lsn`` are skipped — the property that makes catch-up after
    a checkpoint install idempotent — and every applied mutation goes
    through the same physical verification as crash recovery.

    Transactions stay *open* across :meth:`apply` calls until their
    COMMIT / ROLLBACK record streams past; :meth:`discard_in_flight`
    undoes whatever is still open (the loser-discard step, used at
    end-of-log and at failover promotion).

    Physical replay bypasses the table statements, so the replayer moves
    the database's commit LSN itself — once per resolved transaction,
    loser discard and autocommit mutation — and a result cached over a
    follower's store is stamped like one over the coordinator's.
    """

    def __init__(self, database: Database, applied_lsn: int = 0) -> None:
        self.database = database
        self.applied_lsn = applied_lsn
        self._open: dict[int, list[WalRecord]] = {}
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
        if record.kind == BEGIN:
            if record.txid in self._open:
                raise RecoveryError(
                    f"LSN {record.lsn}: BEGIN for transaction "
                    f"{record.txid} which is already open"
                )
            self._open[record.txid] = []
        elif record.kind in (INSERT, UPDATE, DELETE):
            mutations = _mutations_of(self._open, record)
            _apply(self.database, record)
            if mutations is not None:
                mutations.append(record)
            else:
                self._publish()
            self.records_applied += 1
        elif record.kind == COMMIT:
            _close(self._open, record)
            self._publish()
            self.transactions_committed += 1
        elif record.kind == ROLLBACK:
            for mutation in reversed(_close(self._open, record)):
                _undo(self.database, mutation)
            self._publish()
            self.transactions_rolled_back += 1
        # CHECKPOINT markers carry no state; they only advance the LSN.
        self.applied_lsn = record.lsn
        return True

    def discard_in_flight(self) -> tuple[int, ...]:
        """Undo every open transaction (newest mutation first).

        Returns the discarded transaction ids — the *losers* at a crash
        or failover: their mutations were durable but their commit never
        was, so recovered state must not contain them.
        """
        losers = tuple(sorted(self._open))
        leftovers = [
            record
            for mutations in self._open.values()
            for record in mutations
        ]
        leftovers.sort(key=lambda record: record.lsn)
        for record in reversed(leftovers):
            _undo(self.database, record)
        self._open.clear()
        if losers:
            self._publish()
        return losers

    def _publish(self) -> None:
        """Rows changed for every reader: move the commit LSN."""
        mvcc = self.database.mvcc
        mvcc.commit_statement(mvcc.lsn + 1)


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


def _open_device(
    device: LogDevice, name: str
) -> tuple[Database, int | None, list[WalRecord], str | None]:
    """What a device durably holds, as both recoveries start from it.

    Returns ``(database, checkpoint_lsn, records, torn_tail)``: the
    checkpoint's image (an empty database and ``None`` when the slot is
    empty) and the log's well-formed records, still to be replayed.  A
    torn tail is physically dropped — appends after damaged bytes would
    read as mid-log corruption on the next open, and a follower must
    ack from its last *durable* record, never past it.
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
    return database, checkpoint_lsn, records, torn_tail


def _count_run(replayer: StreamReplayer, torn_tail: str | None) -> None:
    """One finished recovery pass, writer's or follower's."""
    obs.inc("repro_ordbms_recovery_runs_total")
    obs.inc(
        "repro_ordbms_recovery_records_replayed_total",
        replayer.records_applied,
    )
    if torn_tail is not None:
        obs.inc("repro_ordbms_recovery_torn_tails_total")


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
    database, checkpoint_lsn, records, torn_tail = _open_device(device, name)
    covered = checkpoint_lsn or 0
    replayer = StreamReplayer(database, applied_lsn=covered)
    for record in records:
        replayer.apply(record)
    # Whatever is still open died with the process: undo newest-first
    # across all losers (single-writer means at most one in practice).
    losers = replayer.discard_in_flight()
    last_lsn = max(covered, records[-1].lsn if records else 0)
    wal = WriteAheadLog(device, start_lsn=last_lsn + 1)
    database.attach_wal(wal, next_txid=highest_txid(records) + 1)
    _count_run(replayer, torn_tail)
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
    database, checkpoint_lsn, records, torn_tail = _open_device(device, name)
    covered = checkpoint_lsn or 0
    replayer = StreamReplayer(database, applied_lsn=covered)
    for record in records:
        replayer.apply(record)
    _count_run(replayer, torn_tail)
    return FollowerRecovery(
        database=database,
        replayer=replayer,
        checkpoint_lsn=covered,
        torn_tail=torn_tail,
    )


def _mutations_of(
    open_transactions: dict[int, list[WalRecord]], record: WalRecord
) -> list[WalRecord] | None:
    """The open mutation list ``record`` belongs to (None = autocommit)."""
    if record.txid == AUTOCOMMIT_TXID:
        return None
    try:
        return open_transactions[record.txid]
    except KeyError:
        raise RecoveryError(
            f"LSN {record.lsn}: {record.kind} for transaction "
            f"{record.txid} which has no BEGIN record"
        ) from None


def _close(
    open_transactions: dict[int, list[WalRecord]], record: WalRecord
) -> list[WalRecord]:
    try:
        return open_transactions.pop(record.txid)
    except KeyError:
        raise RecoveryError(
            f"LSN {record.lsn}: {record.kind} for transaction "
            f"{record.txid} which has no BEGIN record"
        ) from None


def _table(database: Database, record: WalRecord) -> Table:
    try:
        return database.catalog.table(record.table)
    except CatalogError:
        raise RecoveryError(
            f"LSN {record.lsn}: record names table {record.table!r} "
            f"which the checkpoint does not define"
        ) from None


def _stored(table: Table, record: WalRecord, image: tuple | None):
    """The stored row a logged image stands for, at the record's address."""
    assert record.rowid is not None and image is not None
    try:
        return table.schema.row_of_image(image, record.rowid)
    except SchemaError as error:
        raise RecoveryError(
            f"LSN {record.lsn}: {record.kind} image for {record.table} "
            f"is not a row of that table: {error}"
        ) from error


def _apply(database: Database, record: WalRecord) -> None:
    """Redo one mutation physically, verifying addresses and pre-images."""
    table = _table(database, record)
    heap = table._heap  # noqa: SLF001 - physical replay, like snapshot.py
    assert record.rowid is not None
    if record.kind == INSERT:
        after = _stored(table, record, record.after)
        landed = heap.insert(after)
        if landed != record.rowid:
            raise RecoveryError(
                f"LSN {record.lsn}: replayed insert landed at {landed}, "
                f"log recorded {record.rowid} — slot allocation diverged"
            )
        table._index_row(after)  # noqa: SLF001
        return
    current = _fetch(heap, table, record)
    if current[:-1] != record.before:
        raise RecoveryError(
            f"LSN {record.lsn}: {record.kind} pre-image disagrees with "
            f"recovered row at {record.rowid} in {record.table}"
        )
    if record.kind == UPDATE:
        after = _stored(table, record, record.after)
        table._unindex_row(current)  # noqa: SLF001
        heap.update(record.rowid, after)
        table._index_row(after)  # noqa: SLF001
    else:  # DELETE
        heap.delete(record.rowid)
        table._unindex_row(current)  # noqa: SLF001


def _undo(database: Database, record: WalRecord) -> None:
    """Reverse one already-applied mutation from its logged images."""
    table = _table(database, record)
    heap = table._heap  # noqa: SLF001
    assert record.rowid is not None
    try:
        if record.kind == INSERT:
            table._unindex_row(heap.delete(record.rowid))  # noqa: SLF001
        elif record.kind == UPDATE:
            before = _stored(table, record, record.before)
            table._unindex_row(heap.fetch(record.rowid))  # noqa: SLF001
            heap.update(record.rowid, before)
            table._index_row(before)  # noqa: SLF001
        else:  # DELETE
            before = _stored(table, record, record.before)
            heap.restore(record.rowid, before)
            table._index_row(before)  # noqa: SLF001
    except RowIdError as error:
        raise RecoveryError(
            f"LSN {record.lsn}: cannot undo {record.kind} at "
            f"{record.rowid} in {record.table}: {error}"
        ) from error


def _fetch(heap, table: Table, record: WalRecord):
    try:
        return heap.fetch(record.rowid)
    except RowIdError as error:
        raise RecoveryError(
            f"LSN {record.lsn}: {record.kind} addresses {record.rowid} "
            f"in {record.table} but the recovered heap has no such row"
        ) from error
