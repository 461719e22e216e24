"""Crash recovery: rebuild a :class:`Database` from its log device.

ARIES-lite, sized to an engine whose every write is one statement: one
forward pass over the log redoes every ``CHANGE`` record *positionally*
— an insert must take exactly the ROWID the log recorded, which is what
lets ``PARENTROWID`` values stored inside rows, and the order rows are
laid down in, survive a crash.  A record is the whole of a write (a
document's DOC row and node rows together), so there is nothing to
resolve: no transaction, no loser, nothing to take back.

Replay is a client of the database it rebuilds: each record is one
:meth:`Database.change` statement, checked and counted in the
database's ``stats`` like the writer's own.  Two properties fall out of
the design and are what the crash harness asserts:

* **Atomicity** — recovered state equals the state before or after
  each write, never anything in between, because a write's one record
  either parsed whole or was a torn tail and is dropped.
* **Physical identity** — every replayed insert takes the logged
  address, which must be the table's tail, and every update/delete
  before-image must be what the recovered slot holds; any disagreement
  means the log and the checkpoint diverged, and recovery refuses with
  :class:`~repro.errors.RecoveryError` rather than guess.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import (
    CatalogError,
    ConstraintError,
    CorruptLogError,
    DatabaseError,
    RecoveryError,
    RowIdError,
    SchemaError,
    TypeMismatchError,
)
from repro.ordbms.database import Database
from repro.ordbms.snapshot import load_database
from repro.ordbms.wal import (
    CHANGE,
    LogDevice,
    WalRecord,
    WriteAheadLog,
    decode_checkpoint,
    parse_log,
)


class StreamReplayer:
    """Incremental ARIES-lite replay: one record at a time.

    The follower half of WAL shipping (``repro.cluster``) and the inner
    loop of :func:`recover` share this machinery.  Records at or below
    ``applied_lsn`` are skipped — the property that makes catch-up after
    a checkpoint install idempotent.  Every ``CHANGE`` record is one
    statement of the database's own (see the module docstring), so a
    follower's reader sees a shipped write whole or not at all.
    """

    def __init__(self, database: Database, applied_lsn: int = 0) -> None:
        self.database = database
        self.applied_lsn = applied_lsn

    def apply(self, record: WalRecord) -> bool:
        """Replay one record; returns False when it was already covered."""
        if record.lsn <= self.applied_lsn:
            # Already folded into the checkpoint (or already shipped):
            # skipping is what makes replay and catch-up idempotent.
            return False
        if record.kind == CHANGE:
            _redo(self.database, record)
        # CHECKPOINT markers carry no state; they only advance the LSN.
        self.applied_lsn = record.lsn
        return True


@dataclass(frozen=True)
class RecoveryResult:
    """What one recovery pass did, for logs, tests and post-mortems."""

    database: Database
    #: Positioned at the device's last durable record; a follower keeps
    #: it for further shipping.
    replayer: StreamReplayer
    checkpoint_lsn: int
    last_lsn: int
    #: Row changes replayed (the recovered database's ``stats``).
    records_replayed: int
    #: Human-readable reason the log's tail was truncated (torn write),
    #: or None when the log parsed cleanly to its end.
    torn_tail: str | None


def recover_follower(
    device: LogDevice, name: str = "replica"
) -> RecoveryResult:
    """Rebuild the state a device durably holds, for *replication*.

    Replays the log's well-formed records over the checkpoint's image
    (an empty database when the slot is empty) and attaches no
    write-ahead log: a follower never allocates LSNs of its own — every
    record it applies arrives from the coordinator's shipped stream.  A
    torn tail is physically dropped — appends after damaged bytes would
    read as mid-log corruption on the next open, and a follower must
    ack from its last *durable* record, never past it.

    Raises :class:`~repro.errors.CorruptLogError` for mid-log damage —
    the caller (the cluster membership layer) quarantines the replica
    rather than replaying past corruption.
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
    records.reverse()
    while records:  # a record's text goes as soon as its rows are in
        replayer.apply(records.pop())
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
        last_lsn=replayer.applied_lsn,
        records_replayed=replayed,
        torn_tail=torn_tail,
    )


def recover(device: LogDevice, name: str = "recovered") -> RecoveryResult:
    """Rebuild the database held by ``device`` and resume its WAL.

    :func:`recover_follower`, then a resumed
    :class:`~repro.ordbms.wal.WriteAheadLog` is attached so the returned
    database is immediately writable-and-durable again.

    Raises :class:`~repro.errors.CorruptLogError` for mid-log damage
    (never silently skipped) and :class:`~repro.errors.RecoveryError`
    when the log disagrees with the checkpoint it claims to extend.
    """
    result = recover_follower(device, name)
    result.database.attach_wal(WriteAheadLog(device, start_lsn=result.last_lsn + 1))
    return result


def _redo(database: Database, record: WalRecord) -> None:
    """Apply one logged statement through the database's own: its images
    are read by the columns of the tables it names, as the checkpoint
    restored them — a field its column's type cannot read was never
    written by this grammar (:class:`~repro.errors.CorruptLogError`) —
    and the statement's checks hold it to the heaps (an insert takes the
    tail, a pre-image is what its slot holds)."""
    try:
        groups = []
        for name, changes in record.groups:
            row = database.catalog.table(name).schema.unpack
            groups.append((name, [
                (
                    None if before is None else row(before, rowid),
                    None if after is None else row(after, rowid),
                )
                for rowid, before, after in changes
            ]))
    except CatalogError:
        raise RecoveryError(
            f"LSN {record.lsn}: record names table {name!r} "
            f"which the checkpoint does not define"
        ) from None
    except (SchemaError, TypeMismatchError) as error:  # an image its table refuses
        raise _cannot_redo(record, error) from error
    except DatabaseError as error:  # a value its column cannot read
        raise CorruptLogError(f"LSN {record.lsn}: malformed WAL record: {error}") from error
    try:
        database.change(groups)
    except (RowIdError, ConstraintError, SchemaError, TypeMismatchError) as error:
        raise _cannot_redo(record, error) from error


def _cannot_redo(record: WalRecord, error: Exception) -> RecoveryError:
    return RecoveryError(
        f"LSN {record.lsn}: cannot redo the logged change to "
        f"{', '.join(name for name, _ in record.groups)}: {error}"
    )
