"""The write-ahead log: record-oriented durability for the ORDBMS.

"Nothing more than an intelligent storage component" must survive a
crash.  This module gives the in-memory substrate its durability story:

* a record grammar — ``BEGIN`` / ``INSERT`` / ``UPDATE`` / ``DELETE`` /
  ``COMMIT`` / ``ROLLBACK`` / ``CHECKPOINT`` — with monotonically
  increasing LSNs and a per-record CRC32 over the body;
* torn-tail detection: a damaged record *at the end* of the log is a
  torn write (the crash interrupted the append) and is silently
  truncated, while a damaged record *followed by* well-formed records is
  in-place corruption and raises :class:`~repro.errors.CorruptLogError`;
* a pluggable :class:`LogDevice` (in-memory and file-backed) that
  ``repro.resilience.FaultPlan.wrap_log_device`` can proxy to inject
  torn, partial and silently-corrupted writes deterministically;
* the checkpoint protocol: a checkpoint is a full
  :mod:`repro.ordbms.snapshot` dump stamped with the LSN it covers plus
  a CRC, stored on the device's checkpoint slot, after which the log is
  truncated.  Recovery loads the checkpoint and replays only records
  with a higher LSN, so a crash *between* checkpoint save and log
  truncation replays idempotently.

Row images travel as single whitespace-free tokens via
:func:`repro.ordbms.valuecodec.pack_row`, so every record body is a flat
space-separated line — trivially CRC-able and human-debuggable.
"""

from __future__ import annotations

import functools
import os
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro import obs
from repro.errors import CorruptLogError, DatabaseError, WalError
from repro.ordbms.rowid import RowId
from repro.ordbms.valuecodec import pack_row, unpack_row

#: Record kinds, in the vocabulary recovery understands.
BEGIN = "BEGIN"
INSERT = "INSERT"
UPDATE = "UPDATE"
DELETE = "DELETE"
COMMIT = "COMMIT"
ROLLBACK = "ROLLBACK"
CHECKPOINT = "CHECKPOINT"

#: Header of the checkpoint slot: ``%NETMARK-CKPT <lsn> <crc>``.
CHECKPOINT_MAGIC = "%NETMARK-CKPT"

#: Transaction id carried by auto-committed (non-transactional) records;
#: recovery treats them as committed the moment they are durable.
AUTOCOMMIT_TXID = 0


def _crc(body: str) -> str:
    return f"{zlib.crc32(body.encode('utf-8')):08x}"


@dataclass(frozen=True)
class WalRecord:
    """One parsed log record.

    ``before``/``after`` are full row images (column-ordered tuples).
    Redo uses ``after``; undo of an unresolved transaction uses
    ``before`` — the reason UPDATE and DELETE carry their pre-image even
    though replay is redo-first.
    """

    lsn: int
    kind: str
    txid: int = AUTOCOMMIT_TXID
    table: str = ""
    rowid: RowId | None = None
    before: tuple[Any, ...] | None = None
    after: tuple[Any, ...] | None = None

    def encode(self) -> str:
        """Serialise to one log line (body, ``|``, CRC, newline)."""
        if self.kind in (INSERT, UPDATE, DELETE):
            assert self.rowid is not None
            return _encode_change(
                self.lsn, self.kind, self.txid, self.table, self.rowid,
                self.before, self.after,
            )
        if self.kind not in (BEGIN, COMMIT, ROLLBACK, CHECKPOINT):
            raise WalError(f"unknown WAL record kind {self.kind!r}")
        body = f"{self.lsn} {self.kind}"
        return _line(body if self.kind == CHECKPOINT else f"{body} {self.txid}")


def _encode_change(
    lsn: int, kind: str, txid: int, table: str, rowid: RowId,
    before: tuple[Any, ...] | None, after: tuple[Any, ...] | None,
) -> str:
    """The one encoder of a change record, its images the rows' columns:
    a pre-image unless an INSERT, a post-image unless a DELETE."""
    body = f"{lsn} {kind} {txid} {table} {rowid.encode()}"
    if before is not None:
        body += " " + pack_row(before)
    if after is not None:
        body += " " + pack_row(after)
    return _line(body)


def _line(body: str) -> str:
    return f"{body}|{_crc(body)}\n"


def _parse_body(body: str) -> WalRecord:
    """Parse a CRC-verified body; raises WalError on structure errors."""
    fields = body.split(" ")
    try:
        lsn = int(fields[0])
        kind = fields[1]
        if kind == CHECKPOINT:
            _expect(len(fields) == 2, body)
            return WalRecord(lsn, kind)
        txid = int(fields[2])
        if kind in (BEGIN, COMMIT, ROLLBACK):
            _expect(len(fields) == 3, body)
            return WalRecord(lsn, kind, txid)
        if kind in (INSERT, UPDATE, DELETE):
            _expect(len(fields) == (7 if kind == UPDATE else 6), body)
            images = [unpack_row(field) for field in fields[5:]]
            return WalRecord(
                lsn, kind, txid, table=fields[3], rowid=RowId.decode(fields[4]),
                before=None if kind == INSERT else images[0],
                after=None if kind == DELETE else images[-1],
            )
    except (ValueError, IndexError, DatabaseError) as error:  # a bad field or value
        raise WalError(f"malformed WAL record body {body!r}") from error
    raise WalError(f"unknown WAL record kind in {body!r}")


def _expect(condition: bool, body: str) -> None:
    if not condition:
        raise WalError(f"malformed WAL record body {body!r}")


def parse_log(text: str) -> tuple[list[WalRecord], str | None]:
    """Parse raw log text into ``(records, torn_tail_reason)``.

    A bad line (failed CRC, bad structure, missing trailing newline) at
    the *end* of the log is a torn write: parsing stops there and the
    reason is returned.  A bad line with any well-formed record after it
    is corruption, not a torn tail, and raises
    :class:`~repro.errors.CorruptLogError` — replaying past in-place
    damage would apply garbage.
    """
    if not text:
        return [], None
    complete = text.endswith("\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    records: list[WalRecord] = []
    previous_lsn = 0
    for index, line in enumerate(lines):
        if not complete and index == len(lines) - 1:
            record = "record has no trailing newline (interrupted append)"
        else:
            record = _read_line(line)
        if isinstance(record, WalRecord) and record.lsn <= previous_lsn:
            record = f"LSN {record.lsn} does not advance past {previous_lsn}"
        if isinstance(record, str):
            # Any well-formed record after a bad line proves mid-log damage.
            if any(
                isinstance(later := _read_line(after), WalRecord)
                and later.lsn > previous_lsn
                for after in lines[index + 1:]
            ):
                raise CorruptLogError(
                    f"WAL record {index + 1} is damaged mid-log "
                    f"({record}); refusing to replay past corruption"
                )
            return records, f"record {index + 1}: {record}"
        records.append(record)
        previous_lsn = record.lsn
    return records, None


def _read_line(line: str) -> WalRecord | str:
    """The record on one log line, or why the line holds none."""
    body, sep, crc = line.rpartition("|")
    if not sep:
        return "record has no CRC field"
    if _crc(body) != crc:
        return "record failed its CRC check"
    try:
        return _parse_body(body)
    except WalError as error:
        return str(error)


# ---------------------------------------------------------------------------
# Log devices
# ---------------------------------------------------------------------------


class LogDevice:
    """Durable home of one database: an append-only log + a checkpoint slot.

    Deliberately tiny and duck-typed — the resilience layer wraps it
    with a fault proxy that tears and corrupts appends, and the crash
    harness counts appends to enumerate crash points.
    """

    def append(self, data: str) -> None:
        raise NotImplementedError

    def sync(self) -> None:
        """Make every append so far durable (fsync analogue)."""
        raise NotImplementedError

    def read_log(self) -> str:
        raise NotImplementedError

    def truncate_log(self) -> None:
        raise NotImplementedError

    def save_checkpoint(self, text: str) -> None:
        """Atomically replace the checkpoint slot."""
        raise NotImplementedError

    def load_checkpoint(self) -> str | None:
        raise NotImplementedError


class MemoryLogDevice(LogDevice):
    """In-process device: "durable" for the lifetime of the object.

    The crash harness's survivor: the live ``Database`` object is
    abandoned at the crash point and a new one is recovered from this
    device, exactly as a process restart would reread a disk.
    """

    def __init__(self) -> None:
        self._chunks: list[str] = []
        self._checkpoint: str | None = None

    def append(self, data: str) -> None:
        self._chunks.append(data)

    def sync(self) -> None:  # appends are immediately "durable"
        return

    def read_log(self) -> str:
        return "".join(self._chunks)

    def truncate_log(self) -> None:
        self._chunks.clear()

    def save_checkpoint(self, text: str) -> None:
        self._checkpoint = text

    def load_checkpoint(self) -> str | None:
        return self._checkpoint


def _typed_io(method: Callable[..., Any]) -> Callable[..., Any]:
    """A file device's call whose :class:`OSError` (a full disk, a failed
    fsync or rename) surfaces as :class:`~repro.errors.WalError`, the
    refusal every writer already handles."""

    @functools.wraps(method)
    def typed(self: "FileLogDevice", *args: Any) -> Any:
        try:
            return method(self, *args)
        except OSError as error:
            raise WalError(f"log device {self.log_path}: {error}") from error

    return typed


class FileLogDevice(LogDevice):
    """File-backed device: ``<base>.wal`` + ``<base>.ckpt``.

    Appends go through one buffered handle with an explicit flush per
    record; :meth:`sync` adds an fsync (commit durability).  Checkpoints
    write to a temp file and ``os.replace`` into place, so a crash
    during checkpointing leaves the previous checkpoint intact.  Every
    call answers an operating-system failure with
    :class:`~repro.errors.WalError`.
    """

    def __init__(self, base_path: str) -> None:
        self.log_path = base_path + ".wal"
        self.checkpoint_path = base_path + ".ckpt"
        self._handle = None

    def _log_handle(self):
        if self._handle is None:
            self._handle = open(  # noqa: SIM115 - long-lived append handle
                self.log_path, "a", encoding="utf-8", newline=""
            )
        return self._handle

    @_typed_io
    def append(self, data: str) -> None:
        handle = self._log_handle()
        handle.write(data)
        handle.flush()

    @_typed_io
    def sync(self) -> None:
        handle = self._log_handle()
        handle.flush()
        os.fsync(handle.fileno())

    @_typed_io
    def read_log(self) -> str:
        if self._handle is not None:
            self._handle.flush()
        if not os.path.exists(self.log_path):
            return ""
        with open(self.log_path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()

    @_typed_io
    def truncate_log(self) -> None:
        self.close()
        with open(self.log_path, "w", encoding="utf-8"):
            pass

    @_typed_io
    def save_checkpoint(self, text: str) -> None:
        temp_path = self.checkpoint_path + ".tmp"
        with open(temp_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp_path, self.checkpoint_path)

    @_typed_io
    def load_checkpoint(self) -> str | None:
        if not os.path.exists(self.checkpoint_path):
            return None
        with open(
            self.checkpoint_path, "r", encoding="utf-8", newline=""
        ) as fh:
            return fh.read()

    @_typed_io
    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ---------------------------------------------------------------------------
# The log facade
# ---------------------------------------------------------------------------


class WriteAheadLog:
    """Append-side facade the :class:`~repro.ordbms.database.Database` calls.

    Owns the LSN allocator.  Each ``log_*`` method appends one record
    (:meth:`log_changes` one per change); :meth:`log_commit` also syncs
    the device, so a transaction is durable the instant ``commit()``
    returns.
    """

    def __init__(self, device: LogDevice, start_lsn: int = 1) -> None:
        self.device = device
        if start_lsn < 1:
            raise WalError(f"LSNs start at 1, not {start_lsn}")
        self._next_lsn = start_lsn
        self.records_written = 0

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def last_lsn(self) -> int:
        """Highest LSN allocated so far (0 when nothing was written).

        The coordinator's replication high-water mark: a follower whose
        acknowledged LSN equals this value is fully in sync.
        """
        return self._next_lsn - 1

    def _append(self, kind: str, txid: int = AUTOCOMMIT_TXID) -> int:
        lsn = self._next_lsn
        self.device.append(WalRecord(lsn, kind, txid).encode())
        self.records_written += 1
        self._next_lsn = lsn + 1
        obs.inc("repro_ordbms_wal_appends_total", kind=kind.lower())
        return lsn

    # -- record writers ------------------------------------------------------

    def log_begin(self, txid: int) -> int:
        return self._append(BEGIN, txid)

    def log_change(self, txid: int, table: str, before: Any, after: Any) -> None:
        """Log one row change; see :meth:`log_changes`."""
        self.log_changes(txid, table, [(before, after)])

    def log_changes(
        self, txid: int, table: str, pairs: Iterable[tuple[Any, Any]]
    ) -> None:
        """Log a statement's row changes, one record and one append each:
        INSERT when ``before`` is None, DELETE when ``after`` is, else
        UPDATE.  An append that raises stops there (``next_lsn`` says how
        far it got)."""
        kinds: dict[str, int] = {}
        try:
            for before, after in pairs:
                kind = INSERT if before is None else DELETE if after is None else UPDATE
                self.device.append(_encode_change(
                    self._next_lsn, kind, txid, table,
                    (before if after is None else after).rowid,
                    None if before is None else before[:-1],
                    None if after is None else after[:-1],
                ))
                self._next_lsn += 1
                kinds[kind] = kinds.get(kind, 0) + 1
        finally:
            for kind, count in kinds.items():
                self.records_written += count
                obs.inc("repro_ordbms_wal_appends_total", count, kind=kind.lower())

    def log_commit(self, txid: int) -> int:
        lsn = self._append(COMMIT, txid)
        self.device.sync()
        obs.inc("repro_ordbms_wal_syncs_total", reason="commit")
        return lsn

    def log_rollback(self, txid: int) -> int:
        return self._append(ROLLBACK, txid)

    # -- checkpointing -------------------------------------------------------

    def write_checkpoint(self, snapshot_text: str) -> int:
        """Install ``snapshot_text`` as the new recovery baseline.

        Protocol: stamp the snapshot with the highest LSN it covers and
        a CRC, atomically replace the checkpoint slot, truncate the log,
        then append a ``CHECKPOINT`` marker as the fresh log's first
        record.  A crash between the save and the truncation is safe:
        recovery skips log records at or below the checkpoint LSN.
        """
        covered_lsn = self.last_lsn
        self.device.save_checkpoint(encode_checkpoint(covered_lsn, snapshot_text))
        self.device.truncate_log()
        self._append(CHECKPOINT)
        self.device.sync()
        obs.inc("repro_ordbms_wal_syncs_total", reason="checkpoint")
        obs.inc("repro_ordbms_wal_checkpoints_total")
        return covered_lsn

    # -- read side -----------------------------------------------------------

    def records(self) -> tuple[list[WalRecord], str | None]:
        """Parse the device's current log (see :func:`parse_log`)."""
        return parse_log(self.device.read_log())


def encode_checkpoint(lsn: int, snapshot_text: str) -> str:
    """Stamp a snapshot with the LSN it covers plus an integrity CRC."""
    return f"{CHECKPOINT_MAGIC} {lsn} {_crc(snapshot_text)}\n{snapshot_text}"


def decode_checkpoint(text: str) -> tuple[int, str]:
    """Parse a checkpoint slot; raises CorruptLogError on damage."""
    header, sep, snapshot_text = text.partition("\n")
    fields = header.split(" ")
    if not sep or len(fields) != 3 or fields[0] != CHECKPOINT_MAGIC:
        raise CorruptLogError("checkpoint slot has a malformed header")
    try:
        lsn = int(fields[1])
    except ValueError as error:
        raise CorruptLogError(
            f"checkpoint header carries a bad LSN {fields[1]!r}"
        ) from error
    if _crc(snapshot_text) != fields[2]:
        raise CorruptLogError("checkpoint snapshot failed its CRC check")
    return lsn, snapshot_text


def highest_txid(records: Iterable[WalRecord]) -> int:
    """The largest transaction id appearing in ``records`` (0 if none)."""
    return max((record.txid for record in records), default=AUTOCOMMIT_TXID)
