"""The `Database` facade: catalog + statement entry points.

This is the single object the rest of the library holds onto.  Every
mutation is one statement (:meth:`Database.change`): it may span
several tables — a document's DOC row and node rows move together — and
is atomic on its own, one WAL record that lands whole or not at all,
one commit LSN, one sync.  There is nothing wider to commit or roll
back.

The facade also exposes ``stats`` counters (rows written, rowid
fetches) — operation counts are a machine-independent proxy for the
I/O the paper's Oracle deployment saved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro import obs
from repro.errors import WalError
from repro.ordbms.catalog import Catalog
from repro.ordbms.mvcc import MvccState, Snapshot
from repro.ordbms.rowid import RowId
from repro.ordbms.schema import TableSchema
from repro.ordbms.table import Group, Pair, Table, apply_statement
from repro.ordbms.wal import LogDevice, WriteAheadLog


@dataclass
class DatabaseStats:
    """Operation counters; reset with :meth:`reset`."""

    rows_inserted: int = 0
    rows_updated: int = 0
    rows_deleted: int = 0
    rowid_fetches: int = 0

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
    #: GC horizon of the last statement-end history sweep.
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
        (and any rows already present) recoverable.  Every later
        statement is durable the moment it returns.
        """
        wal = WriteAheadLog(device)
        self.attach_wal(wal)
        self.checkpoint()
        return wal

    def attach_wal(self, wal: WriteAheadLog) -> None:
        """Adopt an existing log (the recovery resume path)."""
        if self.wal is not None:
            raise WalError(
                f"database {self.name!r} already has a write-ahead log"
            )
        self.wal = wal

    def checkpoint(self) -> int:
        """Fold all durable state into a fresh checkpoint; truncate the log.

        Returns the highest LSN the checkpoint covers.  Between two
        statements the image is always whole.
        """
        if self.wal is None:
            raise WalError("checkpoint requires an attached write-ahead log")
        from repro.ordbms.snapshot import dump_database

        return self.wal.write_checkpoint(dump_database(self))

    # -- DML ---------------------------------------------------------------------

    def insert(self, table_name: str, values: Mapping[str, Any]) -> RowId:
        return self._settle(self.table(table_name).insert(values, self._journal))

    def update(
        self, table_name: str, rowid: RowId, changes: Mapping[str, Any]
    ) -> None:
        self._settle(self.table(table_name).update(rowid, changes, self._journal))

    def delete(self, table_name: str, rowid: RowId) -> None:
        self._settle(self.table(table_name).delete(rowid, self._journal))

    def change(self, groups: Sequence[tuple[str, Sequence[Pair]]]) -> None:
        """Apply ``groups`` — ``(table name, pairs)`` each, the pairs as
        :meth:`Table.change` takes them — as one statement over their
        tables (:func:`~repro.ordbms.table.apply_statement`): a
        document's DOC row and node rows, loaded or deleted, in one go."""
        apply_statement(
            [(self.table(name), pairs) for name, pairs in groups], self._journal
        )
        self._settle()

    def _journal(self, groups: Sequence[Group]) -> None:
        """Checked groups, about to move their slots: log them as one
        record (a log that refuses it raises, and nothing moves) and
        count them."""
        if self.wal is not None:
            self.wal.log_changes((table.schema, pairs) for table, pairs in groups)
        stats = self.stats
        for _, pairs in groups:
            for before, after in pairs:
                if before is None:
                    stats.rows_inserted += 1
                elif after is None:
                    stats.rows_deleted += 1
                else:
                    stats.rows_updated += 1

    def _settle(self, result: Any = None) -> Any:
        """After a statement has moved: sync its record (a sync that
        fails leaves it moved, as the log holds it), then reclaim the
        history it superseded.  An unmoved GC horizon (a long-held
        snapshot) frees nothing new, so a statement stays O(own rows)."""
        if self.wal is not None:
            self.wal.device.sync()
            obs.inc("repro_ordbms_wal_syncs_total", reason="statement")
        horizon = self.mvcc.gc_horizon()
        if horizon != self._swept_horizon:
            self._swept_horizon = horizon
            for table in self.catalog:
                table.vacuum_versions(horizon)
        return result

    def fetch(self, table_name: str, rowid: RowId) -> Any:
        """O(1) fetch by physical ROWID (counted in stats): the stored row."""
        self.stats.rowid_fetches += 1
        return self.table(table_name).fetch(rowid)
