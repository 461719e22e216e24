"""WAL shipping: the replication stream between coordinator and replicas.

Replication reuses the durability format wholesale — what ships is the
coordinator's own WAL records, re-encoded byte-for-byte, so a follower's
log device ends up holding the same text a local crash would recover
from.  A :class:`LogShipper` reads the coordinator's device and cuts
either a :class:`ShipBatch` (the tail of records past a follower's
acknowledged LSN) or, when the coordinator has checkpointed past what
the follower has, a :class:`CheckpointBundle` carrying the full
checkpoint slot plus the live log — the full-resync payload.

The shipper is read-only over the device: it never appends, never
truncates, and can therefore run against a live coordinator between any
two statements.  Every record is one whole write, so any cut of the log
at a record boundary is a state the coordinator's readers could see:
there is no transaction boundary to wait for.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.errors import ClusterError
from repro.ordbms.wal import (
    LogDevice,
    WalRecord,
    decode_checkpoint,
    parse_log,
)


@dataclass(frozen=True)
class ShipBatch:
    """One shipment: records a follower is missing, in LSN order."""

    records: tuple[WalRecord, ...]

    @property
    def first_lsn(self) -> int:
        return self.records[0].lsn if self.records else 0

    @property
    def last_lsn(self) -> int:
        return self.records[-1].lsn if self.records else 0

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class CheckpointBundle:
    """Full-resync payload: the coordinator's checkpoint slot + live log.

    ``checkpoint_text`` is the *encoded* slot (magic, covered LSN, CRC,
    snapshot) so the receiving replica installs it verbatim and its next
    reopen verifies the same CRC the coordinator's would.
    """

    checkpoint_text: str
    tail: tuple[WalRecord, ...]

    @property
    def checkpoint_lsn(self) -> int:
        lsn, _ = decode_checkpoint(self.checkpoint_text)
        return lsn

    @property
    def last_lsn(self) -> int:
        if self.tail:
            return self.tail[-1].lsn
        return self.checkpoint_lsn


class LogShipper:
    """Read side of replication, bound to one coordinator log device."""

    def __init__(self, device: LogDevice, component: str = "ship") -> None:
        self.device = device
        self.component = component
        self.batches_cut = 0

    def checkpoint_lsn(self) -> int:
        """LSN covered by the device's checkpoint slot (0 when none)."""
        text = self.device.load_checkpoint()
        if text is None:
            return 0
        lsn, _ = decode_checkpoint(text)
        return lsn

    def log_records(self) -> tuple[WalRecord, ...]:
        """Every record currently in the live log.

        The coordinator's log is never torn while the process is alive
        (shipping happens between statements), so a parse failure here
        is real damage and propagates as
        :class:`~repro.errors.CorruptLogError`.
        """
        records, torn_tail = parse_log(self.device.read_log())
        if torn_tail is not None:
            raise ClusterError(
                f"coordinator log ends in a torn record ({torn_tail}); "
                f"refusing to ship an unfinished record"
            )
        return tuple(records)

    def can_ship_from(self, acked_lsn: int) -> bool:
        """Can a follower at ``acked_lsn`` catch up by tail shipping?

        Only when every record past ``acked_lsn`` is still in the live
        log — i.e. the coordinator has not checkpointed past the
        follower.  Otherwise the follower needs :meth:`bundle`.
        """
        return acked_lsn >= self.checkpoint_lsn()

    def batch_after(self, acked_lsn: int) -> ShipBatch:
        """Cut the tail of records with LSNs above ``acked_lsn``.

        Raises :class:`~repro.errors.ClusterError` when the gap is no
        longer shippable (records folded into a checkpoint) — callers
        check :meth:`can_ship_from` and fall back to :meth:`bundle`.
        """
        if not self.can_ship_from(acked_lsn):
            raise ClusterError(
                f"records after LSN {acked_lsn} were folded into the "
                f"checkpoint at LSN {self.checkpoint_lsn()}; "
                f"follower needs a full resync bundle"
            )
        records = tuple(
            record
            for record in self.log_records()
            if record.lsn > acked_lsn
        )
        self.batches_cut += 1
        obs.inc("repro_cluster_ship_batches_total", component=self.component)
        obs.observe(
            "repro_cluster_ship_batch_records",
            len(records),
            component=self.component,
        )
        return ShipBatch(records=records)

    def bundle(self) -> CheckpointBundle:
        """Cut the full-resync payload: checkpoint slot + live log."""
        text = self.device.load_checkpoint()
        if text is None:
            raise ClusterError(
                "coordinator device has no checkpoint slot; a replica "
                "cannot bootstrap without the schema baseline"
            )
        obs.inc(
            "repro_cluster_ship_bundles_total", component=self.component
        )
        return CheckpointBundle(
            checkpoint_text=text, tail=self.log_records()
        )
