"""The follower replica: applies shipped WAL records, acks durable LSNs.

A :class:`FollowerReplica` owns one log device (its "disk") and the
in-memory state recovered from it.  Shipped records are first appended
to the device and synced — *then* applied to memory and acknowledged, so
an acked LSN is always durable on the follower and a follower killed
mid-batch reopens from its last durable record (any torn tail trimmed by
:func:`~repro.ordbms.recovery.recover_follower`).

A follower never allocates LSNs: it has no
:class:`~repro.ordbms.wal.WriteAheadLog`, and its
:class:`~repro.ordbms.recovery.StreamReplayer` deliberately leaves
in-flight transactions *open* across reopens — the coordinator may still
ship the COMMIT, or a promoted coordinator ships an explicit ROLLBACK.
Reads go through the ordinary :class:`~repro.store.xmlstore.XmlStore`
facade adopted over the replayed database.
"""

from __future__ import annotations

from repro import obs
from repro.errors import ClusterError
from repro.ordbms.recovery import recover_follower
from repro.ordbms.snapshot import dump_database
from repro.ordbms.wal import (
    LogDevice,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.sgml.config import DEFAULT_CONFIG, NodeTypeConfig
from repro.store.xmlstore import XmlStore

from repro.cluster.ship import CheckpointBundle, ShipBatch


def _install(device: LogDevice, bundle: CheckpointBundle) -> None:
    """Replace a device's durable content with the bundle's, atomically
    enough for the simulation: checkpoint slot first (its save is the
    atomic step on real devices), then the log."""
    lsn, _ = decode_checkpoint(bundle.checkpoint_text)
    if lsn < 0:
        raise ClusterError(f"bundle checkpoint carries negative LSN {lsn}")
    device.save_checkpoint(bundle.checkpoint_text)
    device.truncate_log()
    for record in bundle.tail:
        device.append(record.encode())
    device.sync()


class FollowerReplica:
    """One replica's applied state plus the device it recovers from."""

    def __init__(
        self,
        name: str,
        device: LogDevice,
        config: NodeTypeConfig = DEFAULT_CONFIG,
    ) -> None:
        self.name = name
        self.device = device
        self.config = config
        self._reopen()

    def _reopen(self) -> None:
        """(Re)build the in-memory state from what the device holds."""
        recovered = recover_follower(self.device, self.name)
        self.database = recovered.database
        self.replayer = recovered.replayer
        self.torn_tail = recovered.torn_tail
        self._store: XmlStore | None = None

    @classmethod
    def bootstrap(
        cls,
        name: str,
        device: LogDevice,
        bundle: CheckpointBundle,
        config: NodeTypeConfig = DEFAULT_CONFIG,
    ) -> "FollowerReplica":
        """Initialise a replica's device wholesale from a bundle.

        Used on first join (an empty device has no schema — checkpoints
        carry it) and on rejoin after quarantine, where the local log
        can no longer be trusted and must be replaced, not recovered.
        """
        _install(device, bundle)
        return cls(name, device, config)

    # -- identity -----------------------------------------------------------

    @property
    def applied_lsn(self) -> int:
        """Highest LSN applied to memory — equal to the durable ack."""
        return self.replayer.applied_lsn

    @property
    def acked_lsn(self) -> int:
        """The LSN this replica acknowledges to the coordinator.

        Identical to :attr:`applied_lsn` by construction: records are
        synced to the device before they are applied, so everything
        applied is durable.
        """
        return self.replayer.applied_lsn

    @property
    def in_flight(self) -> tuple[int, ...]:
        """Transactions begun in the stream but not yet resolved."""
        return self.replayer.in_flight

    @property
    def store(self) -> XmlStore:
        """Read-only store view over the applied state.

        Adopted lazily: a replica that was just bundle-bootstrapped has
        the NETMARK schema (checkpoints carry it); a genuinely empty
        database has nothing to adopt and raising beats pretending.
        """
        if self._store is None:
            self._store = XmlStore.adopt(self.database, self.config)
        return self._store

    def dump(self) -> str:
        """Canonical snapshot text — byte-identical across converged
        replicas (the convergence assertion the harness makes)."""
        return dump_database(self.database)

    # -- the apply path -----------------------------------------------------

    def apply_batch(self, batch: ShipBatch) -> int:
        """Durably append then apply one shipment; returns the new ack.

        Records at or below :attr:`applied_lsn` are skipped *and not
        re-appended* — re-shipping an overlap (catch-up after a bundle
        install) is idempotent on both the log and the state.
        """
        fresh = [
            record
            for record in batch.records
            if record.lsn > self.replayer.applied_lsn
        ]
        if not fresh:
            return self.acked_lsn
        for record in fresh:
            self.device.append(record.encode())
        self.device.sync()
        for record in fresh:
            self.replayer.apply(record)
        obs.inc(
            "repro_cluster_ship_records_total",
            len(fresh),
            replica=self.name,
        )
        return self.acked_lsn

    def install_bundle(self, bundle: CheckpointBundle) -> int:
        """Full resync: adopt the coordinator's checkpoint and log.

        Replaces this replica's durable state wholesale — checkpoint
        slot, log, and in-memory database all become copies of the
        coordinator's.  The one legal divergence repair: anything this
        replica had that the coordinator does not is discarded (it was
        never acknowledged to a client, or the coordinator would have
        it).
        """
        _install(self.device, bundle)
        self._reopen()
        obs.inc("repro_cluster_resyncs_total", replica=self.name)
        return self.acked_lsn

    def compact(self) -> int:
        """Fold applied state into this replica's own checkpoint slot.

        Cannot run while a shipped transaction is still open — the
        snapshot would capture its un-committed mutations as if they
        were permanent.  Returns the covered LSN.
        """
        if self.replayer.in_flight:
            raise ClusterError(
                f"replica {self.name} has open transactions "
                f"{self.replayer.in_flight}; compact between batches"
            )
        covered = self.applied_lsn
        self.device.save_checkpoint(
            encode_checkpoint(covered, self.dump())
        )
        self.device.truncate_log()
        self.device.sync()
        obs.inc("repro_cluster_compactions_total", replica=self.name)
        return covered
