"""MVCC: commit-LSN-stamped row versions and snapshot pins.

One :class:`MvccState` per database holds the **commit LSN** — a
monotonic counter bumped by every mutation statement, and the one
version counter in the system: every read resolves at one value of it
(:meth:`MvccState.read_lsn`) and the result cache stamps its entries
with it — and the set of *pinned* LSNs held by open :class:`Snapshot`
handles.  The concurrency model is deliberately asymmetric:

* **Single writer.**  Exactly one thread (the daemon's ingest path)
  mutates the database.  :meth:`MvccState.begin_statement` enforces this
  best-effort: a second concurrent writer raises instead of corrupting.
* **Lock-free readers.**  Readers never take a lock on the write path.
  A reader opens a snapshot — pinning the current commit LSN — and
  resolves every row through *pre-image history*: each mutation records
  ``(lsn, pre_image)`` for the row it supersedes, so a reader at pin
  ``S`` takes the first history entry with ``lsn > S`` (the oldest
  superseding statement's pre-image) or, absent one, the live heap row.
  Structural races (B+tree splits, postings-dict resizes) are handled by
  a per-table seqlock with optimistic retry — readers spin-yield, they
  never block on ingest.
* **The statement is the unit of visibility.**  A write is one
  statement, however many tables it touches — a document's DOC row and
  node rows move under one LSN — so a reader pinned before it sees none
  of it and a reader pinned after sees all of it.  There is no wider
  unit, and so no transaction pin.
* **Bounded GC.**  History is reclaimed by :meth:`Table.vacuum_versions`
  down to the *GC horizon* — the oldest pinned LSN, or the current LSN
  when nothing is pinned.  A pinned version is therefore never
  reclaimed; an idle system converges to zero retained versions.

Writer statement protocol (see :func:`repro.ordbms.table.apply_statement`):
take the LSN, then per table open the seqlock (odd), record pre-images,
mutate heap + indexes and close the seqlock (even); *then*, once the
last table has moved, publish the statement's LSN.  Readers observing a
seqlock mid-statement retry; readers racing the LSN publish see either
the old LSN (pin excludes the statement in every table; its pre-images
are recorded) or the new one (statement visible; heaps consistent) —
both are consistent snapshots.
"""

from __future__ import annotations

import itertools
import threading

from repro import obs
from repro.errors import TransactionError


class _Absent:
    """Sentinel: "no row version is visible at this LSN"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ABSENT"


#: Pre-image recorded by INSERT/RESTORE statements (the row did not exist
#: before them) and the visibility result for rows a snapshot cannot see.
ABSENT = _Absent()


class Snapshot:
    """A pinned read view: every read through it sees commit LSN ``lsn``.

    Obtained from :meth:`repro.ordbms.database.Database.open_snapshot`
    (or :meth:`repro.store.xmlstore.XmlStore.snapshot`); usable as a
    context manager.  Only ``lsn`` travels down the read path; what the
    handle owns is the GC horizon.  While it is held, no pre-image a
    read at ``lsn`` needs is reclaimed, so such reads answer the same
    whatever commits meanwhile.  Once released (or for an LSN that was
    never held, :meth:`MvccState.read_lsn`) reads at ``lsn`` are exact
    until the next commit reclaims history; from then on a row written
    since shows as it is now and a row deleted since is gone — missing
    from index probes, the typed :class:`~repro.errors.RowIdError` to a
    fetch or a forward read.
    """

    __slots__ = ("lsn", "token", "_state", "_released")

    def __init__(self, state: "MvccState", token: int, lsn: int) -> None:
        self._state = state
        self.token = token
        self.lsn = lsn
        self._released = False

    def release(self) -> None:
        """Drop the pin (idempotent)."""
        if not self._released:
            self._released = True
            self._state.release(self.token)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "released" if self._released else "pinned"
        return f"Snapshot(lsn={self.lsn}, {state})"


class MvccState:
    """Per-database MVCC bookkeeping: commit LSN, pins, GC accounting."""

    def __init__(self) -> None:
        #: Last *committed* statement LSN.  Written only by the single
        #: writer thread; read concurrently by snapshot opens.
        self.lsn = 0  # repro: guarded-by(gil) single-writer publishes; readers take any committed value
        #: Snapshot token -> pinned LSN.
        self._pins: dict[int, int] = {}  # repro: guarded-by(_pin_lock) mutated by every reader thread's open/release
        self._pin_lock = threading.Lock()
        self._tokens = itertools.count(1)  # repro: guarded-by(_pin_lock) advanced only under the pin lock
        #: Best-effort second-writer tripwire (see begin_statement).
        self._writer_active = False  # repro: guarded-by(gil) single-writer flag; check-then-set is a tripwire, not a mutex
        #: Total history entries reclaimed by version-GC (monotonic).
        self.reclaimed_total = 0  # repro: guarded-by(gil) bumped only on the writer thread

    # -- writer protocol ----------------------------------------------------

    def begin_statement(self) -> int:
        """Reserve the next statement LSN; enforce the single writer."""
        if self._writer_active:
            raise TransactionError(
                "concurrent mutation detected: the MVCC protocol allows "
                "exactly one writer thread"
            )
        self._writer_active = True
        return self.lsn + 1

    def commit_statement(self, lsn: int) -> None:
        """Publish ``lsn`` as committed (the statement's heap work is done)."""
        self.lsn = lsn
        self._writer_active = False

    # -- reader protocol ----------------------------------------------------

    def read_lsn(self, snapshot: Snapshot | None = None) -> int:
        """The commit LSN a read resolves at: ``snapshot``'s pin, else
        what a snapshot opened now would pin — the last statement
        published."""
        return self.lsn if snapshot is None else snapshot.lsn

    def open(self) -> Snapshot:
        """Pin :meth:`read_lsn` and hand back the handle."""
        with self._pin_lock:
            token = next(self._tokens)
            lsn = self.read_lsn()
            self._pins[token] = lsn
            self._publish_gauges_locked()
        obs.inc("repro_mvcc_snapshots_opened_total")
        return Snapshot(self, token, lsn)

    def release(self, token: int) -> None:
        with self._pin_lock:
            self._pins.pop(token, None)
            self._publish_gauges_locked()

    # -- GC ------------------------------------------------------------------

    def gc_horizon(self) -> int:
        """Highest LSN whose pre-images no live reader can still need."""
        with self._pin_lock:
            return min(self._pins.values(), default=self.lsn)

    def note_reclaimed(self, count: int) -> None:
        if count:
            self.reclaimed_total += count
            obs.inc("repro_mvcc_versions_reclaimed_total", count)

    # -- introspection -------------------------------------------------------

    @property
    def active_snapshots(self) -> int:
        with self._pin_lock:
            return len(self._pins)

    def _publish_gauges_locked(self) -> None:
        """Refresh the obs gauges (caller holds ``_pin_lock``)."""
        obs.set_gauge("repro_mvcc_active_snapshots", len(self._pins))
        oldest = min(self._pins.values()) if self._pins else None
        age = 0 if oldest is None else max(0, self.lsn - oldest)
        obs.set_gauge("repro_mvcc_oldest_snapshot_age_lsns", age)
