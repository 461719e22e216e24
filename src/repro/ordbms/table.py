"""The table layer: heap storage + constraints + index maintenance.

A :class:`Table` binds a :class:`~repro.ordbms.schema.TableSchema` to a
:class:`~repro.ordbms.storage.HeapFile` and keeps every secondary
:class:`~repro.ordbms.btree.BTreeIndex` and
:class:`~repro.ordbms.textindex.TextIndex` consistent across inserts,
updates and deletes.  Primary-key and unique constraints are enforced via
automatically created B+tree indexes, so enforcement is O(log n).

A row has one shape (:attr:`TableSchema.row_type
<repro.ordbms.schema.TableSchema.row_type>`): :meth:`Table.insert` builds
it, the heap stores it, history keeps it, and every read door — by
address, by scan, by index, as of an LSN — hands back that very object.
Rows are immutable and shared by every reader: a change is a new row
through :meth:`Table.update`, never an edit of one in hand.
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Mapping, TypeVar

from repro import obs
from repro.errors import CatalogError, ConstraintError, RowIdError
from repro.ordbms.btree import BTreeIndex
from repro.ordbms.mvcc import ABSENT, MvccState
from repro.ordbms.rowid import RowId
from repro.ordbms.schema import TableSchema
from repro.ordbms.storage import HeapFile
from repro.ordbms.textindex import TextIndex

#: Mutation statements between automatic version-GC sweeps.  Small enough
#: to bound history growth during sustained ingest, large enough that the
#: sweep cost amortizes to noise.
AUTO_VACUUM_INTERVAL = 256

#: Slots a forward read (:meth:`Table.rows_after`) takes in its first
#: seqlock window — about one section — and in its largest: each window
#: doubles up to a size a busy writer still leaves time to finish.
RUN_CHUNK, RUN_CHUNK_MAX = 8, 512

_T = TypeVar("_T")


class Table:
    """A heap table with secondary indexes and constraint enforcement."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._heap = HeapFile(schema.name)
        #: Seqlock for lock-free readers: odd while a mutation statement
        #: is mid-flight (heap/index structures may be inconsistent),
        #: even otherwise.  Readers snapshot it around structural reads
        #: and retry on change — see :meth:`stable_read`.
        self._seq = 0  # repro: guarded-by(gil) written by the single writer only; readers compare two atomic reads
        #: MVCC pre-image history: rowid -> [(superseding_lsn, image)].
        #: Appended chronologically by the writer; a reader pinned at S
        #: takes the first entry with lsn > S (else the live heap row).
        #: Vacuum swaps in a rebuilt dict, never mutates lists in place,
        #: so concurrent readers keep a consistent reference.
        self._history: dict[RowId, list[tuple[int, Any]]] = {}  # repro: guarded-by(_seq) writer-owned; readers go through stable_read's seqlock retry
        self._mvcc: MvccState | None = None
        self._mutations_since_vacuum = 0
        #: Reader seqlock retries (contention evidence, never blocking).
        self.read_retries = 0  # repro: guarded-by(gil) int bump; diagnostic counter, exactness not required
        self._indexes: dict[str, BTreeIndex] = {}
        self._text_indexes: dict[str, TextIndex] = {}
        #: The text indexes' per-row facts: the streaming pass, and what
        #: makes a fresh one (:meth:`derive_facts`; None: none kept).
        self._pass = self._new_pass = None
        # Unique enforcement piggybacks on B+tree indexes over these columns.
        self._unique_columns: list[str] = []
        if schema.primary_key:
            self._ensure_unique_index(schema.primary_key)
        for column in schema.unique:
            self._ensure_unique_index(column)

    def _ensure_unique_index(self, column: str) -> None:
        if column not in self._indexes:
            self.create_index(column)
        if column not in self._unique_columns:
            self._unique_columns.append(column)

    # -- MVCC ----------------------------------------------------------------

    def bind_mvcc(self, state: MvccState) -> None:
        """Adopt the database's MVCC state (done by ``create_table``).

        Unbound tables (constructed directly, e.g. in unit tests) skip
        history recording entirely and behave exactly as before.
        """
        self._mvcc = state

    def _begin_statement(self) -> int | None:
        if self._mvcc is None:
            return None
        return self._mvcc.begin_statement()

    def _record(self, lsn: int | None, rowid: RowId, image: Any) -> None:
        """Record ``image`` as the pre-image superseded at ``lsn``."""
        if lsn is None:
            return
        self._history.setdefault(rowid, []).append((lsn, image))

    def _commit_statement(self, lsn: int | None) -> None:
        if lsn is None or self._mvcc is None:
            return
        self._mvcc.commit_statement(lsn)
        self._mutations_since_vacuum += 1
        if self._mutations_since_vacuum >= AUTO_VACUUM_INTERVAL:
            self.vacuum_versions()

    def vacuum_versions(self, horizon: int | None = None) -> int:
        """Version-GC: drop history entries at or below the GC horizon.

        The horizon defaults to the database's — the oldest pinned LSN
        (so a pinned version is never reclaimed), or the current LSN
        when no snapshot is open.  Runs on the writer thread; the new
        history dict is swapped in atomically so concurrent readers keep
        a consistent (pre-sweep) reference.  Returns entries reclaimed.
        """
        if self._mvcc is None:
            return 0
        if horizon is None:
            horizon = self._mvcc.gc_horizon()
        reclaimed = 0
        fresh: dict[RowId, list[tuple[int, Any]]] = {}
        for rowid, entries in self._history.items():
            kept = [entry for entry in entries if entry[0] > horizon]
            reclaimed += len(entries) - len(kept)
            if kept:
                fresh[rowid] = kept
        self._history = fresh
        self._mutations_since_vacuum = 0
        self._mvcc.note_reclaimed(reclaimed)
        return reclaimed

    @property
    def version_count(self) -> int:
        """Retained pre-image history entries (GC-boundedness evidence)."""
        return sum(len(entries) for entries in self._history.values())

    def stable_read(self, read: Callable[[], _T]) -> _T:
        """Run ``read`` lock-free against a structurally stable table.

        Optimistic seqlock: retry while the writer is mid-statement or
        moved the counter during the read.  ``read`` must be pure (no
        side effects beyond its return value) since it may run several
        times; an exception out of a torn window (a dict resized
        mid-iteration, a posting gone between two lookups) is the tear
        and retries too.  Readers only ever *yield* the GIL — they never
        block on a lock.
        """
        while True:
            start = self._seq
            if start & 1:
                self.read_retries += 1
                time.sleep(0)  # yield to the writer mid-statement
                continue
            try:
                result = read()
            except Exception as error:  # lint: allow-broad-except(a torn window can fail any way; a stable one's error is re-raised)
                if self._seq == start and not isinstance(error, RuntimeError):
                    raise
                self.read_retries += 1
                time.sleep(0)
                continue
            if self._seq == start:
                return result
            self.read_retries += 1

    # -- index management -------------------------------------------------

    def create_index(self, column: str) -> BTreeIndex:
        """Create (and backfill) a B+tree index over ``column``."""
        column = column.upper()
        self.schema.column(column)  # validates existence
        if column in self._indexes:
            raise CatalogError(
                f"index on {self.schema.name}.{column} already exists"
            )
        self._indexes[column] = self._build_index(column)
        return self._indexes[column]

    def _build_index(self, column: str) -> BTreeIndex:
        index = BTreeIndex(f"{self.schema.name}_{column}_IDX")
        position = self.schema.position(column)
        for rowid, row in self._heap.scan():
            if row[position] is not None:
                index.insert(row[position], rowid)
        return index

    def drop_index(self, column: str) -> None:
        """Stop keeping the B+tree over ``column``."""
        del self._indexes[column.upper()]

    def create_text_index(self, column: str) -> TextIndex:
        """Create (and backfill) an inverted text index over ``column``."""
        column = column.upper()
        self.schema.column(column)
        if column in self._text_indexes:
            raise CatalogError(
                f"text index on {self.schema.name}.{column} already exists"
            )
        self._text_indexes[column] = self._build_text_index(column)
        return self._text_indexes[column]

    def _build_text_index(self, column: str) -> TextIndex:
        index = TextIndex(f"{self.schema.name}_{column}_TXT")
        position = self.schema.position(column)
        for rowid, row in self._heap.scan():
            value = row[position]
            if isinstance(value, str) and value:
                index.add(rowid, value)
        return index

    def derive_facts(self, new_pass: Callable[[dict], Any] | None = None) -> None:
        """Have the text indexes carry, per row, what a streaming pass
        says of it (:attr:`TextIndex.facts`).

        ``new_pass(facts)`` answers a callable fed every row in physical
        order — by every site that indexes a row, and here, once, the
        rows a table opened without facts holds — that stores
        ``facts[rowid]``; what a fact says is the caller's business.
        Derived state like the postings: never logged, gone with its
        row, rebuilt (no argument: by the pass last given) with them.
        """
        self._new_pass = new_pass or self._new_pass
        if self._new_pass is None:
            return
        facts: dict[RowId, Any] = {}
        self._pass = self._new_pass(facts)
        for _, row in self._heap.scan():
            self._pass(row)
        for text_index in self._text_indexes.values():
            text_index.facts = facts

    def rebuild_indexes(self) -> None:
        """Rebuild every B+tree and text index from the heap.

        Derived state is exactly that — derivable; this is the repair
        path ``store.fsck --repair`` and recovery diagnostics use when
        an index has drifted from the rows it claims to describe.  A
        statement like any other: probes may answer differently after
        it, so it moves the commit LSN.
        """
        lsn = self._begin_statement()
        self._seq += 1
        try:
            for column in self._indexes:
                self._indexes[column] = self._build_index(column)
            for column in self._text_indexes:
                self._text_indexes[column] = self._build_text_index(column)
            self.derive_facts()
        finally:
            self._seq += 1
            self._commit_statement(lsn)

    def index_on(self, column: str) -> BTreeIndex | None:
        return self._indexes.get(column.upper())

    def text_index_on(self, column: str) -> TextIndex | None:
        return self._text_indexes.get(column.upper())

    @property
    def index_columns(self) -> tuple[str, ...]:
        return tuple(self._indexes)

    # -- mutation -----------------------------------------------------------

    def insert(self, values: Mapping[str, Any]) -> RowId:
        """Type-check, constraint-check and store a row; returns its ROWID."""
        row = self.schema.row(values, self._heap.next_rowids(1)[0])
        self._check_unique(row, exclude=None)
        lsn = self._begin_statement()
        self._seq += 1
        try:
            rowid = self._heap.insert(row)  # the address the row was built on
            self._record(lsn, rowid, ABSENT)
            self._index_row(row)
        finally:
            self._seq += 1
            self._commit_statement(lsn)
        return rowid

    def next_rowids(self, count: int) -> list[RowId]:
        """Where the next ``count`` inserts will land (heap look-ahead)."""
        return self._heap.next_rowids(count)

    def update(self, rowid: RowId, changes: Mapping[str, Any]) -> None:
        """Apply ``changes`` (column->value) to the row at ``rowid``."""
        self.overwrite(
            self.schema.row(changes, rowid, base=self._heap.fetch(rowid))
        )

    def overwrite(self, row: Any) -> None:
        """Put ``row``, a stored row of this table, in its slot in place
        of the one standing there: an update's second half, and — handed
        the row the update replaced — its undo, unique check only."""
        rowid = row.rowid
        old_row = self._heap.fetch(rowid)
        self._check_unique(row, exclude=rowid)
        lsn = self._begin_statement()
        self._seq += 1
        try:
            self._record(lsn, rowid, old_row)
            self._unindex_row(old_row)
            self._heap.update(rowid, row)
            self._index_row(row)
        finally:
            self._seq += 1
            self._commit_statement(lsn)

    def delete(self, rowid: RowId) -> Any:
        """Delete the row at ``rowid``; returns it, for :meth:`restore`."""
        old_row = self._heap.fetch(rowid)
        lsn = self._begin_statement()
        self._seq += 1
        try:
            self._record(lsn, rowid, old_row)
            self._heap.delete(rowid)
            self._unindex_row(old_row)
        finally:
            self._seq += 1
            self._commit_statement(lsn)
        return old_row

    def restore(self, row: Any) -> None:
        """Undo a delete: put ``row``, as :meth:`delete` returned it, back
        at its own address — unique check only."""
        rowid = row.rowid
        self._check_unique(row, exclude=rowid)
        lsn = self._begin_statement()
        self._seq += 1
        try:
            self._record(lsn, rowid, ABSENT)
            self._heap.restore(rowid, row)
            self._index_row(row)
        finally:
            self._seq += 1
            self._commit_statement(lsn)

    # -- access ---------------------------------------------------------------

    def fetch(self, rowid: RowId) -> Any:
        """O(1) fetch by physical ROWID: the stored row itself."""
        return self._heap.fetch(rowid)

    def exists(self, rowid: RowId) -> bool:
        return self._heap.exists(rowid)

    def scan(
        self, predicate: Callable[[Any], bool] | None = None
    ) -> Iterator[Any]:
        """Yield the live rows in physical order."""
        examined = 0
        try:
            for _, row in self._heap.scan():
                examined += 1
                if predicate is None or predicate(row):
                    yield row
        finally:
            # One bump per scan (early close included), not one per row:
            # the counter must not be the scan's hot-path cost.
            if examined:
                obs.inc(
                    "repro_ordbms_rows_read_total", examined,
                    table=self.schema.name, path="scan",
                )

    def lookup(self, column: str, value: Any) -> list[Any]:
        """Equality lookup, via index when one exists, else a scan."""
        column = column.upper()
        index = self._indexes.get(column)
        if index is not None:
            rows = [self.fetch(rowid) for rowid in index.search(value)]
            obs.inc(
                "repro_ordbms_lookups_total",
                table=self.schema.name, path="index",
            )
            obs.inc("repro_ordbms_btree_probes_total", index=index.name)
            return rows
        position = self.schema.position(column)
        rows = [
            row for _, row in self._heap.scan() if row[position] == value
        ]
        obs.inc(
            "repro_ordbms_lookups_total",
            table=self.schema.name, path="scan",
        )
        return rows

    # -- snapshot access (MVCC) ----------------------------------------------

    def _visible_image(self, rowid: RowId, pin: int) -> Any:
        """The row visible at ``pin``, or :data:`ABSENT`.

        Reader order matters and is the inverse of the writer's: read
        the live heap value *first*, then consult history.  The writer
        records a statement's pre-image before its heap mutation (inside
        the seqlock window), so by the time a reader can observe the
        mutated heap, the superseding history entry already exists.
        Runs inside :meth:`stable_read`.
        """
        try:
            current: Any = self._heap.fetch(rowid)
        except RowIdError:  # tombstoned or not-yet-allocated slot
            current = ABSENT
        return self._as_of(rowid, current, pin)

    def _as_of(self, rowid: RowId, current: Any, pin: int) -> Any:
        """``current`` (the heap's value, read first), or the pre-image
        that stood in its slot at ``pin``."""
        entries = self._history.get(rowid)
        if entries:
            for lsn, image in entries:
                if lsn > pin:
                    # Oldest superseding statement: its pre-image is the
                    # row as of every LSN at or below the pin.
                    return image
        return current

    def visible_row(self, rowid: RowId, pin: int) -> Any | None:
        """The row at ``rowid`` as of commit LSN ``pin`` (None if absent)."""
        image = self.stable_read(lambda: self._visible_image(rowid, pin))
        return None if image is ABSENT else image

    def visible_many(self, rowids: Iterable[RowId], pin: int) -> list[Any]:
        """Batch :meth:`visible_row`; every rowid must be visible.

        The whole list resolves inside one seqlock window.  With no
        history on the table the heap *is* the pinned view, so the
        common case is one list lookup per row.
        """
        rowids = list(rowids)
        fetch = self._heap.fetch

        def read() -> list[Any]:
            if not self._history:
                try:
                    return [fetch(rowid) for rowid in rowids]
                except RowIdError:
                    pass  # a dead slot: the per-row path says which
            return [self._visible_image(rowid, pin) for rowid in rowids]

        rows = self.stable_read(read)
        for rowid, image in zip(rowids, rows):
            if image is ABSENT:
                raise RowIdError(
                    f"ROWID {rowid} is not visible at LSN {pin} in table "
                    f"{self.schema.name}"
                )
        if rows:
            obs.inc(
                "repro_ordbms_rows_read_total", len(rows),
                table=self.schema.name, path="snapshot",
            )
        return rows

    def _slots_after(
        self, rowid: RowId | None, pin: int
    ) -> Iterator[tuple[RowId, Any]]:
        """``(rowid, image)`` for every slot stored after ``rowid`` (every
        slot when None), as of ``pin``; a slot with no row in that view
        carries :data:`ABSENT`.  Slots are taken a chunk at a time, each
        chunk inside one seqlock window.

        A run has a head: ``rowid`` must itself hold a row as of ``pin``.
        When it does not — its document was deleted and the history
        reclaimed since the caller read it — the typed
        :class:`~repro.errors.RowIdError` says so, where an empty run
        would pass for a section with nothing in it.
        """
        chunk, head = RUN_CHUNK, rowid

        def window() -> list[tuple[RowId, Any]] | None:
            slots = [
                (slot, ABSENT if row is None else row)
                for slot, row in islice(self._heap.scan_all(rowid), chunk)
            ]
            if self._history:
                slots = [
                    (slot, self._as_of(slot, row, pin)) for slot, row in slots
                ]
            # Judged after the slots: while the head is visible no sweep
            # has taken the history those slots were resolved with.
            if head is not None and self._visible_image(head, pin) is ABSENT:
                return None
            return slots

        while True:
            slots = self.stable_read(window)
            if slots is None:
                raise RowIdError(
                    f"ROWID {head} is not visible at LSN {pin} in table "
                    f"{self.schema.name}"
                )
            yield from slots
            if len(slots) < chunk:
                return
            rowid, chunk = slots[-1][0], min(chunk * 2, RUN_CHUNK_MAX)

    def rows_after(self, rowid: RowId, pin: int) -> Iterator[Any]:
        """Lazily yield the rows stored right after ``rowid``, in order.

        The forward read: one pass over the slots that physically follow
        ``rowid``, as of ``pin``, ending at the first slot that holds no
        row in that view or at the heap tail.  A row counts as read only
        when the consumer pulls it.
        """
        pulled = 0
        try:
            for _, image in self._slots_after(rowid, pin):
                if image is ABSENT:
                    return
                pulled += 1
                yield image
        finally:
            if pulled:
                obs.inc(
                    "repro_ordbms_rows_read_total", pulled,
                    table=self.schema.name, path="snapshot",
                )

    def changed_rowids_since(self, pin: int) -> set[RowId]:
        """Rowids mutated by any statement after ``pin``.

        History entries are appended in LSN order, so the last entry's
        LSN bounds the row's whole history; vacuum keeps only suffixes.
        """
        return self.stable_read(
            lambda: {
                rowid
                for rowid, entries in self._history.items()
                if entries and entries[-1][0] > pin
            }
        )

    def snapshot_scan(self, pin: int) -> Iterator[Any]:
        """Yield every row visible at ``pin``, in physical order.

        Rows inserted while the scan runs carry LSNs above the pin and
        are invisible anyway, and tombstoned slots resolve through their
        pre-images.
        """
        examined = 0
        try:
            for _, image in self._slots_after(None, pin):
                examined += 1
                if image is not ABSENT:
                    yield image
        finally:
            if examined:
                obs.inc(
                    "repro_ordbms_rows_read_total", examined,
                    table=self.schema.name, path="snapshot_scan",
                )

    def _rowids_as_of(
        self,
        probe: Callable[[], Iterable[RowId]],
        judge: Callable[[Any], bool],
        pin: int,
    ) -> list[RowId]:
        """Pin-aware probing: an index answer corrected to ``pin``.

        ``probe`` reads the *live* postings (a fresh collection); they
        keep their verdict unless the row changed after the pin, and
        every rowid that did (which covers rows updated away from, or
        deleted out of, the postings) is re-judged on its visible image.
        The probe runs before the changed-set read: any statement racing
        us either finishes before the probe (its rowid is in the postings
        or gone from them) or lands a history entry the changed-set read
        sees.  Unordered: the B+tree door sorts, text consumers take sets.
        """
        rowids = self.stable_read(probe)
        changed = self.changed_rowids_since(pin)
        if changed:
            rowids = [rowid for rowid in rowids if rowid not in changed]
            for rowid in changed:
                image = self.stable_read(lambda: self._visible_image(rowid, pin))
                if image is not ABSENT and judge(image):
                    rowids.append(rowid)
        return list(rowids)

    def snapshot_rowids(self, column: str, value: Any, pin: int) -> list[RowId]:
        """ROWIDs of the rows whose indexed ``column`` equals ``value`` as
        of ``pin``, in physical order — membership without the rows."""
        index = self._indexes.get(column.upper())
        if index is None:
            raise CatalogError(
                f"no index on {self.schema.name}.{column.upper()}"
            )
        position = self.schema.position(column)
        obs.inc("repro_ordbms_btree_probes_total", index=index.name)
        return sorted(self._rowids_as_of(
            lambda: index.search(value),
            lambda image: image[position] == value, pin,
        ))

    def snapshot_text_rowids(
        self,
        column: str,
        lookup: Callable[[TextIndex], Iterable[RowId]],
        predicate: Callable[[str], bool],
        pin: int,
    ) -> list[RowId]:
        """The text-index twin of :meth:`snapshot_rowids`, unordered:
        ``lookup`` is the raw probe, ``predicate`` its meaning on a row's text."""
        index = self._text_indexes[column.upper()]
        position = self.schema.position(column)
        return self._rowids_as_of(
            lambda: lookup(index),
            lambda image: bool(image[position]) and predicate(image[position]),
            pin,
        )

    def snapshot_search(self, column: str, value: Any, pin: int) -> list[Any]:
        """Equality lookup as of ``pin``: the rows of
        :meth:`snapshot_rowids`, or a filtered :meth:`snapshot_scan`
        when ``column`` has no index."""
        column = column.upper()
        if column not in self._indexes:
            position = self.schema.position(column)
            return [
                row for row in self.snapshot_scan(pin) if row[position] == value
            ]
        return self.visible_many(
            self.snapshot_rowids(column, value, pin), pin
        )

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def block_count(self) -> int:
        return self._heap.block_count

    # -- internals ----------------------------------------------------------

    def _check_unique(self, row: Any, exclude: RowId | None) -> None:
        for column in self._unique_columns:
            position = self.schema.position(column)
            value = row[position]
            if value is None:
                continue
            existing = self._indexes[column].search(value)
            if any(rowid != exclude for rowid in existing):
                raise ConstraintError(
                    f"duplicate value {value!r} for unique column "
                    f"{self.schema.name}.{column}"
                )

    def _index_row(self, row: Any) -> None:
        rowid = row.rowid
        for column, index in self._indexes.items():
            value = row[self.schema.position(column)]
            if value is not None:
                index.insert(value, rowid)
        for column, text_index in self._text_indexes.items():
            value = row[self.schema.position(column)]
            if isinstance(value, str) and value:
                text_index.add(rowid, value)
        if self._pass is not None:
            self._pass(row)

    def _unindex_row(self, row: Any) -> None:
        rowid = row.rowid
        for column, index in self._indexes.items():
            value = row[self.schema.position(column)]
            if value is not None:
                index.delete(value, rowid)
        for column, text_index in self._text_indexes.items():
            value = row[self.schema.position(column)]
            if isinstance(value, str) and value:
                text_index.remove(rowid, value)
