"""The table layer: heap storage + constraints + index maintenance.

A :class:`Table` binds a :class:`~repro.ordbms.schema.TableSchema` to a
:class:`~repro.ordbms.storage.HeapFile` and keeps every secondary
:class:`~repro.ordbms.btree.BTreeIndex` and
:class:`~repro.ordbms.textindex.TextIndex` consistent across inserts,
updates and deletes.  A primary key is enforced via an automatically
created B+tree index, so enforcement is O(log n).

A row has one shape (:attr:`TableSchema.row_type
<repro.ordbms.schema.TableSchema.row_type>`): :meth:`Table.insert` builds
it, the heap stores it, history keeps it, and every read door — by
address, by scan, by index, as of an LSN — hands back that very object.
Rows are immutable and shared by every reader: a change is a new row
through :func:`apply_statement`, never an edit of one in hand.  Every
writer goes through that one statement — live inserts, updates and
deletes, a document's DOC and XML rows together, crash recovery,
follower replay and the snapshot loader — so each statement takes one
LSN, each table it touches the seqlock once, leaves a pre-image per row
and, on a durable database, is one WAL record that moves whole or not at
all (the loader's tables are bound to MVCC only once full: none of that).
"""

from __future__ import annotations

import time
from itertools import chain, islice
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from repro import obs
from repro.errors import CatalogError, ConstraintError, RowIdError
from repro.ordbms.btree import BTreeIndex
from repro.ordbms.mvcc import ABSENT, MvccState
from repro.ordbms.rowid import RowId
from repro.ordbms.schema import TableSchema
from repro.ordbms.storage import HeapFile
from repro.ordbms.textindex import TextIndex, tokenize

#: Mutation statements between automatic version-GC sweeps.  Small enough
#: to bound history growth during sustained ingest, large enough that the
#: sweep cost amortizes to noise.
AUTO_VACUUM_INTERVAL = 256

#: Slots a forward read (:meth:`Table.rows_after`) slices first — about
#: one section — and a snapshot scan's largest seqlock window: each
#: slice doubles up to a size a busy writer still leaves time to finish.
RUN_CHUNK, RUN_CHUNK_MAX = 8, 512

_T = TypeVar("_T")

_ROWID = attrgetter("rowid")

#: One slot's change: ``(before, after)``, the rows it holds and will hold.
Pair = tuple[Any, Any]

#: One table's part of a statement: the table and its pairs.
Group = tuple["Table", Sequence[Pair]]

#: What a statement's caller does with its checked groups before a slot
#: moves (see :func:`apply_statement`): log them and count them.
Journal = Callable[[Sequence[Group]], None]


def apply_statement(groups: Sequence[Group], journal: Journal | None = None) -> None:
    """Move every group's pairs (see :meth:`Table.change`) as one
    statement over their tables: each group is checked
    (:meth:`Table._check`), and a refusal in any one moves nothing in
    any table; then ``journal(groups)`` runs once, and a journal that
    raises (a log refusing the statement's one record) moves nothing
    either; then one LSN is taken, every group moves under it inside
    its own table's seqlock bracket (:meth:`Table._move`), and the LSN
    is published once, after the last group.  A table named twice is
    refused: its groups would claim the same tail.
    """
    groups = [(table, pairs) for table, pairs in groups if pairs]
    if not groups:
        return
    if len({id(table) for table, _ in groups}) < len(groups):
        raise RowIdError("a statement names a table in two groups")
    held = [table._check(pairs) for table, pairs in groups]
    if journal is not None:
        journal(groups)
    mvcc = groups[0][0]._mvcc
    lsn = None if mvcc is None else mvcc.begin_statement()
    try:
        for (table, pairs), rows in zip(groups, held):
            table._move(pairs, rows, lsn)
    finally:
        if mvcc is not None:
            mvcc.commit_statement(lsn)
            for table, pairs in groups:
                table._note_moved(len(pairs))


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
        #: The text indexes' per-row facts: the streaming pass, what makes
        #: a fresh one, the heading and sections tests (:meth:`derive_facts`).
        self._pass = self._new_pass = self._heading = self._sections = None
        # Primary-key enforcement piggybacks on a B+tree over the key.
        if schema.primary_key is not None:
            self.create_index(schema.primary_key)

    # -- MVCC ----------------------------------------------------------------

    def bind_mvcc(self, state: MvccState) -> None:
        """Adopt the database's MVCC state (done by ``create_table``).

        Unbound tables (constructed directly, e.g. in unit tests) skip
        history recording entirely and behave exactly as before.
        """
        self._mvcc = state

    def _note_moved(self, rows: int) -> None:
        """After a published statement: the vacuum cadence counts the
        rows it moved here."""
        self._mutations_since_vacuum += rows
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
        return self._create(self._indexes, column, self._build_index, "index")

    def _create(self, indexes: dict, column: str, build: Callable, what: str) -> Any:
        column = column.upper()
        self.schema.column(column)  # validates existence
        if column in indexes:
            raise CatalogError(f"{what} on {self.schema.name}.{column} already exists")
        indexes[column] = build(column)
        return indexes[column]

    def _build_index(self, column: str) -> BTreeIndex:
        index = BTreeIndex(f"{self.schema.name}_{column}_IDX")
        _post_keys(index, self.schema.position(column), self._live(), add=True)
        return index

    def create_text_index(self, column: str) -> TextIndex:
        """Create (and backfill) an inverted text index over ``column``."""
        return self._create(
            self._text_indexes, column, self._build_text_index, "text index"
        )

    def _build_text_index(self, column: str) -> TextIndex:
        index = TextIndex(f"{self.schema.name}_{column}_TXT")
        _post_text(index, self.schema.position(column), self._live(), add=True)
        return index

    def _live(self) -> list[Any]:
        return [row for _, row in self._heap.scan()]

    def derive_facts(
        self, new_pass: Callable | None = None, heading: Callable | None = None,
        sections: Callable | None = None,
    ) -> None:
        """Have the text indexes carry, per row, what a streaming pass
        says of it (:attr:`TextIndex.facts`), post the rows whose fact
        ``heading(fact)`` calls heading text in their heading postings
        too, and list each row among the members of the ``sections(fact)``
        it names.

        ``new_pass(facts)`` answers a callable fed every row in physical
        order — by every site that indexes a row, before its text, and
        here, once, the rows a table opened without facts holds — that
        stores ``facts[rowid]``; what a fact says is the caller's
        business.  Derived state like the postings: never logged, gone
        with its row, rebuilt (no argument: by the pass and test last
        given) with them.
        """
        if new_pass is not None:
            self._new_pass, self._heading, self._sections = new_pass, heading, sections
        if self._new_pass is None:
            return
        facts: dict[RowId, Any] = {}
        self._pass = self._new_pass(facts)
        for _, row in self._heap.scan():
            self._pass(row)
        for text_index in self._text_indexes.values():
            text_index.derive(facts, self._heading, self._sections)

    def rebuild_indexes(self) -> None:
        """Rebuild every B+tree and text index from the heap.

        Derived state is exactly that — derivable; this is the repair
        path ``store.fsck --repair`` and recovery diagnostics use when
        an index has drifted from the rows it claims to describe.  A
        statement like any other: probes may answer differently after
        it, so it moves the commit LSN.
        """
        mvcc = self._mvcc
        lsn = None if mvcc is None else mvcc.begin_statement()
        self._seq += 1
        try:
            for column in self._indexes:
                self._indexes[column] = self._build_index(column)
            for column in self._text_indexes:
                self._text_indexes[column] = self._build_text_index(column)
            self.derive_facts()
        finally:
            self._seq += 1
            if mvcc is not None:
                mvcc.commit_statement(lsn)

    def index_on(self, column: str) -> BTreeIndex | None:
        return self._indexes.get(column.upper())

    def text_index_on(self, column: str) -> TextIndex | None:
        return self._text_indexes.get(column.upper())

    @property
    def index_columns(self) -> tuple[str, ...]:
        return tuple(self._indexes)

    # -- mutation -----------------------------------------------------------

    def change(self, pairs: Sequence[Pair], journal: Journal | None = None) -> None:
        """Move each pair's slot from ``before`` (None: the next free
        slot) to ``after`` (None: a delete), in order, as one statement
        on this table (:func:`apply_statement`).

        Every slot must hold its ``before`` and an insert must take the
        heap's tail, none may be named twice and the primary key must
        stay unique, else :class:`~repro.errors.RowIdError` /
        :class:`~repro.errors.ConstraintError` and nothing moved.
        """
        apply_statement([(self, pairs)], journal)

    def _move(self, pairs: Sequence[Pair], held: list[Any], lsn: int | None) -> None:
        """Move checked ``pairs`` (``held``: what their slots hold) under
        ``lsn`` in one seqlock bracket — the only code that moves a heap
        slot and its index entries: each slot leaves its pre-image and
        moves, then the index entries of the rows that left go and those
        of the rows that came are posted (:meth:`_post`).  Removes before
        adds is safe: no slot is named twice."""
        heap = self._heap
        history = None if lsn is None else self._history
        self._seq += 1
        try:
            for (before, after), row in zip(pairs, held):
                rowid = (before if after is None else after).rowid
                if history is not None:
                    history.setdefault(rowid, []).append(
                        (lsn, ABSENT if row is None else row)
                    )
                if after is None:
                    heap.delete(rowid)
                elif row is None:
                    heap.restore(rowid, after)
                else:
                    heap.update(rowid, after)
            self._post([row for row in held if row is not None], add=False)
            self._post([after for _, after in pairs if after is not None], add=True)
        finally:
            self._seq += 1

    def _check(self, pairs: Sequence[Pair]) -> list[Any]:
        """What each pair's slot holds, once the whole batch is checked
        (see :meth:`change`): an insert takes the next free slot, the
        inserts of one batch the tail in order, and a tombstone is never
        filled again."""
        heap, name = self._heap, self.schema.name
        slots = {(before if after is None else after).rowid for before, after in pairs}
        if len(slots) < len(pairs):
            raise RowIdError(f"a statement on table {name} names a slot twice")
        tail = iter(heap.next_rowids(sum(before is None for before, _ in pairs)))
        free, held = next(tail, None), []
        for before, after in pairs:
            rowid = (before if after is None else after).rowid
            if before is None:
                if rowid != free:
                    raise RowIdError(
                        f"an insert into table {name} names ROWID {rowid}, "
                        f"not the heap's tail {free}"
                    )
                row, free = None, next(tail, None)
            else:
                try:
                    row = heap.holds(rowid)
                except RowIdError:  # no slot at all
                    row = ABSENT
                if row is not before and row != before:
                    raise RowIdError(
                        f"ROWID {rowid} in table {name} does not hold the row "
                        f"the change replaces"
                    )
            held.append(row)
        # A key an ``after`` brings is held by no other ``after`` and by
        # no row outside the batch's slots (theirs move away): one range
        # read over the batch's keys finds every stored holder.
        if (column := self.schema.primary_key) is not None:
            position, index = self.schema.position(column), self._indexes[column]
            values: set[Any] = set()
            for _, after in pairs:
                value = None if after is None else after[position]
                if value is not None:
                    if value in values:
                        raise self._duplicate(column, value)
                    values.add(value)
            for value, rowid in index.range(min(values), max(values)) if values else ():
                if value in values and rowid not in slots:
                    raise self._duplicate(column, value)
        return held

    def _duplicate(self, column: str, value: Any) -> ConstraintError:
        return ConstraintError(
            f"duplicate value {value!r} for unique column {self.schema.name}.{column}"
        )

    def insert(
        self, values: Mapping[str, Any], journal: Journal | None = None
    ) -> RowId:
        """Type-check, constraint-check and store a row; returns its ROWID."""
        row = self.schema.row(values, self._heap.next_rowids(1)[0])
        self.change([(None, row)], journal)
        return row.rowid

    def next_rowids(self, count: int) -> list[RowId]:
        """Where the next ``count`` inserts will land (heap look-ahead)."""
        return self._heap.next_rowids(count)

    def update(
        self,
        rowid: RowId,
        changes: Mapping[str, Any],
        journal: Journal | None = None,
    ) -> None:
        """Apply ``changes`` (column->value) to the row at ``rowid``."""
        before = self._heap.fetch(rowid)
        self.change([(before, self.schema.row(changes, rowid, base=before))], journal)

    def delete(self, rowid: RowId, journal: Journal | None = None) -> Any:
        """Delete the row at ``rowid``; returns it."""
        before = self._heap.fetch(rowid)
        self.change([(before, None)], journal)
        return before

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
        rows = self._counted((row for _, row in self._heap.scan()), "scan")
        return rows if predicate is None else filter(predicate, rows)

    def _counted(self, rows: Iterable[Any], path: str) -> Iterator[Any]:
        """``rows``, counted into ``repro_ordbms_rows_read_total`` in one
        bump when the read ends (early close included), never per row:
        the counter must not be a read's hot-path cost."""
        examined = 0
        try:
            for examined, row in enumerate(rows, 1):
                yield row
        finally:
            if examined:
                obs.inc(
                    "repro_ordbms_rows_read_total", examined,
                    table=self.schema.name, path=path,
                )

    def lookup(self, column: str, value: Any) -> list[Any]:
        """Equality lookup, via index when one exists, else a scan."""
        column = column.upper()
        index = self._indexes.get(column)
        if index is None:
            position = self.schema.position(column)
            rows = [row for _, row in self._heap.scan() if row[position] == value]
        else:
            rows = [self.fetch(rowid) for rowid in index.search(value)]
            obs.inc("repro_ordbms_btree_probes_total", index=index.name)
        obs.inc(
            "repro_ordbms_lookups_total", table=self.schema.name,
            path="scan" if index is None else "index",
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
                raise self._invisible(rowid, pin)
        return rows

    def _invisible(self, rowid: RowId, pin: int) -> RowIdError:
        return RowIdError(f"ROWID {rowid} is not visible at LSN {pin} in table {self.schema.name}")

    def rows_after(self, rowid: RowId, pin: int, take: Callable[[Iterator], _T] = list) -> _T:
        """The forward read: ``take(rows)``, ``rows`` the rows stored right
        after ``rowid`` as of ``pin``, in order, up to the first slot with
        no row in that view or the heap tail — all in one seqlock window
        (:meth:`stable_read`: ``take`` must be pure).  It counts nothing:
        the reader that pulls the rows counts them (DESIGN.md §10).

        A run has a head: ``rowid`` must itself hold a row as of ``pin``.
        When it does not — its document was deleted and the history
        reclaimed since the caller read it — the typed
        :class:`~repro.errors.RowIdError` says so, where an empty run
        would pass for a section with nothing in it.
        """
        def runs(history: bool, chunk: int, skip: int) -> Iterator[list[Any]]:
            # Growing slices of the heap, or (history) slots resolved by address.
            slots = self._heap.scan_all(rowid) if history else None
            while True:
                if slots is None:
                    run = self._heap.slots_after(rowid, chunk, skip)
                else:
                    run = [self._as_of(slot, row, pin) for slot, row in islice(slots, chunk)]
                    run = [None if row is ABSENT else row for row in run]
                if None in run:
                    yield run[:run.index(None)]
                    return
                yield run
                if len(run) < chunk:
                    return
                chunk, skip = min(chunk * 2, RUN_CHUNK_MAX), skip + chunk

        def window() -> _T:
            if self._history:
                answer = take(chain.from_iterable(runs(True, RUN_CHUNK, 0)))
                # After the slots: while the head is visible, their history is not swept.
                if self._visible_image(rowid, pin) is ABSENT:
                    raise self._invisible(rowid, pin)
                return answer
            first = self._heap.slots_after(rowid, RUN_CHUNK + 1, -1)  # the head's slot on
            if not first or first[0] is None:
                raise self._invisible(rowid, pin)
            end = first.index(None) if None in first else len(first)
            if end <= RUN_CHUNK:  # the run ends in the first slice: no more to read
                return take(iter(first[1:end]))
            return take(chain(first[1:], chain.from_iterable(runs(False, 2 * RUN_CHUNK, RUN_CHUNK))))

        return self.stable_read(window)

    def changed_rowids_since(self, pin: int) -> set[RowId]:
        """Rowids mutated by any statement after ``pin``.

        History entries are appended in LSN order, so the last entry's
        LSN bounds the row's whole history; vacuum keeps only suffixes.
        """
        return self.stable_read(lambda: self._changed_since(pin))

    def _changed_since(self, pin: int) -> set[RowId]:
        return {rowid for rowid, entries in self._history.items() if entries and entries[-1][0] > pin}

    def snapshot_scan(self, pin: int) -> Iterator[Any]:
        """Yield every row visible at ``pin``, in physical order, a chunk
        of slots per seqlock window: with no history on the table the
        heap *is* that view and a chunk is a list slice of it
        (:meth:`HeapFile.slots_after`); else each slot resolves by its
        address (:meth:`_as_of`).

        Rows inserted while the scan runs carry LSNs above the pin and
        are invisible anyway, and tombstoned slots resolve through their
        pre-images.
        """
        def chunks() -> Iterator[list[Any]]:
            chunk, cursor = RUN_CHUNK, (None, 0)

            def window() -> tuple[list[Any], tuple[RowId | None, int]]:
                after, skip = cursor  # the slots ``skip`` behind ``after`` come next
                if self._history:
                    slots = list(islice(self._heap.scan_all(after), skip, skip + chunk))
                    run = [self._as_of(slot, row, pin) for slot, row in slots]
                    run = [None if row is ABSENT else row for row in run]
                    return run, ((slots[-1][0], 0) if slots else cursor)
                run = self._heap.slots_after(after, chunk, skip)
                return run, (after, skip + len(run))

            while True:
                run, cursor = self.stable_read(window)
                yield run
                if len(run) < chunk:
                    return
                chunk = min(chunk * 2, RUN_CHUNK_MAX)

        slots = chain.from_iterable(chunks())
        return (row for row in self._counted(slots, "snapshot_scan") if row is not None)

    def _patched(self, probe: Callable[[set[RowId]], _T], pin: int) -> tuple[_T, dict[RowId, Any]]:
        """Pin-aware probing: ``probe(changed)`` reads the *live* indexes
        with ``changed`` — the rows a statement changed after ``pin`` —
        left out, in one window with the read of that set, so a racing
        statement is in both or in neither.  Beside its answer come the
        images visible at ``pin`` of the changed rows that had one (rows
        updated away from, or deleted out of, the postings included), for
        the caller to judge by what the probe means."""
        def window() -> tuple[_T, set[RowId]]:
            changed = self._changed_since(pin)
            return probe(changed), changed

        answer, changed = self.stable_read(window)
        images = {rowid: self.stable_read(lambda: self._visible_image(rowid, pin)) for rowid in changed}
        return answer, {rowid: image for rowid, image in images.items() if image is not ABSENT}

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
        rowids, images = self._patched(lambda changed: _without(index.search(value), changed), pin)
        return sorted(rowids + [rowid for rowid, image in images.items() if image[position] == value])

    def snapshot_text_rowids(
        self,
        column: str,
        lookup: Callable[[TextIndex], Iterable[RowId]],
        predicate: Callable[[str], bool],
        pin: int,
    ) -> list[RowId]:
        """The text-index twin of :meth:`snapshot_rowids`, unordered:
        ``lookup`` is the raw probe, ``predicate`` its meaning on a row's text."""
        index, position = self._text_indexes[column.upper()], self.schema.position(column)
        rowids, images = self._patched(lambda changed: _without(lookup(index), changed), pin)
        return rowids + [
            rowid for rowid, image in images.items()
            if image[position] and predicate(image[position])
        ]

    def snapshot_text_sections(
        self,
        column: str,
        tokens: Sequence[str],
        candidates: set[Any],
        facts_of: Callable[[list[RowId]], list[Any]],
        pin: int,
    ) -> dict[str, set[Any]]:
        """Per token, the ``candidates`` — sections the text index's facts
        name — whose text holds it as of ``pin``: the live index's answer
        (:meth:`TextIndex.holding`), :meth:`_patched` with the rows changed
        since whose text then held it, by the facts ``facts_of(rowids)``
        gives.  One term lookup counted per token given."""
        index, position = self._text_indexes[column.upper()], self.schema.position(column)
        if tokens:
            obs.inc("repro_ordbms_textindex_lookups_total", len(tokens), kind="term")
        found, images = self._patched(
            lambda changed: {token: index.holding(token, candidates, changed) for token in tokens}, pin
        )
        words = {rowid: tokenize(image[position] or "", keep_stopwords=True) for rowid, image in images.items()}
        for token, sections in found.items():
            hits = [rowid for rowid, held in words.items() if token in held]
            for fact in facts_of(hits) if hits else ():
                sections.update(candidates.intersection(index.sections(fact)))
        return found

    def snapshot_search(self, column: str, value: Any, pin: int) -> list[Any]:
        """Equality lookup as of ``pin``: the rows of :meth:`snapshot_rowids`
        (a column with no B+tree is refused there)."""
        rowids = self.snapshot_rowids(column, value, pin)
        return list(self._counted(self.visible_many(rowids, pin), "snapshot"))

    def __len__(self) -> int:
        return len(self._heap)

    # -- internals ----------------------------------------------------------

    def _post(self, rows: list[Any], add: bool) -> None:
        """Feed a statement's ``rows`` to the streaming pass and add their
        index entries, or (``add`` false) take the entries away: one
        descent per B+tree key, the rows in order everywhere else.  The
        pass goes first, so a row's fact is there when its text is posted."""
        if add and self._pass is not None:
            for row in rows:
                self._pass(row)
        position, ordered = self.schema.position, sorted(rows, key=_ROWID)
        for column, index in self._indexes.items():
            _post_keys(index, position(column), ordered, add)
        for column, text_index in self._text_indexes.items():
            _post_text(text_index, position(column), rows, add)


def _without(rowids: Iterable[RowId], changed: set[RowId]) -> list[RowId]:
    return [rowid for rowid in rowids if rowid not in changed] if changed else list(rowids)


def _post_keys(index: BTreeIndex, position: int, rows: list[Any], add: bool) -> None:
    """Post (``add`` false: take away) the keys at ``position`` of
    ``rows``, given in ROWID order, in ``index``: the rows grouped by
    key, one descent per key with its ROWIDs."""
    by_key: dict[Any, list[RowId]] = {}
    for row in rows:
        key = row[position]
        if key in by_key:
            by_key[key].append(row.rowid)
        elif key is not None:
            by_key[key] = [row.rowid]
    post = index.insert if add else index.delete
    for key, rowids in by_key.items():
        post(key, *rowids)


def _post_text(index: TextIndex, position: int, rows: list[Any], add: bool) -> None:
    """Post (``add`` false: take away) the ``rows``' non-empty text at
    ``position`` in ``index``, row by row in order."""
    post = index.add if add else index.remove
    for row in rows:
        value = row[position]
        if isinstance(value, str) and value:
            post(row.rowid, value)
