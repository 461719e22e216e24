"""The store's catalog map and the invariant it stands on.

:meth:`XmlStore.cached_entry` answers a doc id's catalog entry from a
per-store map that every query plan fills
(:meth:`~repro.query.plan.PlanContext.entry`).  It needs no versions
because stored rows never change: a DOC row is written once, a store's
doc ids only count up, and a document is loaded, and deleted, in one
statement — so an entry is a fact about its doc id for every reader that
can see the document at all.  A delete takes its entry out, and the map
is dropped once it outgrows twice the stored documents.
The tests here are about that invariant — generated ingest / replace /
delete / failed-load sequences under which no fact about a surviving row
moves and no address is handed out twice — about the map answering
what ``entry_at`` reads, at any pin and from any thread, and about its
size under edit churn.
"""

import ast
import sys
import threading
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.query.plan import PlanContext
from repro.sgml.serializer import serialize
from repro.store import XmlStore
from repro.store.accessor import joined_text
from tests.store.test_decompose_onepass import (
    SMALL,
    WIDE,
    document,
    load_rolled_back,
    tree_strategy,
)
from tests.store.test_section_run import scope


def entry_of(ctx, doc_id):
    """``ctx.entry`` of document ``doc_id``, asked with its root row."""
    [doc] = ctx.store.doc_table.snapshot_search("DOC_ID", doc_id, ctx.accessor.lsn)
    return ctx.entry(ctx.accessor.node(doc.ROOTROWID))


def _mapped(store, snapshot=None):
    """Every visible document's entry as a plan reads it: through the map."""
    ctx = PlanContext(store, store.new_accessor(snapshot), use_index=True)
    return {entry.doc_id: entry_of(ctx, entry.doc_id) for entry in store.documents()}


class TestTheMapAnswersWhatEntryAtReads:
    def test_a_reader_pinned_before_a_delete_keeps_the_entry(self, loaded_store):
        """A reader pinned before a delete gets the deleted document's
        entry, whether the map held it before the delete or the pinned
        reader fills it after."""
        warm, cold = loaded_store.documents()[:2]
        entry_of(PlanContext(loaded_store, loaded_store.new_accessor(), True), warm.doc_id)
        assert set(loaded_store._entries) == {warm.doc_id}
        with loaded_store.snapshot() as before:
            for doomed in (warm, cold):
                loaded_store.delete_document(doomed.doc_id)
            assert not loaded_store._entries  # the delete took it out
            early = PlanContext(loaded_store, loaded_store.new_accessor(before), True)
            for doomed in (warm, cold):
                assert entry_of(early, doomed.doc_id) == doomed
                assert loaded_store.entry_at(doomed.doc_id, before.lsn) == doomed
                assert loaded_store._entries[doomed.doc_id] == doomed
        assert not {warm.doc_id, cold.doc_id} & set(_mapped(loaded_store))

    def test_the_map_stays_bounded_under_edit_churn(self, loaded_store):
        """Every edit is a replace under a new doc id.  A reader pinned
        before each one puts the superseded entry back; the map is
        dropped before it outgrows twice the stored documents, and what
        it holds is what ``entry_at`` reads."""
        store, name, text = loaded_store, "churn.md", "# Churn\n\nchurn text\n"
        store.store_text(text, name)
        live = len(store)
        ever = {entry.doc_id: entry for entry in store.documents()}
        for _ in range(3 * live + 200):
            with store.snapshot() as before:
                old = store.lookup_by_name(name)
                new = store.replace_text(text, name).doc_id
                ever[new] = store.describe(new)
                early = PlanContext(store, store.new_accessor(before), True)
                assert entry_of(early, old.doc_id) == old
            assert len(store._entries) <= 2 * live + 65
        assert store._entries == {doc_id: ever[doc_id] for doc_id in store._entries}

    def test_four_threads_fill_the_map_with_what_entry_at_reads(self, loaded_store):
        """Four threads fill an empty map at once, round after round, with
        a tiny switch interval: every entry any of them reads, and the map
        it leaves, equals what ``entry_at`` reads."""
        store, rounds = loaded_store, 40
        lsn = store.new_accessor().lsn
        expected = {entry.doc_id: store.entry_at(entry.doc_id, lsn) for entry in store.documents()}
        order = sorted(expected)
        start = threading.Barrier(4, timeout=60)
        wrong: list[tuple] = []

        def worker(seed: int) -> None:
            for _ in range(rounds):
                if start.wait() == 0:
                    store._entries.clear()  # a fresh race each round
                start.wait()
                ctx = PlanContext(store, store.new_accessor(), use_index=True)
                for doc_id in order[seed:] + order[:seed]:
                    entry = entry_of(ctx, doc_id)
                    if entry != expected[doc_id]:
                        wrong.append((doc_id, entry))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert store._entries == expected


# -- the invariant, under generated write sequences ---------------------------

INGEST, REPLACE, DELETE, FAIL = "ingest", "replace", "delete", "fail"

steps_strategy = st.lists(
    st.tuples(
        st.sampled_from((INGEST, INGEST, REPLACE, REPLACE, DELETE, FAIL)),
        st.integers(min_value=0, max_value=7),
        tree_strategy,
    ),
    min_size=1, max_size=8,
)


def _facts(store, accessor):
    """Every fact about every visible row, by ROWID — a TEXT row's as
    carried and as its document's pass says, an element's governing
    CONTEXT, a section's lifts — and every catalog entry, by doc id, as
    ``entry_at`` reads it at the accessor's LSN."""

    def address(row):
        return None if row is None else row.rowid

    lifts = {}
    for row in store.xml_table.scan():
        if accessor.is_text(row):
            fact = accessor.text_facts([row.rowid]) + accessor.text_facts([row.rowid], False)
        else:
            fact = [address(accessor.governing(row))]
        if accessor.is_context(row):
            fact += [
                tuple(map(address, scope(accessor, row))),
                joined_text(scope(accessor, row)),
                accessor.context_title(row),
            ]
        lifts[row.rowid] = fact
    entries = {
        entry.doc_id: store.entry_at(entry.doc_id, accessor.lsn)
        for entry in store.documents()
    }
    return lifts, entries


class Sequence:
    """One store driven through generated steps, the invariant checked
    after each: facts about surviving rows do not move, addresses and
    doc ids are never handed out twice, and the store's catalog map,
    filled by each check's plans, answers exactly what ``entry_at`` reads
    and holds no deleted document's entry once no pin does."""

    def __init__(self):
        self.store = XmlStore()
        self.names: list[str] = []
        self.loads = 0  # loads attempted: each takes a doc id, kept or not
        self.lifts, self.entries = {}, {}
        self.retired_rowids: set = set()
        self.retired_docs: set = set()
        self.ever: dict = {}  # doc id -> its entry, while it was visible

    def _tail(self):
        return self.store.xml_table.next_rowids(1)[0]

    def apply(self, kind, pick, spec):
        tail = self._tail()
        if kind == INGEST or not self.names:
            self.loads += 1
            self.names.append(f"d{self.loads}.xml")
            result = self.store.store_document(document(spec, self.names[-1]))
            assert result.doc_id == self.loads
        elif kind == REPLACE:
            self.loads += 1
            name = self.names[pick % len(self.names)]
            result = self.store.replace_text(
                serialize(document(spec, name)), name
            )
            assert result.doc_id == self.loads
        elif kind == DELETE:
            name = self.names.pop(pick % len(self.names))
            self.store.delete_document(
                self.store.lookup_by_name(name).doc_id
            )
        else:
            self.loads += 1
            load_rolled_back(self.store, spec)
        self.check(tail)

    def check(self, tail_before):
        store = self.store
        assert self._tail() >= tail_before
        lifts, entries = _facts(store, store.new_accessor())
        for rowid, fact in lifts.items():
            if rowid in self.lifts:
                assert fact == self.lifts[rowid]
            else:  # a new row: beyond every address ever handed out
                assert rowid >= tail_before
                assert rowid not in self.retired_rowids
        for doc_id, entry in entries.items():
            if doc_id in self.entries:
                assert entry == self.entries[doc_id]
            else:
                assert doc_id not in self.retired_docs
        self.retired_rowids |= self.lifts.keys() - lifts.keys()
        self.retired_docs |= self.entries.keys() - entries.keys()
        self.lifts, self.entries = lifts, entries
        self.ever.update(entries)
        with store.snapshot() as pin:
            for snapshot in (None, pin):
                assert _mapped(store, snapshot) == entries
        assert store._entries == {doc_id: self.ever[doc_id] for doc_id in store._entries}
        # No pin is held now: a deleted document's entry has left the map.
        assert store._entries.keys() <= entries.keys()


class TestFactsNeverChange:
    @given(steps_strategy)
    @settings(max_examples=40, deadline=None)
    def test_generated_write_sequences(self, steps):
        sequence = Sequence()
        for step in steps:
            sequence.apply(*step)

    def test_across_block_and_file_boundaries(self):
        """Across what a flat heap has: runs of tombstones (deleted,
        replaced and refused loads) between live documents, and a
        document that ends at the heap's tail."""
        sequence = Sequence()
        for step in (
            (INGEST, 0, WIDE), (INGEST, 0, SMALL), (FAIL, 0, WIDE),
            (REPLACE, 0, SMALL), (DELETE, 1, SMALL), (FAIL, 0, SMALL),
            (INGEST, 0, WIDE), (REPLACE, 1, WIDE),
        ):
            sequence.apply(*step)
        retired = sorted(sequence.retired_rowids)
        assert any(b == a + 1 for a, b in zip(retired, retired[1:]))  # a tombstone run
        table = sequence.store.xml_table
        assert max(rowid for rowid, _ in table._heap.scan()) == sequence._tail() - 1  # noqa: SLF001
        assert sequence.store._entries


class TestWhoMayEditARowInPlace:
    """The invariant's owner: a slot changes only through one statement,
    ``apply_statement`` (behind ``Table.change(pairs)`` and
    ``Database.change(groups)``), the one door every writer takes, and a
    stored row is replaced in place only when its caller hands it both
    rows.  Those calls are counted here: ``apply_statement`` and
    ``change`` (any arguments) and ``update`` (``Table.update`` /
    ``Database.update``; ``dict.update`` takes at most one positional
    argument, these take two and three).  Every ``change`` outside
    ``Table`` and ``Database`` repeats a logged one (redo, the snapshot
    loader) or moves a whole document's rows in or out, never one of
    them in place: only ``repro.ordbms`` and its tests edit a row in
    place, so nothing can falsify an entry of the store's catalog map.  A
    new caller must say how the map stays true, then join this list."""

    CALLERS = {
        # its doors (insert, update, delete; change); the heap
        "ordbms/table.py": {"change": 3, "apply_statement": 1, "update": 1},
        "ordbms/database.py": {"apply_statement": 1, "update": 1},  # its statement; update
        "ordbms/recovery.py": {"change": 1},  # redo
        "ordbms/snapshot.py": {"change": 1},  # dumped rows, loaded
        "store/decompose.py": {"change": 1},  # a new document's rows
        "store/xmlstore.py": {"change": 1},  # a deleted document's rows
    }

    def test_update_callers_are_the_listed_ones(self):
        root = Path(repro.__file__).parent
        found = {}
        for path in sorted(root.rglob("*.py")):
            calls = Counter(
                name
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call)
                and (name := getattr(node.func, "attr", getattr(node.func, "id", None)))
                in ("apply_statement", "change", "update")
                and len(node.args) + len(node.keywords)
                >= (2 if name == "update" else 1)
            )
            if calls:
                found[path.relative_to(root).as_posix()] = dict(calls)
        assert found == self.CALLERS
