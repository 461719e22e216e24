"""The shared pool and the invariant it stands on.

A :class:`~repro.store.liftcache.LiftCache` has no versions and nothing
to invalidate, because stored rows never change: the lift of a row is a
fact about its ROWID, a catalog entry a fact about its doc id, for every
reader that can see the row at all.  So the tests here are about that
invariant — generated ingest / replace / delete / failed-load sequences
under which no fact about a surviving row moves and no address is handed
out twice — and about why every accessor may publish (its view shows a
transaction whole or not at all), besides the pool's own LRU mechanics.
"""

import ast
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import StoreError
from repro.ordbms import storage
from repro.sgml.serializer import serialize
from repro.store import XmlStore
from repro.store.accessor import NodeAccessor
from repro.store.liftcache import MISS, LiftCache
from tests.store.test_decompose_onepass import (
    SMALL,
    WIDE,
    document,
    load_rolled_back,
    tree_strategy,
)


class TestLiftCacheUnit:
    def test_round_trip(self):
        cache = LiftCache()
        cache.put("title", 10, "Budget")
        assert cache.get("title", 10) == "Budget"
        assert cache.get("text", 10) is MISS  # the kind is part of the key
        assert cache.snapshot_counters() == {
            "hits": 1, "misses": 1, "evictions": 0, "entries": 1,
        }

    def test_none_is_a_cacheable_value(self):
        cache = LiftCache()
        cache.put("scope", 5, None)
        assert cache.get("scope", 5) is None
        assert cache.get("scope", 6) is MISS

    def test_eviction_is_lru_and_counted(self):
        cache = LiftCache(capacity=2)
        cache.put("title", 10, "a")
        cache.put("title", 11, "b")
        assert cache.get("title", 10) == "a"  # refresh 10
        cache.put("title", 12, "c")
        assert cache.get("title", 11) is MISS  # 11 evicted
        assert cache.get("title", 10) == "a"
        assert cache.snapshot_counters()["evictions"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(StoreError):
            LiftCache(capacity=0)

    def test_clear_forgets_entries_and_keeps_counting(self):
        cache = LiftCache()
        cache.put("title", 10, "a")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("title", 10) is MISS
        assert cache.snapshot_counters()["misses"] == 1

    def test_sixteen_threads_keep_the_bound_and_the_counters(self):
        """get/put from 16 threads with a tiny switch interval: the pool
        never exceeds its capacity, every get is counted exactly once,
        and a hit returns what was put under that key."""
        cache = LiftCache(capacity=64)
        rounds, keys = 400, 200
        wrong: list[tuple] = []
        oversize: list[int] = []

        def worker(seed: int) -> None:
            for step in range(rounds):
                key = (seed * 7 + step * 13) % keys
                value = cache.get("title", key)
                if value is MISS:
                    cache.put("title", key, f"title-{key}")
                elif value != f"title-{key}":
                    wrong.append((key, value))
                if len(cache) > cache.capacity:
                    oversize.append(len(cache))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong and not oversize
        counters = cache.snapshot_counters()
        assert counters["hits"] + counters["misses"] == 16 * rounds
        assert counters["entries"] == len(cache) <= cache.capacity
        # Every miss was followed by one put; what is not resident was
        # evicted or overwritten by a racing put of the same key.
        assert counters["evictions"] <= counters["misses"] - counters["entries"]


def _context_rows(store, doc_id):
    return [
        row
        for row in store.xml_table.lookup("DOC_ID", doc_id)
        if NodeAccessor.is_context(row)
    ]


def _pooled(store, snapshot=None):
    return store.new_accessor(snapshot, lifts=store.lift_cache)


class TestStoreIntegration:
    def test_second_accessor_reuses_first_accessors_walks(self, loaded_store):
        doc_id = loaded_store.documents()[0].doc_id
        contexts = _context_rows(loaded_store, doc_id)
        first = loaded_store.new_accessor(lifts=loaded_store.lift_cache)
        for row in contexts:
            first.context_title(row)
            first.section_text(row)
        second = loaded_store.new_accessor(lifts=loaded_store.lift_cache)
        titles = [second.context_title(row) for row in contexts]
        assert titles == [first.context_title(row) for row in contexts]
        assert second.stats.shared_hits == len(contexts)
        assert second.stats.shared_misses == 0

    def test_shared_scope_replay_returns_equal_rows(self, loaded_store):
        doc_id = loaded_store.documents()[0].doc_id
        contexts = _context_rows(loaded_store, doc_id)
        first = loaded_store.new_accessor(lifts=loaded_store.lift_cache)
        expected = [
            [row.rowid for row in first.section_scope(ctx)]
            for ctx in contexts
        ]
        second = loaded_store.new_accessor(lifts=loaded_store.lift_cache)
        replayed = [
            [row.rowid for row in second.section_scope(ctx)]
            for ctx in contexts
        ]
        assert replayed == expected

    def test_a_write_keeps_other_documents_warm(self, loaded_store):
        first_doc, second_doc = [
            entry.doc_id for entry in loaded_store.documents()[:2]
        ]
        contexts = _context_rows(loaded_store, first_doc)
        warm = _pooled(loaded_store)
        for row in contexts + _context_rows(loaded_store, second_doc):
            warm.context_title(row)
        resident = len(loaded_store.lift_cache)
        loaded_store.store_text("# Fresh\n\nNew doc.\n", "fresh.md")
        loaded_store.delete_document(second_doc)
        after = _pooled(loaded_store)
        for row in contexts:
            after.context_title(row)
        assert after.stats.shared_hits == len(contexts)
        # The deleted document's entries are unreachable, not dropped:
        # the LRU bound is what reclaims them.
        assert len(loaded_store.lift_cache) == resident

    def test_readers_pinned_either_side_of_a_delete_share_the_pool(
        self, loaded_store
    ):
        """A reader pinned before a delete is answered from entries put
        by a reader pinned after it, and the reverse — both equal to
        what a bare accessor on the same pin computes."""
        kept_doc, doomed_doc = [
            entry.doc_id for entry in loaded_store.documents()[:2]
        ]
        kept = _context_rows(loaded_store, kept_doc)
        doomed = _context_rows(loaded_store, doomed_doc)

        def facts(accessor, rows):
            return [
                (accessor.context_title(row), accessor.section_text(row))
                for row in rows
            ]

        with loaded_store.snapshot() as before:
            loaded_store.delete_document(doomed_doc)
            with loaded_store.snapshot() as after:
                bare = facts(loaded_store.new_accessor(before), kept + doomed)
                # After puts, before reads: the survivors' entries hit,
                # the deleted document's are computed through the pin.
                assert facts(_pooled(loaded_store, after), kept) == bare[:len(kept)]
                early = _pooled(loaded_store, before)
                assert facts(early, kept + doomed) == bare
                assert early.stats.shared_hits == 2 * len(kept)
                # title, text, and the scope the text is joined from
                assert early.stats.shared_misses == 3 * len(doomed)
                # Before put the dead document's entries; a reader after
                # the delete is handed none of its rows, so never asks.
                late = _pooled(loaded_store, after)
                assert facts(late, kept) == bare[:len(kept)]
                assert late.stats.shared_misses == 0
                assert late.lookup_rows("DOC_ID", doomed_doc) == []

    def test_an_accessor_in_a_transaction_publishes(
        self, loaded_store
    ):
        doomed_doc = loaded_store.documents()[1].doc_id
        contexts = _context_rows(loaded_store, doomed_doc)
        bare = loaded_store.new_accessor()
        expected = [bare.section_text(row) for row in contexts]
        database, resident = loaded_store.database, len(loaded_store.lift_cache)
        with pytest.raises(KeyError):
            with database.begin():
                # Half a delete: every other row of the document is gone.
                for row in loaded_store.xml_table.lookup("DOC_ID", doomed_doc)[::2]:
                    database.delete("XML", row.rowid)
                inside = _pooled(loaded_store)
                assert [inside.section_text(row) for row in contexts] == expected
                assert len(loaded_store.lift_cache) > resident
                raise KeyError("abort")
        outside = _pooled(loaded_store)
        assert [outside.section_text(row) for row in contexts] == expected
        assert outside.stats.shared_hits == len(contexts)


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
    CONTEXT, a section's lifts — and every catalog entry, by doc id,
    computed through ``accessor``."""

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
                tuple(map(address, accessor.section_scope(row))),
                accessor.section_text(row),
                accessor.context_title(row),
            ]
        lifts[row.rowid] = fact
    entries = {
        entry.doc_id: accessor.memoized(
            "entry", entry.doc_id, store.entry_at, entry.doc_id, accessor.lsn
        )
        for entry in store.documents()
    }
    return lifts, entries


class Sequence:
    """One store driven through generated steps, the invariant checked
    after each: facts about surviving rows do not move, addresses and
    doc ids are never handed out twice, and one pool shared by every
    step's accessor answers exactly what a bare accessor computes."""

    def __init__(self):
        self.store = XmlStore()
        self.names: list[str] = []
        self.loads = 0  # loads attempted: each takes a doc id, kept or not
        self.lifts, self.entries = {}, {}
        self.retired_rowids: set = set()
        self.retired_docs: set = set()

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
        with store.snapshot() as pin:
            for snapshot in (None, pin):
                assert _facts(store, _pooled(store, snapshot)) == (
                    lifts, entries,
                )


class TestFactsNeverChange:
    @given(steps_strategy)
    @settings(max_examples=40, deadline=None)
    def test_generated_write_sequences(self, steps):
        sequence = Sequence()
        for step in steps:
            sequence.apply(*step)

    def test_across_block_and_file_boundaries(self, monkeypatch):
        monkeypatch.setattr(storage, "BLOCK_CAPACITY", 4)
        monkeypatch.setattr(storage, "FILE_CAPACITY", 2)
        sequence = Sequence()
        for step in (
            (INGEST, 0, WIDE), (INGEST, 0, SMALL), (FAIL, 0, WIDE),
            (REPLACE, 0, SMALL), (DELETE, 1, SMALL), (FAIL, 0, SMALL),
            (INGEST, 0, WIDE), (REPLACE, 1, WIDE),
        ):
            sequence.apply(*step)
        files = {rowid.file_no for rowid in sequence.retired_rowids}
        assert len(files) > 1  # the retired addresses span heap files
        assert len(sequence.store.lift_cache) > 0


class TestWhoMayEditARowInPlace:
    """The invariant's owner: a slot changes only through ``Table.change``,
    the one door every writer takes, and a stored row is replaced in
    place only when its caller hands it both rows.  Those calls are
    counted here: ``change`` (two or three arguments) and ``update``
    (``Table.update`` / ``Database.update``; ``dict.update`` takes at most
    one positional argument, these take two and three).  Every ``change``
    outside ``Table`` takes a change back (rollback) or repeats a logged
    one (redo and undo, the snapshot loader); the only in-place edit
    asked for outside ``repro.ordbms`` is ``fsck --repair`` — after which
    the facade clears the pool.  A new caller must say how pooled lifts
    stay true, then join this list."""

    CALLERS = {
        "ordbms/table.py": {"change": 3, "update": 1},  # its doors; the heap
        "ordbms/database.py": {"update": 1},  # Database.update
        "ordbms/transaction.py": {"change": 1},  # rollback: reversed
        "ordbms/recovery.py": {"change": 1},  # redo and undo
        "ordbms/snapshot.py": {"change": 1},  # a dumped row, loaded
        "store/fsck.py": {"update": 2},  # PARENTNODEID and SIBLINGID repair
    }

    def test_update_callers_are_the_listed_ones(self):
        root = Path(repro.__file__).parent
        found = {}
        for path in sorted(root.rglob("*.py")):
            calls = Counter(
                node.func.attr
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("change", "update")
                and len(node.args) + len(node.keywords) >= 2
            )
            if calls:
                found[path.relative_to(root).as_posix()] = dict(calls)
        assert found == self.CALLERS
