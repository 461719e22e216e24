"""The shared lift pool: admission, invalidation, and accessor sharing.

The :class:`~repro.store.liftcache.LiftCache` is cross-query shared
mutable state under the worker pool, so the tests here are mostly about
what it must *refuse* to do: serve across a write, admit a stale
computation, or let a pinned reader see the future.
"""

import pytest

from repro.errors import StoreError
from repro.ordbms.table import ROWID_PSEUDO
from repro.store.accessor import NodeAccessor
from repro.store.liftcache import MISS, LiftCache
from repro.store.schema import XML_TABLE


class TestLiftCacheUnit:
    def test_round_trip_with_current_token(self):
        cache = LiftCache(generation=3, lsn=7)
        cache.put(1, "title", 10, "Budget", ("gen", 3))
        assert cache.get(1, "title", 10, ("gen", 3)) == "Budget"
        assert cache.get(1, "title", 10, ("lsn", 7)) == "Budget"

    def test_none_is_a_cacheable_value(self):
        cache = LiftCache(generation=1, lsn=1)
        cache.put(1, "governing", 5, None, ("gen", 1))
        assert cache.get(1, "governing", 5, ("gen", 1)) is None
        assert cache.get(1, "governing", 6, ("gen", 1)) is MISS

    def test_stale_token_reads_miss(self):
        cache = LiftCache(generation=3, lsn=7)
        cache.put(1, "title", 10, "Budget", ("gen", 3))
        assert cache.get(1, "title", 10, ("gen", 2)) is MISS
        assert cache.get(1, "title", 10, ("lsn", 6)) is MISS

    def test_stale_put_is_rejected_not_admitted(self):
        """The TOCTOU race: a lift computed before a write commits must
        not enter the pool after it."""
        cache = LiftCache(generation=3, lsn=7)
        cache.note_write(4, 8, doc_id=99)
        cache.put(1, "title", 10, "Budget", ("gen", 3))
        assert cache.get(1, "title", 10, ("gen", 4)) is MISS
        assert cache.snapshot_counters()["rejected_puts"] == 1

    def test_note_write_drops_only_that_document(self):
        cache = LiftCache(generation=1, lsn=1)
        cache.put(1, "title", 10, "Budget", ("gen", 1))
        cache.put(2, "title", 20, "Travel", ("gen", 1))
        cache.note_write(2, 2, doc_id=1)
        assert cache.get(1, "title", 10, ("gen", 2)) is MISS
        assert cache.get(2, "title", 20, ("gen", 2)) == "Travel"

    def test_observe_matching_generation_is_a_no_op(self):
        cache = LiftCache(generation=5, lsn=9)
        cache.put(1, "title", 10, "Budget", ("gen", 5))
        cache.observe(5, 9)
        assert cache.get(1, "title", 10, ("gen", 5)) == "Budget"

    def test_observe_unannounced_write_clears_everything(self):
        cache = LiftCache(generation=5, lsn=9)
        cache.put(1, "title", 10, "Budget", ("gen", 5))
        cache.put(2, "title", 20, "Travel", ("gen", 5))
        cache.observe(6, 10)
        assert len(cache) == 0
        assert cache.get(2, "title", 20, ("gen", 6)) is MISS

    def test_eviction_is_lru_and_counted(self):
        cache = LiftCache(generation=1, lsn=1, capacity=2)
        cache.put(1, "title", 10, "a", ("gen", 1))
        cache.put(1, "title", 11, "b", ("gen", 1))
        assert cache.get(1, "title", 10, ("gen", 1)) == "a"  # refresh 10
        cache.put(1, "title", 12, "c", ("gen", 1))
        assert cache.get(1, "title", 11, ("gen", 1)) is MISS  # 11 evicted
        assert cache.get(1, "title", 10, ("gen", 1)) == "a"
        assert cache.snapshot_counters()["evictions"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(StoreError):
            LiftCache(capacity=0)


def _context_rows(store, doc_id):
    return [
        row
        for row in store.xml_table.lookup("DOC_ID", doc_id)
        if NodeAccessor.is_context(row)
    ]


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
            [row[ROWID_PSEUDO] for row in first.section_scope(ctx)]
            for ctx in contexts
        ]
        second = loaded_store.new_accessor(lifts=loaded_store.lift_cache)
        replayed = [
            [row[ROWID_PSEUDO] for row in second.section_scope(ctx)]
            for ctx in contexts
        ]
        assert replayed == expected

    def test_announced_write_keeps_other_documents_warm(self, loaded_store):
        doc_id = loaded_store.documents()[0].doc_id
        contexts = _context_rows(loaded_store, doc_id)
        warm = loaded_store.new_accessor(lifts=loaded_store.lift_cache)
        for row in contexts:
            warm.context_title(row)
        # A store-announced ingest invalidates only the new document.
        loaded_store.store_text("# Fresh\n\nNew doc.\n", "fresh.md")
        after = loaded_store.new_accessor(lifts=loaded_store.lift_cache)
        for row in contexts:
            after.context_title(row)
        assert after.stats.shared_hits == len(contexts)

    def test_delete_drops_the_deleted_documents_entries(self, loaded_store):
        docs = loaded_store.documents()
        first_doc, second_doc = docs[0].doc_id, docs[1].doc_id
        warm = loaded_store.new_accessor(lifts=loaded_store.lift_cache)
        kept = _context_rows(loaded_store, first_doc)
        dropped = _context_rows(loaded_store, second_doc)
        for row in kept + dropped:
            warm.context_title(row)
        loaded_store.delete_document(second_doc)
        after = loaded_store.new_accessor(lifts=loaded_store.lift_cache)
        for row in kept:
            after.context_title(row)
        assert after.stats.shared_hits == len(kept)
        token = ("gen", loaded_store.xml_table.generation)
        for row in dropped:
            assert (
                loaded_store.lift_cache.get(
                    second_doc, "title", row[ROWID_PSEUDO], token
                )
                is MISS
            )

    def test_unannounced_write_trips_the_full_clear(self, loaded_store):
        doc_id = loaded_store.documents()[0].doc_id
        contexts = _context_rows(loaded_store, doc_id)
        accessor = loaded_store.new_accessor(lifts=loaded_store.lift_cache)
        for row in contexts:
            accessor.context_title(row)
        assert len(loaded_store.lift_cache) > 0
        # Delete a node row directly, bypassing the store facade (the
        # shape of a WAL apply on a follower): no note_write fires.
        victim = loaded_store.xml_table.lookup("DOC_ID", doc_id)[-1]
        with loaded_store.database.begin():
            loaded_store.database.delete(XML_TABLE, victim[ROWID_PSEUDO])
        # The long-lived accessor's generation guard notices and makes
        # the pool catch up the safe way: wholesale.
        accessor.node(contexts[0][ROWID_PSEUDO])
        assert len(loaded_store.lift_cache) == 0

    def test_pinned_reader_stops_matching_after_a_commit(self, loaded_store):
        doc_id = loaded_store.documents()[0].doc_id
        contexts = _context_rows(loaded_store, doc_id)
        with loaded_store.snapshot() as snap:
            pinned = loaded_store.new_accessor(
                snapshot=snap, lifts=loaded_store.lift_cache
            )
            for row in contexts:
                pinned.context_title(row)
            assert pinned.stats.shared_misses == len(contexts)
            loaded_store.store_text("# Fresh\n\nNew doc.\n", "fresh.md")
            # The pool's LSN moved past the pin: the pinned reader can
            # neither read newer entries nor publish its own.
            before = loaded_store.lift_cache.snapshot_counters()
            pinned_again = loaded_store.new_accessor(
                snapshot=snap, lifts=loaded_store.lift_cache
            )
            for row in contexts:
                pinned_again.context_title(row)
            after = loaded_store.lift_cache.snapshot_counters()
            assert pinned_again.stats.shared_hits == 0
            assert after["rejected_puts"] >= before["rejected_puts"] + len(
                contexts
            )
