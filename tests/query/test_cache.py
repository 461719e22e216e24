"""The commit-LSN-keyed result cache: hits, invalidation, and races.

The cache's one contract is *byte identity*: a cached answer must render
exactly as the uncached run would, and no reader — live or pinned — may
ever be served an answer from a store state it cannot see.
"""

import threading

import pytest

from repro import obs
from repro.errors import QueryError
from repro.query.cache import QueryCache
from repro.query.engine import QueryEngine
from repro.query.language import format_query, parse_query
from repro.sgml.serializer import serialize

QUERY = "Context=Budget"
NEW_BUDGET_DOC = "# Late Filing\n\n## Budget\n\nEmergency budget line.\n"


def _xml(result) -> str:
    return serialize(result.to_xml(), indent=2)


@pytest.fixture
def engine(loaded_store) -> QueryEngine:
    return QueryEngine(loaded_store, cache=QueryCache())


class TestHitPath:
    def test_second_run_is_cached_and_byte_identical(self, engine):
        first = engine.execute(QUERY)
        second = engine.execute(QUERY)
        assert not first.cached
        assert second.cached
        assert _xml(second) == _xml(first)
        counters = engine.cache.snapshot_counters()
        assert counters["hits"] == 1 and counters["misses"] == 1

    def test_cached_flag_never_renders(self, engine):
        engine.execute(QUERY)
        cached = engine.execute(QUERY)
        assert cached.cached
        assert "cached" not in _xml(cached)

    def test_limit_is_part_of_the_key(self, engine):
        full = engine.execute(QUERY)
        limited = engine.execute(f"{QUERY}&limit=1")
        assert not limited.cached  # different key, not a truncated replay
        assert len(limited) == 1 and len(full) >= 1

    def test_cache_0_opts_out_both_ways(self, engine):
        engine.execute(QUERY)  # warm
        bypassed = engine.execute(f"{QUERY}&Cache=0")
        assert not bypassed.cached
        # ... and the bypassing run stored nothing new either.
        counters = engine.cache.snapshot_counters()
        assert counters["hits"] == 0
        uncached = QueryEngine(engine.store).execute(f"{QUERY}&Cache=0")
        assert _xml(bypassed) == _xml(uncached)

    def test_explain_queries_bypass_the_cache(self, engine):
        engine.execute(QUERY)  # warm
        engine.explain(parse_query(f"{QUERY}&Explain=1"))
        assert engine.cache.snapshot_counters()["hits"] == 0

    def test_deadline_queries_bypass_the_cache(self, engine):
        engine.execute(QUERY)  # warm
        bounded = engine.execute(parse_query(f"{QUERY}&Deadline=100"))
        assert not bounded.cached
        assert engine.cache.snapshot_counters()["hits"] == 0

    def test_metrics_published_for_hits_and_misses(self, loaded_store):
        previous = obs.push_registry()
        try:
            engine = QueryEngine(loaded_store, cache=QueryCache())
            engine.execute(QUERY)
            engine.execute(QUERY)
            registry = obs.get_registry()
            hits = registry.get("repro_cache_hits_total")
            misses = registry.get("repro_cache_misses_total")
            assert hits is not None and misses is not None
            assert dict(hits.series())['{cache="result"}'] == 1
            assert dict(misses.series())['{cache="result"}'] == 1
        finally:
            obs.set_registry(previous)


class TestInvalidation:
    def test_ingest_invalidates_exactly(self, engine, loaded_store):
        before = engine.execute(QUERY)
        loaded_store.store_text(NEW_BUDGET_DOC, "late.md")
        after = engine.execute(QUERY)
        assert not after.cached  # the LSN moved, the key with it
        assert len(after) == len(before) + 1
        assert "late.md" in after.documents()

    def test_replace_invalidates(self, engine, loaded_store):
        engine.execute(QUERY)
        loaded_store.replace_text(
            "# Overview\n\n## Budget\n\nRewritten dollars.\n", "notes.md"
        )
        fresh = engine.execute(QUERY)
        assert not fresh.cached
        assert any(
            "Rewritten dollars." in match.content for match in fresh.matches
        )

    def test_delete_invalidates(self, engine, loaded_store):
        engine.execute(QUERY)
        doomed = loaded_store.lookup_by_name("notes.md")
        loaded_store.delete_document(doomed.doc_id)
        fresh = engine.execute(QUERY)
        assert not fresh.cached
        assert "notes.md" not in fresh.documents()

    def test_pinned_reader_replays_its_own_lsn(self, engine, loaded_store):
        with loaded_store.snapshot() as snap:
            first = engine.execute(QUERY, snapshot=snap)
            loaded_store.store_text(NEW_BUDGET_DOC, "late.md")
            replay = engine.execute(QUERY, snapshot=snap)
            # Same pin, same LSN key: a hit, and byte-identical to the
            # pinned view — the write is invisible either way.
            assert replay.cached
            assert _xml(replay) == _xml(first)
            assert "late.md" not in replay.documents()

    def test_fresh_pin_after_a_write_misses(self, engine, loaded_store):
        with loaded_store.snapshot() as old_snap:
            engine.execute(QUERY, snapshot=old_snap)
        loaded_store.store_text(NEW_BUDGET_DOC, "late.md")
        with loaded_store.snapshot() as new_snap:
            fresh = engine.execute(QUERY, snapshot=new_snap)
        assert not fresh.cached  # new LSN, new key — never the old entry
        assert "late.md" in fresh.documents()

    def test_live_and_pinned_reads_share_one_stamp(self, engine, loaded_store):
        """The stamp is the commit LSN whether the read was live or
        pinned, so the two replay each other while nothing commits."""
        live = engine.execute(QUERY)
        with loaded_store.snapshot() as snap:
            pinned = engine.execute(QUERY, snapshot=snap)
        assert pinned.cached and _xml(pinned) == _xml(live)

    def test_a_store_purges_every_entry_stamped_below_it(
        self, engine, loaded_store
    ):
        """Pinned entries are swept like live ones, not stranded to LRU."""
        with loaded_store.snapshot() as old_snap:
            engine.execute(QUERY, snapshot=old_snap)
            engine.execute("Content=shuttle")
            assert engine.cache.snapshot_counters()["entries"] == 2
            loaded_store.store_text(NEW_BUDGET_DOC, "late.md")
            with loaded_store.snapshot() as new_snap:
                engine.execute(QUERY, snapshot=new_snap)
            counters = engine.cache.snapshot_counters()
            assert counters["entries"] == 1 and counters["evictions"] == 0
            # The older reader recomputes, correctly, and sweeps nothing
            # stamped above its own LSN.
            again = engine.execute(QUERY, snapshot=old_snap)
            assert not again.cached and "late.md" not in again.documents()
            assert engine.cache.snapshot_counters()["entries"] == 2


class TestBounds:
    def test_entry_capacity_evicts_lru(self, loaded_store):
        engine = QueryEngine(loaded_store, cache=QueryCache(capacity=2))
        for query in (QUERY, "Content=shuttle", "Context=Travel"):
            engine.execute(query)
        counters = engine.cache.snapshot_counters()
        assert counters["entries"] <= 2
        assert counters["evictions"] >= 1
        assert not engine.execute(QUERY).cached  # the LRU victim

    def test_byte_bound_evicts(self, loaded_store):
        engine = QueryEngine(loaded_store, cache=QueryCache(max_bytes=1))
        engine.execute(QUERY)
        engine.execute("Content=shuttle")
        counters = engine.cache.snapshot_counters()
        assert counters["entries"] == 1  # at least one entry always kept
        assert counters["evictions"] >= 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(QueryError):
            QueryCache(capacity=0)


class TestLanguageKnob:
    def test_cache_0_parses_and_round_trips(self):
        query = parse_query("Context=Budget&Cache=0")
        assert query.cache is False
        assert "Cache=0" in format_query(query)
        assert parse_query(format_query(query)) == query

    def test_cache_defaults_on_and_stays_out_of_the_string(self):
        query = parse_query("Context=Budget")
        assert query.cache is True
        assert "Cache" not in format_query(query)

    @pytest.mark.parametrize("value", ["0", "false", "no", "off"])
    def test_falsey_spellings(self, value):
        assert parse_query(f"Context=Budget&Cache={value}").cache is False

    def test_truthy_spelling(self):
        assert parse_query("Context=Budget&Cache=1").cache is True


class TestConcurrency:
    def test_concurrent_readers_agree_bytewise(self, engine):
        expected = _xml(engine.execute(QUERY))
        observed: list[str] = []
        errors: list[BaseException] = []

        def reader():
            try:
                observed.append(_xml(engine.execute(QUERY)))
            except BaseException as exc:  # pragma: no cover - fail fast
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert observed == [expected] * 8
        counters = engine.cache.snapshot_counters()
        assert counters["hits"] >= 1

    def test_racing_writer_never_leaves_stale_entries(
        self, engine, loaded_store
    ):
        """Readers race one ingest; afterwards the cached path must agree
        with an uncached engine byte-for-byte (no stale entry survived)."""
        errors: list[BaseException] = []

        def reader():
            try:
                for _ in range(5):
                    engine.execute(QUERY)
            except BaseException as exc:  # pragma: no cover - fail fast
                errors.append(exc)

        def writer():
            try:
                loaded_store.store_text(NEW_BUDGET_DOC, "late.md")
            except BaseException as exc:  # pragma: no cover - fail fast
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        settled = engine.execute(QUERY)
        uncached = QueryEngine(loaded_store).execute(QUERY)
        assert _xml(settled) == _xml(uncached)
        assert "late.md" in settled.documents()
