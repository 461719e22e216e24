"""The result cache: hits, entries that outlive writes, interning, races.

The cache's one contract is *byte identity*: a cached answer must render
exactly as the uncached run would, and no reader — live or pinned — may
ever be served an answer from a store state it cannot see.
"""

import sys
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
        assert not after.cached  # no limit: expires on any commit
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
            # Same pin, the entry's own LSN: a hit, byte-identical to the
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
        assert not fresh.cached  # new LSN, unlimited: never the old entry
        assert "late.md" in fresh.documents()

    def test_live_and_pinned_reads_share_one_stamp(self, engine, loaded_store):
        """The stamp is the commit LSN whether the read was live or
        pinned, so the two replay each other while nothing commits."""
        live = engine.execute(QUERY)
        with loaded_store.snapshot() as snap:
            pinned = engine.execute(QUERY, snapshot=snap)
        assert pinned.cached and _xml(pinned) == _xml(live)


#: Full and ROWID-ordered: combined, limit 2, three Budget sections to
#: choose from (report1.ndoc and notes.md are listed, page.html is not).
FULL = "Context=Budget&Content=budget&limit=2"


def _bare(store, query, snapshot=None) -> str:
    return _xml(QueryEngine(store).execute(query, snapshot=snapshot))


class TestEntriesOutliveUnrelatedWrites:
    """A full, ROWID-ordered answer is served across commits while the
    sections it lists, or the spares after them, still fill its limit;
    everything else misses after a write."""

    def test_a_full_entry_survives_an_ingest_it_does_not_list(
        self, engine, loaded_store
    ):
        first = engine.execute(FULL)
        loaded_store.store_text(NEW_BUDGET_DOC, "late.md")
        again = engine.execute(FULL)
        assert again.cached and _xml(again) == _xml(first)
        assert _xml(again) == _bare(loaded_store, FULL)

    def test_a_full_entry_survives_replacing_a_document_it_does_not_list(
        self, engine, loaded_store
    ):
        engine.execute(FULL)
        loaded_store.replace_text(
            "<html><body><h2>Budget</h2><p>New budget.</p></body></html>",
            "page.html",
        )
        again = engine.execute(FULL)
        assert again.cached and _xml(again) == _bare(loaded_store, FULL)
        assert again.documents() == ["report1.ndoc", "notes.md"]

    def test_replacing_a_listed_document_refills_from_the_spares(
        self, engine, loaded_store
    ):
        engine.execute(FULL)  # lists report1.ndoc, notes.md; page.html is spare
        loaded_store.replace_text(
            "# Overview\n\n## Budget\n\nRewritten budget.\n", "notes.md"
        )
        refilled = engine.execute(FULL)
        assert refilled.cached and _xml(refilled) == _bare(loaded_store, FULL)
        assert refilled.documents() == ["report1.ndoc", "page.html"]
        again = engine.execute(FULL)  # the refill replaced the entry
        assert again.cached and _xml(again) == _xml(refilled)

    def test_deleting_a_listed_document_refills_from_the_spares(
        self, engine, loaded_store
    ):
        engine.execute(FULL)
        loaded_store.delete_document(loaded_store.lookup_by_name("report1.ndoc").doc_id)
        refilled = engine.execute(FULL)
        assert refilled.cached and _xml(refilled) == _bare(loaded_store, FULL)
        assert refilled.documents() == ["notes.md", "page.html"]

    def test_a_refill_keeps_only_the_spares_after_its_last_match(
        self, engine, loaded_store
    ):
        engine.execute(FULL)
        loaded_store.replace_text(
            "# Overview\n\n## Budget\n\nRewritten budget.\n", "notes.md"
        )
        assert engine.execute(FULL).cached  # page.html promoted: no spare left
        loaded_store.delete_document(loaded_store.lookup_by_name("report1.ndoc").doc_id)
        fresh = engine.execute(FULL)
        assert not fresh.cached and _xml(fresh) == _bare(loaded_store, FULL)
        assert fresh.documents() == ["page.html", "notes.md"]

    def test_a_shortfall_the_spares_cannot_fill_misses(self, engine, loaded_store):
        engine.execute(FULL)
        loaded_store.delete_document(loaded_store.lookup_by_name("page.html").doc_id)
        loaded_store.replace_text(
            "# Overview\n\n## Budget\n\nRewritten budget.\n", "notes.md"
        )
        fresh = engine.execute(FULL)
        assert not fresh.cached and _xml(fresh) == _bare(loaded_store, FULL)
        assert fresh.documents() == ["report1.ndoc", "notes.md"]

    def test_a_spare_must_pass_the_content_test(self, store):
        """A spare is a candidate, not a match: ``b.md`` has both words of
        the phrase but not side by side, so it cannot refill the entry."""
        for name, body in (("a", "Shuttle engine work."), ("b", "Work on the engine."),
                           ("c", "More engine work.")):
            store.store_text(f"# {name}\n\n## Budget\n\n{body}\n", f"{name}.md")
        engine = QueryEngine(store, cache=QueryCache())
        query = 'Context=Budget&Content="engine work"&limit=1'
        assert engine.execute(query).documents() == ["a.md"]
        store.delete_document(store.lookup_by_name("a.md").doc_id)
        fresh = engine.execute(query)
        assert not fresh.cached and fresh.documents() == ["c.md"]
        assert _xml(fresh) == _bare(store, query)

    @pytest.mark.parametrize("query", [
        "Context=Budget&limit=5",  # unsaturated: three of five
        "Context=Budget",  # no limit
        "Content=travel&limit=2",  # score-ranked
    ])
    def test_other_entries_miss_after_any_commit(
        self, engine, loaded_store, query
    ):
        engine.execute(query)
        loaded_store.store_text("# Elsewhere\n\nNothing here.\n", "other.md")
        fresh = engine.execute(query)
        assert not fresh.cached and _xml(fresh) == _bare(loaded_store, query)

    def test_a_reader_pinned_below_the_stamp_misses(self, engine, loaded_store):
        with loaded_store.snapshot() as old_snap:
            loaded_store.replace_text(
                "# Overview\n\n## Budget\n\nRewritten budget.\n", "notes.md"
            )
            engine.execute(FULL)  # stamped after the replace
            again = engine.execute(FULL, snapshot=old_snap)
            assert not again.cached
            assert _xml(again) == _bare(loaded_store, FULL, old_snap)
            # The older store replaced the entry: notes.md is gone at the
            # live LSN, and the spare page.html takes its place.
            live = engine.execute(FULL)
            assert live.cached and _xml(live) == _bare(loaded_store, FULL)


class TestInterning:
    """Entries that list one section at one score hold one match."""

    @staticmethod
    def held(engine, query):
        """The matches ``query``'s entry holds (a hit hands them out)."""
        engine.execute(query)
        replay = engine.execute(query)
        assert replay.cached
        return replay.matches

    def test_two_entries_share_a_listed_section(self, engine):
        one = self.held(engine, "Context=Budget&limit=1")
        two = self.held(engine, "Context=Budget&limit=2")
        dollars = self.held(engine, "Content=dollars")  # notes.md at 1.0
        assert one[0] is two[0]
        assert dollars[0] is two[1]

    def test_an_eviction_releases_the_shared_match(self, loaded_store):
        engine = QueryEngine(loaded_store, cache=QueryCache(capacity=1))
        first = self.held(engine, "Context=Budget&limit=1")[0]
        self.held(engine, "Context=Travel")  # evicts the only holder
        assert self.held(engine, "Context=Budget&limit=2")[0] is not first
        assert engine.cache.snapshot_counters()["evictions"] == 2

    def test_one_section_at_two_scores_is_not_shared(self, engine):
        emphasised = self.held(engine, "Content=equipment")[0]  # 1.5
        plain = self.held(engine, "Content=dollars")[0]  # 1.0
        assert emphasised.rowid == plain.rowid
        assert emphasised.score != plain.score and emphasised is not plain


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

    def test_cached_readers_under_a_replacing_writer_see_their_pin(
        self, engine, loaded_store
    ):
        """Eight cached readers, each on its own pin, and one writer
        replacing a listed and an unlisted document in turn: every answer
        equals a bare engine's at the reader's pin."""
        queries = [FULL, "Context=Budget&limit=1", "Context=Travel&limit=1", QUERY]
        bare = QueryEngine(loaded_store)
        wrong: list[str] = []
        errors: list[BaseException] = []
        start = threading.Barrier(9)

        def reader(offset: int) -> None:
            try:
                start.wait(timeout=60)
                for number in range(40):
                    query = queries[(offset + number) % len(queries)]
                    with loaded_store.snapshot() as snap:
                        got = _xml(engine.execute(query, snapshot=snap))
                        if got != _xml(bare.execute(query, snapshot=snap)):
                            wrong.append(query)
            except BaseException as exc:  # pragma: no cover - fail fast
                errors.append(exc)

        def writer() -> None:
            try:
                start.wait(timeout=60)
                for number in range(12):
                    if number % 2:
                        text = f"Item,FY04\nRound {number},1\n"
                        loaded_store.replace_text(text, "budget.csv")
                    else:
                        text = f"# Overview\n\n## Budget\n\nRound {number} budget.\n"
                        loaded_store.replace_text(text, "notes.md")
            except BaseException as exc:  # pragma: no cover - fail fast
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(n,)) for n in range(8)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and wrong == []
        assert engine.cache.snapshot_counters()["hits"] >= 1
