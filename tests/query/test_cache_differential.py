"""Cache-correctness differential gate (the PR 10 CI satellite).

One store, two engines: a cache-enabled engine (result cache + shared
lift pool) and a bare baseline engine.  A seeded pseudo-random schedule
interleaves queries with ingests, replacements and deletions; after
every query both engines' rendered XML must be **byte-identical**.  Any
divergence means the cache served across a write, replayed the wrong
presentation, or pooled a fact about a stored row that was not
immutable after all — exactly the failure classes the gate exists to
catch.

``benchmarks/bench_cache_differential.py`` runs the same discipline at
artifact scale; this module is the fast tier-1 version.
"""

import random

import pytest

from repro.query.cache import QueryCache
from repro.query.engine import QueryEngine
from repro.sgml.serializer import serialize
from repro.store import XmlStore
from repro.workloads import CorpusSpec, generate_corpus

QUERIES = [
    "Context=Budget",
    "Context=Technology Gap",
    "Content=relay",
    "Content=relay marker",
    "Content=relay,milestones",
    "Context=Budget&Content=relay",
    "Context=Budget&limit=3",
    "Context=Risk Assessment&Content=schedule",
    "Context=Budget&Doc=doc-00",
    "Context=Budget&Format=md",
    "Context=Budget&Cache=0",
    # Full and ROWID-ordered: replayed across writes that leave the
    # sections they list visible.
    "Context=Budget&Content=relay&limit=2",
    "Context=Technology Gap&limit=2",
]

#: Queries whose filters and resolvers ask for catalog entries (the
#: pool's kind ``"entry"``) beyond the one per match ``Materialize`` asks.
CATALOG_QUERIES = [
    "Content=relay&Format=markdown",
    "Content=orbit&Format=pdf",
    "Context=Technology Gap&Doc=doc-00",
    "Content=relay&Doc=doc-000",
    "Nodename=context&Content=technology",
    "Nodename=content&Content=relay&limit=5",
    "Nodename=document&limit=4",
]

STEPS = 70
WRITE_EVERY = 0.2  # probability a step mutates instead of querying


def _xml(result) -> str:
    return serialize(result.to_xml(), indent=2)


class Harness:
    """One store, two engines, one seeded schedule."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.store = XmlStore()
        self.cached = QueryEngine(self.store, cache=QueryCache())
        self.baseline = QueryEngine(self.store)
        files = generate_corpus(
            CorpusSpec(documents=18, seed=seed, planted_term="relay")
        )
        self.pending = list(files[6:])
        self.loaded: list = []
        for file in files[:6]:
            self.store.store_text(file.text, file.name)
            self.loaded.append(file)

    def mutate(self) -> str:
        choice = self.rng.random()
        if choice < 0.5 and self.pending:
            file = self.pending.pop(0)
            self.store.store_text(file.text, file.name)
            self.loaded.append(file)
            return f"ingest {file.name}"
        if choice < 0.8 and self.loaded:
            return self.replace()
        if len(self.loaded) > 2:
            file = self.loaded.pop(self.rng.randrange(len(self.loaded)))
            entry = self.store.lookup_by_name(file.name)
            self.store.delete_document(entry.doc_id)
            return f"delete {file.name}"
        return "noop"

    def replace(self) -> str:
        file = self.rng.choice(self.loaded)
        # Markdown can be amended textually; other formats are
        # re-stored verbatim — still a full node rewrite under a new
        # doc id + revision bump, which is what the caches care about.
        text = file.text
        if file.name.endswith(".md"):
            text += "\nAmended relay budget paragraph.\n"
        self.store.replace_text(text, file.name)
        return f"replace {file.name}"

    def compare(self, query: str, snapshot=None) -> str:
        got = _xml(self.cached.execute(query, snapshot=snapshot))
        want = _xml(self.baseline.execute(query, snapshot=snapshot))
        assert got == want, f"cache diverged on {query!r}"
        return got

    def step(self) -> None:
        if self.rng.random() < WRITE_EVERY:
            self.mutate()
            return
        self.compare(self.rng.choice(QUERIES))


class TestCacheDifferential:
    @pytest.mark.parametrize("seed", [7, 2005, 1040])
    def test_interleaved_schedule_is_byte_identical(self, seed):
        harness = Harness(seed)
        for _ in range(STEPS):
            harness.step()
        counters = harness.cached.cache.snapshot_counters()
        # Guard against a vacuous run: the schedule must both replay
        # from cache and invalidate it.
        assert counters["hits"] > 0
        assert counters["misses"] > counters["hits"] // 10

    def test_snapshot_readers_join_the_schedule(self):
        """Pinned replays stay identical to pinned recomputation even as
        the live store churns."""
        harness = Harness(99)
        with harness.store.snapshot() as snap:
            before = [
                _xml(harness.cached.execute(query, snapshot=snap))
                for query in QUERIES[:5]
            ]
            for _ in range(10):
                harness.mutate()
            for query, expected in zip(QUERIES[:5], before):
                replay = harness.cached.execute(query, snapshot=snap)
                recompute = harness.baseline.execute(query, snapshot=snap)
                assert _xml(replay) == expected
                assert _xml(recompute) == expected

    def test_replace_heavy_schedule_over_catalog_queries(self):
        """One replace per two queries: the pool keeps serving lifts and
        catalog entries of documents that were just superseded."""
        harness = Harness(31)
        for _ in range(20):
            for _ in range(2):
                harness.compare(harness.rng.choice(QUERIES + CATALOG_QUERIES))
            harness.replace()
        assert harness.cached.cache.snapshot_counters()["hits"] > 0
        assert harness.store.lift_cache.snapshot_counters()["hits"] > 0

    def test_a_pin_held_across_writes_is_requeried_through_both_engines(self):
        """Readers on newer pins put into the pool the held pin reads
        (and replace its result entries): recomputed, then replayed, the
        held pin's answers are the ones from before the writes."""
        harness = Harness(57)
        queries = QUERIES + CATALOG_QUERIES
        with harness.store.snapshot() as pin:
            before = [harness.compare(query, pin) for query in queries]
            for _ in range(4):
                assert harness.mutate() != "noop"
                with harness.store.snapshot() as newer:
                    for query in queries:
                        harness.compare(query, newer)
            hits = harness.cached.cache.snapshot_counters()["hits"]
            for _ in range(2):
                after = [harness.compare(query, pin) for query in queries]
                assert after == before
            assert harness.cached.cache.snapshot_counters()["hits"] > hits

    def test_shared_lifts_never_change_answers(self):
        """Even with the result cache defeated (Cache=0 per request) the
        shared lift pool alone must be invisible in the output."""
        harness = Harness(123)
        for _ in range(20):
            harness.mutate()
        for query in QUERIES + CATALOG_QUERIES:
            opted_out = (
                query if "Cache=0" in query else f"{query}&Cache=0"
            )
            got = _xml(harness.cached.execute(opted_out))
            want = _xml(harness.baseline.execute(opted_out))
            assert got == want
