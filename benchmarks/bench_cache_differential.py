"""Cache-correctness differential drill (the PR 10 CI gate artifact).

One store, two engines — cache-enabled and bare — driven through seeded
schedules of queries, ingests, replacements and deletions.  Every
query's rendered XML must be **byte-identical** across the two engines;
any divergence fails the run on the spot.  Three schedules, one artifact
section each:

``differential``
    The original mix: a write with probability 0.25, else a query.
``replace_heavy``
    One replace for every two queries, over a query list that leans on
    the catalog (``Format=`` / ``Doc=`` / ``Nodename=``): the store's
    catalog map keeps serving the entries of documents that were just
    superseded, so this is where an entry that was not immutable after
    all would show.
``held_pin``
    A snapshot held across four writes and re-queried through both
    engines: pinned recomputation and pinned replay both equal the
    answer before the writes, although readers on newer pins have been
    filling the same catalog map meanwhile.

The artifact (``BENCH_cache_differential.json``) carries only
deterministic counters — schedule composition, cache hit/miss traffic,
``mismatches`` (always 0) — so the perf-regression gate compares it
exactly: a changed hit count means the keying or invalidation behaviour
changed, and ``mismatches`` anything but 0 means the cache lied.
``dom_nodes_built_per_hit`` is what ``to_xml`` constructs when it renders
a replayed answer, counted from outside: 1, the ``<results>`` root — a
cached match holds the ``<result>`` it renders and a replay lists it.
Anything more means a per-request copy came back.
"""

import random

from conftest import dom_nodes_built, print_table, write_artifact

from repro.query.cache import QueryCache
from repro.query.engine import QueryEngine
from repro.sgml.serializer import serialize
from repro.store import XmlStore
from repro.workloads import CorpusSpec, generate_corpus

SEED = 2010
STEPS = 150
WRITE_EVERY = 0.25  # probability a step mutates instead of querying
REPLACE_ROUNDS = 40  # each: two queries, then one replace
HELD_WRITES = 4  # writes a pinned reader sits through

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
    # sections they list visible, refilled from their spares otherwise.
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


def _xml(result) -> str:
    return serialize(result.to_xml(), indent=2)


class Drill:
    """One store, a cached and a bare engine, one seeded schedule."""

    def __init__(self) -> None:
        self.rng = random.Random(SEED)
        self.store = XmlStore()
        self.cached = QueryEngine(self.store, cache=QueryCache())
        self.baseline = QueryEngine(self.store)
        files = generate_corpus(
            CorpusSpec(documents=30, seed=SEED, planted_term="relay")
        )
        self.pending = list(files[10:])
        self.loaded = []
        for file in files[:10]:
            self.store.store_text(file.text, file.name)
            self.loaded.append(file)
        self.queries = self.writes = 0
        self.replays = self.replay_nodes = 0

    def write(self) -> None:
        self.writes += 1
        choice = self.rng.random()
        if choice < 0.5 and self.pending:
            file = self.pending.pop(0)
            self.store.store_text(file.text, file.name)
            self.loaded.append(file)
        elif choice < 0.8 and self.loaded:
            self.replace()
        elif len(self.loaded) > 2:
            file = self.loaded.pop(self.rng.randrange(len(self.loaded)))
            entry = self.store.lookup_by_name(file.name)
            self.store.delete_document(entry.doc_id)

    def replace(self) -> None:
        file = self.rng.choice(self.loaded)
        text = file.text
        if file.name.endswith(".md"):
            text += "\nAmended relay budget paragraph.\n"
        self.store.replace_text(text, file.name)

    def compare(self, query: str, snapshot=None) -> str:
        self.queries += 1
        result = self.cached.execute(query, snapshot=snapshot)
        with dom_nodes_built() as built:
            document = result.to_xml()
        if result.cached:
            self.replays += 1
            self.replay_nodes += built[0]
        got = serialize(document, indent=2)
        if got != _xml(self.baseline.execute(query, snapshot=snapshot)):
            raise AssertionError(f"cache diverged on {query!r}")
        return got

    def counters(self) -> dict[str, object]:
        result = self.cached.cache.snapshot_counters()
        assert result["hits"] == self.replays > 0  # the schedule replayed
        per_hit = self.replay_nodes / self.replays
        return {
            "seed": SEED,
            "queries": self.queries,
            "writes": self.writes,
            "result_cache_hits": result["hits"],
            "result_cache_misses": result["misses"],
            "result_cache_evictions": result["evictions"],
            # An int (gated exactly) while every replay builds the same.
            "dom_nodes_built_per_hit": (
                int(per_hit) if per_hit.is_integer() else round(per_hit, 2)
            ),
            # compare() raises on the first divergence, so reaching
            # here means every answer matched.
            "mismatches": 0,
            "byte_identical": True,
        }


def run_differential() -> dict[str, object]:
    drill = Drill()
    for _ in range(STEPS):
        if drill.rng.random() < WRITE_EVERY:
            drill.write()
        else:
            drill.compare(drill.rng.choice(QUERIES))
    return {"steps": STEPS, **drill.counters()}


def run_replace_heavy() -> dict[str, object]:
    drill = Drill()
    for _ in range(REPLACE_ROUNDS):
        for _ in range(2):
            drill.compare(drill.rng.choice(QUERIES + CATALOG_QUERIES))
        drill.writes += 1
        drill.replace()
    return {"rounds": REPLACE_ROUNDS, **drill.counters()}


def run_held_pin() -> dict[str, object]:
    drill = Drill()
    queries = QUERIES + CATALOG_QUERIES
    with drill.store.snapshot() as pin:
        before = [drill.compare(query, pin) for query in queries]
        for _ in range(HELD_WRITES):
            drill.write()
            # Readers on the newer pins fill the catalog map the held pin reads.
            with drill.store.snapshot() as newer:
                for query in queries:
                    drill.compare(query, newer)
        # The newer readers' stores replaced the held pin's entries, and
        # an entry stamped above a reader's LSN never answers it: the
        # first pass recomputes through the pin, the second replays.
        for _ in range(2):
            assert [drill.compare(query, pin) for query in queries] == before
    return {"held_across_writes": HELD_WRITES, **drill.counters()}


def test_report_cache_differential(benchmark):
    def report():
        sections = {
            "differential": run_differential(),
            "replace_heavy": run_replace_heavy(),
            "held_pin": run_held_pin(),
        }
        print_table(
            f"Cache differential: seed {SEED}",
            ["schedule", "queries", "writes", "result hits",
             "result misses", "DOM nodes built per hit", "mismatches"],
            [
                [name, c["queries"], c["writes"], c["result_cache_hits"],
                 c["result_cache_misses"], c["dom_nodes_built_per_hit"],
                 c["mismatches"]]
                for name, c in sections.items()
            ],
        )
        for name, counters in sections.items():
            write_artifact("BENCH_cache_differential.json", name, counters)
    benchmark.pedantic(report, rounds=1, iterations=1)
