"""Differential testing: the indexed and scan read paths must agree.

The ABL-IDX ablation swaps ``IndexProbe`` for ``Scan`` and (on combined
queries) drops the ``Intersect`` semijoin.  Both pipelines must return
the *same* matches — same documents, same physical rowids, same section
titles — over a generated workloads corpus, for every query shape and
with and without a limit.  Any divergence means one path over- or
under-prunes.
"""

import pytest

from repro.query import QueryEngine
from repro.store import XmlStore
from repro.workloads import CorpusSpec, generate_corpus

QUERIES = [
    "Context=Budget",
    "Context=Technology Gap",
    "Content=relay",
    "Content=relay marker",
    "Content=relay+appears",
    "Content=relay,milestones",
    "Context=Budget&Content=relay",
    "Context=Risk Assessment&Content=schedule",
    "Context=Budget&Doc=doc-00",
    "Context=Budget&Format=md",
]


@pytest.fixture(scope="module")
def corpus_store() -> XmlStore:
    store = XmlStore()
    files = generate_corpus(
        CorpusSpec(documents=24, seed=2005, planted_term="relay")
    )
    for file in files:
        store.store_text(file.text, file.name)
    return store


def signature(matches):
    return {
        (match.file_name, match.rowid, match.context)
        for match in matches
    }


class TestIndexScanEquivalence:
    @pytest.mark.parametrize("query", QUERIES)
    def test_identical_match_sets(self, corpus_store, query):
        indexed = QueryEngine(corpus_store, use_index=True).execute(query)
        scanned = QueryEngine(corpus_store, use_index=False).execute(query)
        assert signature(indexed.matches) == signature(scanned.matches)
        assert len(indexed.matches) == len(scanned.matches)

    @pytest.mark.parametrize("query", QUERIES)
    def test_identical_presentation_order(self, corpus_store, query):
        indexed = QueryEngine(corpus_store, use_index=True).execute(query)
        scanned = QueryEngine(corpus_store, use_index=False).execute(query)
        assert [
            (m.file_name, m.rowid) for m in indexed.matches
        ] == [(m.file_name, m.rowid) for m in scanned.matches]

    @pytest.mark.parametrize(
        "query",
        ["Context=Budget", "Content=relay", "Context=Budget&Content=relay"],
    )
    def test_limited_runs_agree(self, corpus_store, query):
        limited = f"{query}&limit=4"
        indexed = QueryEngine(corpus_store, use_index=True).execute(limited)
        scanned = QueryEngine(corpus_store, use_index=False).execute(limited)
        assert signature(indexed.matches) == signature(scanned.matches)

    def test_queries_actually_select_something(self, corpus_store):
        """Guard against a vacuous suite: most shapes must return rows."""
        engine = QueryEngine(corpus_store)
        nonempty = sum(
            1 for query in QUERIES if engine.execute(query).matches
        )
        assert nonempty >= 6

    def test_document_sets_agree(self, corpus_store):
        for query in QUERIES:
            indexed = QueryEngine(corpus_store, use_index=True).execute(query)
            scanned = QueryEngine(corpus_store, use_index=False).execute(query)
            assert indexed.documents() == scanned.documents()


class TestIntersectFromEitherSide:
    """``Intersect`` asks one door which candidate sections hold each
    content token: a token with no more postings than candidates reads
    its postings' facts, any other tests each candidate's section
    members against its postings.  Both sides answer what the scan path
    does, live and under a pin held across replaces, where the rows
    changed since the pin are judged on their text as of it."""

    DOCS = 8

    @staticmethod
    def text(budget_words):
        return f"# Budget\n\ncommon {budget_words} filler\n\n# Notes\n\ncommon filler\n"

    @pytest.fixture
    def store(self):
        store = XmlStore()
        for n in range(self.DOCS):
            store.replace_text(self.text("zephyr" if n == 3 else "plain"), f"d{n}.md")
        return store

    @staticmethod
    def answers(store, query, snapshot=None):
        return [
            [m.rowid for m in QueryEngine(store, use_index=use).execute(query, snapshot)]
            for use in (True, False)
        ]

    def test_a_rare_and_a_common_token_take_either_side(self, store):
        index = store.xml_table.text_index_on("NODEDATA")
        candidates = len(QueryEngine(store).execute("Context=Budget"))
        assert len(index.lookup_all(["zephyr"])) == 1 <= candidates == self.DOCS
        assert len(index.lookup_all(["common"])) == 2 * self.DOCS > candidates
        for token, found in (("zephyr", 1), ("common", self.DOCS), ("plain", self.DOCS - 1)):
            indexed, scanned = self.answers(store, f"Context=Budget&Content={token}")
            assert indexed == scanned and len(indexed) == found

    @pytest.mark.parametrize("token", ["zephyr", "common", "plain"])
    def test_a_pin_held_across_replaces(self, store, token):
        query = f"Context=Budget&Content={token}"
        with store.snapshot() as snap:
            before = self.answers(store, query, snap)
            store.replace_text(self.text("plain"), "d3.md")  # zephyr leaves
            store.replace_text(self.text("zephyr"), "d5.md")  # and comes here
            store.replace_text("# Budget\n\nrare words\n", "d1.md")  # common leaves
            pinned = self.answers(store, query, snap)
        live = self.answers(store, query)
        assert pinned == before and before[0] == before[1]
        assert live[0] == live[1]
        expected = {"zephyr": 1, "common": self.DOCS - 1, "plain": self.DOCS - 2}
        assert len(live[0]) == expected[token]
        assert live[0] != before[0]  # the replaces moved every answer

    def test_pinned_readers_beside_a_replacing_writer(self, store):
        """Two reader threads ask combined queries at pins they hold while
        a writer replaces documents, under a one-microsecond switch
        interval: once it stops, every answer is the scan path's at the
        same pin, on both sides of the size choice."""
        import sys
        import threading

        queries = [f"Context=Budget&Content={token}" for token in ("zephyr", "common", "plain")]
        done, errors, taken = threading.Event(), [], []

        def write():
            try:
                for revision in range(30):
                    words = "plain" if revision % 3 else "zephyr"
                    store.replace_text(self.text(words), f"d{revision % self.DOCS}.md")
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)
            finally:
                done.set()

        def read():
            engine = QueryEngine(store)
            try:
                for _ in range(20):
                    if done.is_set():
                        return
                    snapshot = store.snapshot()
                    answers = [[m.rowid for m in engine.execute(q, snapshot)] for q in queries]
                    taken.append((snapshot, answers))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=target) for target in (write, read, read)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not errors and taken
            scan = QueryEngine(store, use_index=False)
            for snapshot, answers in taken:
                assert answers == [
                    [m.rowid for m in scan.execute(q, snapshot)] for q in queries
                ]
        finally:
            for snapshot, _ in taken:
                snapshot.release()
