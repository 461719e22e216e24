"""Differential testing: the indexed and scan read paths must agree.

The ABL-IDX ablation swaps ``IndexProbe`` for ``Scan`` and (on combined
queries) drops the ``Intersect`` semijoin.  Both pipelines must return
the *same* matches — same documents, same physical rowids, same section
titles — over a generated workloads corpus, for every query shape and
with and without a limit.  Any divergence means one path over- or
under-prunes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import QueryEngine
from repro.sgml.config import DEFAULT_CONFIG, NodeTypeConfig
from repro.sgml.dom import Document, Element, Text
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


#: Heading tags (``context`` is one by default, a plain element under
#: :data:`PLAIN_CONTEXT`), INTENSE, SIMULATION and plain elements.
TAGS = ["div", "p", "h1", "h2", "context", "b", "section"]
PLAIN_CONTEXT = NodeTypeConfig(context_tags=frozenset({"h1", "h2"}))
#: One-token terms, a stop word among them; ``cost`` and ``benefit`` also
#: come hyphenated, so a text may hold them together or apart.
WORDS = ["alpha", "beta", "cost", "benefit", "the"]
words = st.lists(st.sampled_from(WORDS + ["cost-benefit"]), min_size=1, max_size=4).map(" ".join)


@st.composite
def subtrees(draw, depth=0):
    element = Element(draw(st.sampled_from(TAGS)))
    for _ in range(draw(st.integers(0, 3 if depth < 3 else 0))):
        if draw(st.booleans()):
            element.append(Text(draw(words)))
        else:
            element.append(draw(subtrees(depth + 1)))
    return element


@st.composite
def documents(draw):
    """A root holding generated subtrees — sections nest when a heading
    sits below another's siblings — and at least one ``<h1>``."""
    heading = Element("h1")
    heading.append_text(draw(words))
    children = draw(st.lists(subtrees(), max_size=4))
    children.insert(draw(st.integers(0, len(children))), heading)
    root = Element("doc")
    for child in children:
        root.append(child)
    return root


@st.composite
def one_token_queries(draw):
    """``Content=`` or ``Context=…&Content=…`` with one-token terms, in
    mode all, any or phrase, with or without a limit."""
    terms = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3, unique=True))
    mode = draw(st.sampled_from(["all", "any", "phrase"]))
    content = f'"{terms[0]}"' if mode == "phrase" else f"{mode}:{'+'.join(terms)}"
    query = f"Content={content}"
    if draw(st.booleans()):
        query = f"Context={draw(st.sampled_from(WORDS))}&{query}"
    if draw(st.booleans()):
        query += f"&limit={draw(st.integers(1, 3))}"
    return query


def both_paths(store, query, snapshot=None):
    """The index path's answer and the scan path's."""
    return [
        [(m.rowid, m.context, m.content, m.score)
         for m in QueryEngine(store, use_index=use).execute(query, snapshot)]
        for use in (True, False)
    ]


class TestTheIndexDecidesOneTokenTerms:
    """With every term one token the walk trusts the index and skips its
    text test; the scan path still runs it.  Both must give one answer,
    live and under a pin held across a replace."""

    @given(
        st.lists(documents(), min_size=2, max_size=3),
        documents(),
        st.lists(one_token_queries(), min_size=1, max_size=4),
        st.sampled_from([DEFAULT_CONFIG, PLAIN_CONTEXT]),
    )
    @settings(max_examples=80, deadline=None)
    def test_the_index_path_is_the_scan_path(self, roots, replacement, queries, config):
        store = XmlStore(config=config)
        doc_ids = [
            store.store_document(Document(root, name=f"g{n}.xml")).doc_id
            for n, root in enumerate(roots)
        ]
        with store.snapshot() as snapshot:
            before = [both_paths(store, query, snapshot) for query in queries]
            store.delete_document(doc_ids[0])
            store.store_document(Document(replacement, name="g0.xml"))
            pinned = [both_paths(store, query, snapshot) for query in queries]
        live = [both_paths(store, query) for query in queries]
        for query, (indexed, scanned) in zip(queries * 3, before + pinned + live):
            assert indexed == scanned, query
        assert pinned == before

    @pytest.mark.parametrize("query", ['Content=cost-benefit', 'Content="cost benefit"'])
    @pytest.mark.parametrize("context", ["", "Context=alpha&"])
    def test_a_two_token_term_is_still_walked(self, query, context):
        """Both tokens in a section, apart, are not the term: a two-token
        term is not decided, on either path."""
        store = XmlStore()
        for name, text in (("apart.xml", "benefit of the cost"), ("together.xml", "cost benefit")):
            root = Element("doc")
            heading = root.append(Element("h1"))
            heading.append_text("alpha")
            root.append(Element("p")).append_text(text)
            store.store_document(Document(root, name=name))
        indexed, scanned = both_paths(store, context + query)
        assert indexed == scanned
        assert [content for _, _, content, _ in indexed] == ["cost benefit"]
