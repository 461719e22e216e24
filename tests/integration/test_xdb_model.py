"""Every configuration against the one specification (``tests/xdb_model.py``).

A hypothesis state machine ingests, replaces and deletes generated
documents, opens and releases pins, and queries — context, content,
combined and nodename searches; after every step the
index path, the ``Scan`` path, the cached engine (twice: the second a
hit) and ``Cache=0`` must equal the naive model, a held pin the model
*as of its LSN*, and fsck must be clean — ``section-facts`` and ``doc-order``
included.  The documents are what the e2e corpus is not: contexts nest
(a heading below a sibling of a heading, a heading inside a heading),
headings span nodes and carry emphasis, hits sit under INTENSE, text
precedes every context, phrases are stop words, terms split.  After a
write, every limit-saturated context or combined query asked so far is
asked of the cached engine again: an entry stamped before the write is
served while the sections it lists, or the spares after them, still fill
its limit.
"""

from urllib.parse import quote

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.query import QueryCache, QueryEngine, parse_query
from repro.store import XmlStore, check_store
from tests.xdb_model import XdbModel

WORDS = (
    "alpha", "beta", "gamma", "budget", "cost", "benefit", "the", "of", "to",
    "cost-benefit", "U.S.", "FY04/05",
)
TAGS = ("h1", "h2", "b", "em", "p", "div", "span", "section")
NAMES = ("d1.xml", "d2.xml", "a3.xml", "a4.xml")

phrases = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)


def _element(tag, children):
    return f"<{tag}>{''.join(children)}</{tag}>"


nodes = st.recursive(
    phrases.map(lambda text: text + " "),
    lambda children: st.builds(
        _element, st.sampled_from(TAGS), st.lists(children, min_size=1, max_size=4)
    ),
    max_leaves=14,
)
documents = st.lists(nodes, min_size=1, max_size=5).map(
    lambda children: _element("doc", children)
)

contents = st.one_of(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=2).map(" ".join),
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=2).map(
        lambda terms: "any:" + " ".join(terms)
    ),
    phrases.map(lambda phrase: f'"{phrase}"'),
)


@st.composite
def queries(draw):
    parts = []
    kind = draw(st.sampled_from(("context", "content", "combined", "nodename")))
    if kind == "nodename":
        parts.append("Nodename=" + draw(st.sampled_from(TAGS + ("doc",))))
    elif kind != "content":
        alternatives = draw(st.lists(phrases, min_size=1, max_size=2))
        parts.append("Context=" + quote("|".join(alternatives)))
    if kind in ("content", "combined") or kind == "nodename" and draw(st.booleans()):
        parts.append("Content=" + quote(draw(contents)))
    if draw(st.booleans()):
        parts.append(f"limit={draw(st.integers(1, 3))}")
    if draw(st.integers(0, 3)) == 0:
        parts.append("Doc=" + draw(st.sampled_from(("d", "a", "3"))))
    return "&".join(parts)


def answer(engine, query, snapshot=None):
    return [
        (match.file_name, match.context, match.content, match.score)
        for match in engine.execute(query, snapshot=snapshot)
    ]


class XdbMachine(RuleBasedStateMachine):
    #: Asked after every step, whatever the step was.
    STANDING = (
        "Context=alpha", "Content=beta gamma",
        "Context=the|budget&Content=any:cost-benefit of&limit=2",
        # Saturated and often listing a section whose document also holds
        # the spare after it: one write takes both away.
        "Context=alpha|beta|budget&limit=1",
        # Paragraphs whose governing CONTEXT is rarely their parent.
        "Nodename=p",
    )

    def __init__(self):
        super().__init__()
        self.store = XmlStore()
        self.model = XdbModel()
        self.indexed = QueryEngine(self.store)
        self.scanned = QueryEngine(self.store, use_index=False)
        self.cached = QueryEngine(self.store, cache=QueryCache())
        self.pins = []  # (snapshot, the model as of it)
        self.saturated = {}  # full, ROWID-ordered queries asked, in order

    def agree(self, query):
        expected = self.model.answer(query)
        assert answer(self.indexed, query) == expected, query
        assert answer(self.scanned, query) == expected, query
        assert answer(self.cached, query) == expected, query
        assert answer(self.cached, query) == expected, query  # a hit
        assert answer(self.cached, query + "&Cache=0") == expected, query
        for snapshot, model in self.pins:
            expected = model.answer(query)
            for engine in (self.indexed, self.scanned, self.cached):
                assert answer(engine, query, snapshot) == expected, query

    @rule(name=st.sampled_from(NAMES), text=documents)
    def ingest_or_replace(self, name, text):
        self.store.replace_text(text, name)
        self.model.store(name, text)
        self.ask_again()

    @precondition(lambda self: self.model.documents)
    @rule(data=st.data())
    def delete(self, data):
        name = data.draw(st.sampled_from(sorted(self.model.documents)))
        self.store.delete_document(self.store.lookup_by_name(name).doc_id)
        self.model.delete(name)
        self.ask_again()

    def ask_again(self):
        """The saturated answers cached before this write, asked again."""
        for query in self.saturated:
            assert answer(self.cached, query) == self.model.answer(query), query

    @precondition(lambda self: len(self.pins) < 2)
    @rule()
    def open_pin(self):
        self.pins.append((self.store.snapshot(), self.model.copy()))

    @precondition(lambda self: self.pins)
    @rule(data=st.data())
    def release_pin(self, data):
        snapshot, _ = self.pins.pop(data.draw(st.integers(0, len(self.pins) - 1)))
        snapshot.release()

    @rule(query=queries())
    def query(self, query):
        self.agree(query)
        parsed = parse_query(query)
        if parsed.kind != "content" and len(self.model.answer(query)) == parsed.limit:
            self.saturated[query] = None

    @invariant()
    def every_configuration_equals_the_model(self):
        for query in self.STANDING:
            self.agree(query)
        report = check_store(self.store.database)
        assert report.ok, report.render_text()

    def teardown(self):
        for snapshot, _ in self.pins:
            snapshot.release()


XdbMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=16, deadline=None,
    suppress_health_check=list(HealthCheck),
)
TestXdbMachine = XdbMachine.TestCase


ALPHA = "Alpha of the U.S. inner FY04/05 tail"
NESTED = (
    "<doc><p>front cost-benefit matter</p>"
    "<h1>Alpha <b>of the</b> U.S.<h2>inner FY04/05</h2>tail</h1>"
    "<p>one <b>beta</b> cost-benefit</p>"
    "<div><h2>Nested <em>beta</em></h2><p>inner U.S. <b>beta</b></p></div>"
    "<p>after FY04/05</p><h1>Beta</h1><p>cost benefit</p></doc>"
)


class TestTheModelOnAFixedDocument:
    """The shapes the generator is there for, pinned so a shrunk strategy
    cannot quietly stop producing them."""

    @pytest.fixture
    def pair(self):
        store, model = XmlStore(), XdbModel()
        store.store_text(NESTED, "nested.xml")
        model.store("nested.xml", NESTED)
        return store, model

    @pytest.mark.parametrize("query, contexts", [
        # A term the tokenizer splits matches the text it was typed from.
        # ("cost benefit" under Beta holds it too: its tokens, in order).
        ("Content=cost-benefit", [ALPHA, "Beta", "nested.xml"]),
        ("Content=U.S.", [ALPHA, "Nested beta"]),
        ("Content=FY04/05", [ALPHA, "inner FY04/05"]),
        ("Content=any:cost-benefit zzz", [ALPHA, "Beta", "nested.xml"]),
        ("Context=Beta&Content=cost-benefit", ["Beta"]),
        ("Context=Beta&Content=benefit-cost", []),
        # A heading inside a heading, a heading below a heading's sibling.
        ("Context=inner", ["inner FY04/05"]),
        ("Context=of the", [ALPHA]),
        ("Context=Nested|Alpha&Content=beta", [ALPHA, "Nested beta"]),
        ("Content=beta", [ALPHA, "Nested beta", "Beta"]),
        ("Content=beta&limit=1", ["Nested beta"]),  # two emphasised hits
        # An element's heading: its own title, what governs it, the file.
        ("Nodename=p", ["nested.xml", ALPHA, "Nested beta", ALPHA, "Beta"]),
        ("Nodename=b", [ALPHA, ALPHA, "Nested beta"]),
        ("Nodename=h2", ["inner FY04/05", "Nested beta"]),
        ("Nodename=em", ["Nested beta"]),
        ("Nodename=b&Content=beta&limit=1", [ALPHA]),
    ])
    def test_index_scan_and_model_agree(self, pair, query, contexts):
        store, model = pair
        expected = model.answer(query)
        assert [entry[1] for entry in expected] == contexts
        assert answer(QueryEngine(store), query) == expected
        assert answer(QueryEngine(store, use_index=False), query) == expected
        assert check_store(store.database).ok
