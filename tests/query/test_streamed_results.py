"""The streamed render against the DOM path it replaced.

A plain ``/search`` writes its body through :class:`XmlWriter` events: a
fresh section match straight from its rows, everything else by a walk of
the element it owns.  ``tests/sgml/dom_path.py`` keeps the old path —
rows → DOM → ``<result>`` → one-pass serializer — and every body here
must equal its bytes: generated documents section by section, then each
envelope the HTTP layer stamps.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Netmark
from repro.obs import Tracer
from repro.query.plan import PlanContext, SectionResolver
from repro.query.results import _UNSET, ResultSet, SectionMatch
from repro.resilience import FaultPlan
from repro.sgml.config import DEFAULT_CONFIG, NodeTypeConfig
from repro.sgml.dom import Document, Element, Text
from repro.sgml.serializer import XmlWriter
from repro.store import XmlStore, compose_document
from repro.workloads import CorpusSpec, generate_corpus
from tests.conftest import SAMPLE_FILES
from tests.federation.test_partial_results import netmark_source
from tests.server.test_overload import SteppingClock
from tests.sgml import dom_path

#: Heading tags, SIMULATION tags, INTENSE and plain elements — and
#: ``context``, which is a CONTEXT tag by default and a plain element
#: under :data:`PLAIN_CONTEXT`.
TAGS = ["div", "p", "h1", "h2", "context", "b", "section", "generated", "x"]
PLAIN_CONTEXT = NodeTypeConfig(context_tags=frozenset({"h1", "h2"}))
#: Escaped characters, tab, newline and backslash; empty and blank text.
texts = st.text(alphabet=st.sampled_from('ab &<>"\t\n\\ '), max_size=8)


@st.composite
def trees(draw, depth=0):
    tag = draw(st.sampled_from(TAGS))
    element = Element(tag, synthetic=tag == "x" and draw(st.booleans()))
    for key in draw(st.lists(st.sampled_from(["k", "id"]), max_size=2, unique=True)):
        element.attributes[key] = draw(texts)
    for _ in range(draw(st.integers(0, 4 if depth < 3 else 0))):
        if draw(st.booleans()):
            element.append(Text(draw(texts)))
        else:
            element.append(draw(trees(depth + 1)))
    return element


@st.composite
def documents(draw):
    """A root holding generated subtrees, one ``<h1>`` among them."""
    children = draw(st.lists(trees(), min_size=1, max_size=5))
    heading = Element("h1")
    heading.append_text(draw(texts))
    children.insert(draw(st.integers(0, len(children))), heading)
    root = Element("doc")
    for child in children:
        root.append(child)
    return root


class TestEverySectionStreamsTheDomPathsBytes:
    @given(documents(), st.sampled_from([DEFAULT_CONFIG, PLAIN_CONTEXT]))
    @settings(max_examples=150, deadline=None)
    def test_each_context_section(self, root, config):
        store = XmlStore(config=config)
        doc_id = store.store_document(Document(root, name="g.xml")).doc_id
        with store.snapshot() as snapshot:
            accessor = store.new_accessor(snapshot)
            ctx = PlanContext(store, accessor, use_index=True)
            contexts = [
                row for row in accessor.lookup_rows("DOC_ID", doc_id)
                if accessor.is_context(row)
            ]
            assert contexts
            for row in contexts:
                for indent in (2, None):
                    match = SectionMatch(
                        doc_id, "g.xml", loader=SectionResolver(ctx, row), rowid=row.rowid
                    )
                    writer = XmlWriter(indent)
                    match.write(writer)
                    assert match._element is None and match._section is _UNSET
                    expected = dom_path.serialize(dom_path.result_element(match), indent)
                    assert writer.getvalue() == expected


def both_paths(monkeypatch, node: Netmark, target: str) -> tuple[str, str]:
    """``target``'s streamed body, and the DOM path's bytes for the same
    results, stamps and trace."""
    seen: dict = {"roots": []}
    write, take_roots = ResultSet.write, Tracer.take_roots

    def spy(results, writer, stamps):
        seen["results"], seen["stamps"] = results, stamps
        write(results, writer, stamps)

    def keep(tracer):
        seen["roots"] = take_roots(tracer)
        return seen["roots"]

    with monkeypatch.context() as patch:
        patch.setattr(ResultSet, "write", spy)
        patch.setattr(Tracer, "take_roots", keep)
        response = node.http_get(target)
    assert response.ok and response.content_type == "text/xml"
    trailer = [dom_path.trace_element(span) for span in seen["roots"]]
    document = dom_path.results_document(seen["results"], seen["stamps"], trailer)
    return response.body, dom_path.serialize(document, indent=2)


def sample_node() -> Netmark:
    node = Netmark("streamed")
    node.ingest_many(SAMPLE_FILES)
    return node


class TestEveryEnvelopeRendersTheDomPathsBytes:
    def test_trace(self, monkeypatch):
        body, expected = both_paths(monkeypatch, sample_node(), "/search?Context=Budget&Cache=0&Trace=1")
        assert "<trace>" in body and body == expected

    def test_brownout(self, monkeypatch):
        node = sample_node()
        node.api.admission = SimpleNamespace(brownout_active=True, brownout_limit=1)
        body, expected = both_paths(monkeypatch, node, "/search?Context=Budget&Cache=0")
        assert 'degraded="brownout"' in body and body == expected

    def test_cached_hit(self, monkeypatch):
        node = sample_node()
        node.http_get("/search?Context=Budget")
        body, expected = both_paths(monkeypatch, node, "/search?Context=Budget&Trace=1")
        assert 'cached="true"' in body and body == expected

    def test_deadline_expired_prefix(self, monkeypatch):
        node = sample_node()
        node.api.clock = SteppingClock()
        body, expected = both_paths(
            monkeypatch, node, "/search?Context=Budget&Deadline=2&Partial=1&Cache=0"
        )
        assert "<deadline-expired>" in body and body == expected

    def test_federated_partial(self, monkeypatch):
        node = Netmark("streamed")
        node.create_databank("app")
        plan = FaultPlan()
        plan.fail("s1", times=None)
        for name in ("s0", "s1", "s2"):
            source = netmark_source(name)
            node.add_source("app", plan.wrap_source(source) if name == "s1" else source)
        body, expected = both_paths(monkeypatch, node, "/search?Context=Budget&databank=app")
        assert '<unreachable source="s1">' in body and "<result " in body
        assert body == expected

    def test_document_level_match(self, monkeypatch):
        node = Netmark("streamed")
        node.ingest_many([("f.xml", '<doc><p>zebra &amp; "front"</p><h1>T</h1><p>x</p></doc>')])
        body, expected = both_paths(monkeypatch, node, "/search?Content=zebra&Cache=0")
        assert "<context>f.xml</context>" in body and body == expected


def test_every_corpus_document_streams_its_dom_bytes():
    """``GET /doc/<id>`` writes a document from its rows; all 400 of a
    generated corpus equal their rebuilt DOM, serialized."""
    node = Netmark("documents")
    node.ingest_many([(f.name, f.text) for f in generate_corpus(CorpusSpec(documents=400, seed=1))])
    store = node.store
    entries = store.documents()
    assert len(entries) == 400
    for entry in entries:
        response = node.http_get(f"/doc/{entry.doc_id}")
        expected = compose_document(entry.doc_id, store.new_accessor(), entry.file_name)
        assert response.body == dom_path.serialize(expected, indent=2)
