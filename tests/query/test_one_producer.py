"""A ``<result>`` has one producer: :meth:`SectionMatch.write`.

Whatever kind a match is — a fresh section match, a resolved (cached)
one, a ``with_source`` twin of either, a nodename match with or without
``Content=``, a document-level hit, a federated source's answer — the
bytes it streams into an :class:`XmlWriter` are the bytes of the
``<result>`` it builds once through a :class:`TreeWriter`
(:attr:`SectionMatch.element`), and both are what the DOM path it
replaced built (``tests/sgml/dom_path.py``; for a nodename match, the
old assembly around ``compose_node`` written out below).
"""

from __future__ import annotations

import pytest

from repro import Netmark
from repro.federation.sources import ContentOnlySource, Record, StructuredSource
from repro.query.language import parse_query
from repro.sgml.dom import Element
from repro.sgml.nodetypes import NodeType
from repro.sgml.serializer import XmlWriter, serialize
from tests.conftest import SAMPLE_FILES
from tests.sgml import dom_path
from tests.store.chain import document_rows

#: A document whose first text precedes every heading (a document-level
#: hit for ``Content=zephyr``), with an attribute and nested markup.
EARLY = (
    "early.xml",
    '<doc><p k="v">zephyr <b>lead</b> text</p><h1>Budget</h1>'
    "<p>zephyr in <i>scope</i></p><context>inner</context></doc>",
)


@pytest.fixture(scope="module")
def node() -> Netmark:
    netmark = Netmark("one-producer")
    assert all(record.ok for record in netmark.ingest_many(SAMPLE_FILES + [EARLY]))
    return netmark


def fresh(node: Netmark, query: str) -> list:
    """The matches of a bare plan, loaders alive, nothing built."""
    matches = list(node.engine.execute(query))  # the bare engine: no cache
    assert matches, query
    return matches


def written(match, indent) -> str:
    writer = XmlWriter(indent)
    match.write(writer)
    return writer.getvalue()


def assert_one_producer(match, indent=None) -> str:
    """The reference, then the stream, then the built element: one text."""
    expected = dom_path.serialize(dom_path.result_element(match), indent)
    streamed = written(match, indent)
    assert streamed == expected
    assert serialize(match.element, indent) == expected
    assert written(match, indent) == expected  # a walk of the element now
    return expected


def old_node_result(match) -> Element:
    """A nodename match's ``<result>`` as it was assembled before: the
    element rebuilt by ``dom_path.build``, its children but a
    ``context`` one hung under ``<result>``."""
    loader = match._loader
    rows = loader.ctx.accessor.run(loader.row)
    [element] = dom_path.build(rows, Element("parent")).children
    result = Element("result", {"doc": match.file_name, "source": match.source})
    result.make_child("context").append_text(match.context)
    for child in list(element.children):
        if not (isinstance(child, Element) and child.tag == "context"):
            result.append(child)
    return result


class TestEveryKindOfMatch:
    @pytest.mark.parametrize("indent", [None, 2])
    @pytest.mark.parametrize("query", [
        "Context=Budget", "Content=shuttle", "Context=Technology Gap",
    ])
    def test_a_fresh_section_match(self, node, query, indent):
        for match in fresh(node, query):
            assert match._element is None
            assert_one_producer(match, indent)

    @pytest.mark.parametrize("indent", [None, 2])
    def test_a_resolved_match_writes_what_a_fresh_one_did(self, node, indent):
        query = "Context=Budget"
        expected = [assert_one_producer(match, indent) for match in fresh(node, query)]
        resolved = [match.resolve() for match in fresh(node, query)]
        assert [assert_one_producer(match, indent) for match in resolved] == expected
        assert all(match._loader.ctx is None for match in resolved)  # no accessor kept

    @pytest.mark.parametrize("resolve_first", [False, True])
    def test_a_with_source_twin(self, node, resolve_first):
        for original in fresh(node, "Content=shuttle"):
            if resolve_first:
                original.resolve()
            twin = original.with_source("llis")
            bytes_of = assert_one_producer(twin)
            assert bytes_of == serialize(original.element).replace(
                'source="local"', 'source="llis"', 1
            )
            assert twin.element is not original.element
            assert not set(map(id, twin.element.walk())) & set(map(id, original.element.walk()))

    @pytest.mark.parametrize("indent", [None, 2])
    @pytest.mark.parametrize("query", [
        "Nodename=content", "Nodename=content&Content=shuttle", "Nodename=doc",
    ])
    def test_a_nodename_match(self, node, query, indent):
        for match in fresh(node, query):
            expected = dom_path.serialize(old_node_result(match), indent)
            assert written(match, indent) == expected
            assert assert_one_producer(match, indent) == expected

    def test_a_document_level_match(self, node):
        matches = fresh(node, "Content=zephyr")
        [document_level] = [match for match in matches if match._section is None]
        assert document_level.context == "early.xml"
        for match in matches:
            assert_one_producer(match, 2)
            assert_one_producer(match.with_source("x"))

    def test_federated_source_matches(self):
        sources = [
            ContentOnlySource("llis", {"l1.md": "# Title\nEngine & <lesson>\n"}),
            StructuredSource("trk", [Record("A-1", (("Description", "Engine dropout"),))]),
        ]
        for source in sources:
            matches = source.native_search(parse_query("Content=engine"))
            assert matches
            for match in matches:
                assert_one_producer(match)
                assert_one_producer(match.with_source("x"), 2)


class TestSectionsStayAFacadeConvenience:
    def test_the_section_survives_resolve(self, node):
        loaded = [serialize(match.section) for match in fresh(node, "Context=Budget")]
        resolved = [match.resolve() for match in fresh(node, "Context=Budget")]
        assert [serialize(match.section) for match in resolved] == loaded
        assert all(match.section.synthetic for match in resolved)

    def test_a_nodename_section_is_the_element(self, node):
        for match in fresh(node, "Nodename=content&Content=shuttle"):
            assert match.section.tag == "content"
            assert serialize(match.section) == serialize(match.resolve().section)


def test_stored_simulation_elements_come_back_synthetic(node):
    store = node.store
    entry = store.lookup_by_name("report1.ndoc")
    document = store.document(entry.doc_id)
    rows = [
        row for row in document_rows(store.database, entry.doc_id)
        if row.NODETYPE != int(NodeType.TEXT)
    ]
    elements = [node for node in document.root.walk() if isinstance(node, Element)]
    assert [element.tag for element in elements] == [row.NODENAME for row in rows]
    flags = [element.synthetic for element in elements]
    assert flags == [row.NODETYPE == int(NodeType.SIMULATION) for row in rows]
    assert any(flags) and not all(flags)
