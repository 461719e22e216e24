"""Node-type configuration and XML serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SgmlError
from repro.sgml.config import DEFAULT_CONFIG, NodeTypeConfig
from repro.sgml.dom import Document, Element, Text
from repro.sgml.nodetypes import NodeType
from repro.sgml.parser import parse_xml
from repro.sgml.serializer import escape_attribute, escape_text, serialize

from tests.sgml import oracle


class TestClassification:
    def test_headings_are_context(self):
        for tag in ("h1", "h3", "h6", "title", "context"):
            assert DEFAULT_CONFIG.classify(Element(tag)) is NodeType.CONTEXT

    def test_emphasis_is_intense(self):
        for tag in ("b", "strong", "em"):
            assert DEFAULT_CONFIG.classify(Element(tag)) is NodeType.INTENSE

    def test_synthetic_elements_are_simulation(self):
        element = Element("whatever", synthetic=True)
        assert DEFAULT_CONFIG.classify(element) is NodeType.SIMULATION

    def test_section_tag_is_simulation(self):
        assert DEFAULT_CONFIG.classify(Element("section")) is NodeType.SIMULATION

    def test_text_is_text(self):
        assert DEFAULT_CONFIG.classify(Text("x")) is NodeType.TEXT

    def test_plain_element(self):
        assert DEFAULT_CONFIG.classify(Element("p")) is NodeType.ELEMENT

    def test_overlapping_assignment_rejected(self):
        with pytest.raises(SgmlError):
            NodeTypeConfig(
                context_tags=frozenset({"x"}), intense_tags=frozenset({"x"})
            )


class TestConfigFile:
    def test_round_trip(self):
        config = NodeTypeConfig(
            context_tags=frozenset({"h1", "title"}),
            intense_tags=frozenset({"b"}),
            simulation_tags=frozenset({"gen"}),
        )
        assert NodeTypeConfig.from_text(config.to_text()) == config

    def test_comments_and_blanks_ignored(self):
        config = NodeTypeConfig.from_text(
            "# a comment\n\ncontext: h1 h2  # trailing\nintense: b\n"
            "simulation: gen\n"
        )
        assert config.context_tags == frozenset({"h1", "h2"})

    def test_unknown_key_rejected(self):
        with pytest.raises(SgmlError):
            NodeTypeConfig.from_text("bogus: x")

    def test_duplicate_key_rejected(self):
        with pytest.raises(SgmlError):
            NodeTypeConfig.from_text("context: a\ncontext: b")

    def test_missing_colon_rejected(self):
        with pytest.raises(SgmlError):
            NodeTypeConfig.from_text("context h1")

    def test_defaults_fill_missing_sections(self):
        config = NodeTypeConfig.from_text("context: h1")
        assert config.context_tags == frozenset({"h1"})
        assert "b" in config.intense_tags  # default kept


class TestEscaping:
    def test_text_escapes(self):
        assert escape_text("a<b>&c") == "a&lt;b&gt;&amp;c"

    def test_attribute_escapes_quotes_too(self):
        assert escape_attribute('say "hi" & go') == "say &quot;hi&quot; &amp; go"


class TestSerialize:
    def test_compact_round_trip(self):
        source = '<a x="1">t<b>u</b><c/></a>'
        document = parse_xml(source)
        assert serialize(document) == source

    def test_special_characters_round_trip(self):
        document = parse_xml("<a>x &amp; y &lt; z</a>")
        again = parse_xml(serialize(document))
        assert again.root.text_content() == "x & y < z"

    def test_pretty_print_indents(self):
        document = parse_xml("<a><b>x</b></a>")
        pretty = serialize(document, indent=2)
        assert "  <b>x</b>" in pretty

    def test_empty_element_self_closes(self):
        assert serialize(parse_xml("<a></a>")) == "<a/>"

    names = st.sampled_from(["a", "b", "c", "item", "x1"])
    texts = st.text(
        alphabet=st.sampled_from("ab &<>\"'\n"), min_size=1, max_size=12
    )
    #: What pretty mode special-cases: text it drops, text it strips.
    blanks = st.sampled_from([" ", "\n", "\n    ", "  \n  "])

    @st.composite
    @staticmethod
    def trees(draw, depth=0):
        element = Element(draw(TestSerialize.names))
        for key in draw(st.lists(st.sampled_from(["k", "k2", "data-x"]), max_size=3, unique=True)):
            element.attributes[key] = draw(st.one_of(st.just(""), TestSerialize.texts))
        for _ in range(draw(st.integers(0, 4 if depth < 2 else 0))):
            kind = draw(st.sampled_from(["text", "text", "blank", "element", "element"]))
            if kind == "element":
                element.append(draw(TestSerialize.trees(depth=depth + 1)))  # type: ignore[call-arg]
            else:  # several in a row stay several Text children
                element.append(Text(draw(TestSerialize.texts if kind == "text" else TestSerialize.blanks)))
        return element

    @given(trees())
    @settings(max_examples=60, deadline=None)
    def test_serialize_parse_round_trip_property(self, tree):
        serialized = serialize(tree)
        reparsed = parse_xml(serialized).root
        assert _equivalent(tree, reparsed)

    @given(st.one_of(trees(), texts.map(Text), blanks.map(Text)), st.sampled_from([None, 2, 0, 3]))
    @settings(max_examples=300, deadline=None)
    def test_one_pass_equals_the_serializer_it_replaced(self, tree, indent):
        """Byte for byte, both modes: text-only and mixed elements,
        whitespace between elements, empty attributes, a bare Text root."""
        expected = oracle.serialize(tree, indent=indent)
        assert serialize(tree, indent=indent) == expected
        if isinstance(tree, Element):  # a Document serializes as its root
            assert serialize(Document(tree), indent=indent) == expected


def _merged_children(element: Element) -> list:
    """Children with adjacent text nodes merged (XML cannot tell apart)."""
    merged: list = []
    for child in element.children:
        if (
            isinstance(child, Text)
            and merged
            and isinstance(merged[-1], Text)
        ):
            merged[-1] = Text(merged[-1].data + child.data)
        else:
            merged.append(child)
    return merged


def _equivalent(left, right) -> bool:
    if isinstance(left, Text) and isinstance(right, Text):
        return left.data == right.data
    if isinstance(left, Element) and isinstance(right, Element):
        if left.tag != right.tag or left.attributes != right.attributes:
            return False
        left_children = _merged_children(left)
        right_children = _merged_children(right)
        if len(left_children) != len(right_children):
            return False
        return all(
            _equivalent(a, b)
            for a, b in zip(left_children, right_children)
        )
    return False
