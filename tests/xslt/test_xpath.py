"""XPath subset: paths, predicates, functions, comparisons."""

import pytest

from repro.errors import XPathError
from repro.sgml.parser import parse_xml
from repro.sgml.serializer import serialize
from repro.xslt import transform
from repro.xslt.xpath import (
    XPathContext,
    compile_xpath,
    parse_xpath,
    require_node_set,
    to_string,
)

from tests.xslt import oracle

DOC = parse_xml(
    """<catalog count="3">
      <book id="1" lang="en"><title>Alpha</title><price>10</price></book>
      <book id="2"><title>Beta</title><price>20</price></book>
      <book id="3" lang="fr"><title>Gamma</title><price>30</price></book>
      <note>standalone</note>
    </catalog>"""
)


def ctx(node=None):
    return XPathContext(node or DOC.root, root=DOC.root)


def value(expression, context):
    return compile_xpath(parse_xpath(expression))(context)


def titles(items):
    return [item.text_content() for item in items]


class TestPaths:
    def test_child_path(self):
        assert titles(value("book/title", ctx())) == ["Alpha", "Beta", "Gamma"]

    def test_absolute_path(self):
        assert titles(value("/catalog/book/title", ctx())) == [
            "Alpha", "Beta", "Gamma",
        ]

    def test_descendant_path(self):
        assert titles(value("//title", ctx())) == ["Alpha", "Beta", "Gamma"]

    def test_wildcard(self):
        assert len(value("book/*", ctx())) == 6

    def test_attribute_axis(self):
        assert value("@count", ctx()) == ["3"]
        assert value("book/@id", ctx()) == ["1", "2", "3"]

    def test_missing_attribute_empty(self):
        assert value("@missing", ctx()) == []

    def test_text_node_test(self):
        note = DOC.find("note")
        assert value("text()", ctx(note))[0].data == "standalone"

    def test_self_and_parent(self):
        book = DOC.find("book")
        assert value(".", ctx(book)) == [book]
        assert value("..", ctx(book)) == [DOC.root]

    def test_root_only_path(self):
        assert value("/", ctx())[0].__class__.__name__ == "_DocumentAnchor"


RESULTS = parse_xml(
    '<results query="Q" n="2"><result doc="d1" n="1">a</result><result doc="d2">b</result>'
    "</results>"
)


def at_document(expression):
    """``expression`` at the document node: compiled, and the oracle's."""
    context = XPathContext(RESULTS, root=RESULTS.root)
    return value(expression, context), oracle.evaluate(parse_xpath(expression), context)


class TestEveryAttribute:
    """``@*`` selects every attribute value, in source order; it used to
    look up an attribute literally named ``*`` and select nothing."""

    def test_count_and_select(self):
        assert at_document("count(results/result[1]/@*)") == (2.0, 2.0)
        assert at_document("count(results/result[2]/@*)") == (1.0, 1.0)
        assert at_document("results/@*") == (["Q", "2"], ["Q", "2"])
        assert at_document("results/result/@*[2]") == (["1"], ["1"])

    def test_value_of_and_copy_of(self):
        sheet = (
            '<xsl:stylesheet><xsl:template match="/"><o>'
            '<v><xsl:value-of select="results/@*"/></v>'
            '<c><xsl:copy-of select="results/@*"/></c>'
            "</o></xsl:template></xsl:stylesheet>"
        )
        composed = serialize(transform(sheet, RESULTS))
        assert composed == "<o><v>Q</v><c>Q2</c></o>"
        assert serialize(oracle.transform(sheet, RESULTS)) == composed


class TestPredicates:
    def test_positional(self):
        assert titles(value("book[2]/title", ctx())) == ["Beta"]

    def test_last(self):
        assert titles(value("book[last()]/title", ctx())) == ["Gamma"]

    def test_a_position_no_node_has_selects_nothing(self):
        # ``[n]`` is ``[position() = n]``: ``[1.5]`` used to truncate to ``[1]``.
        assert at_document("results/result[1.5]") == ([], [])
        assert at_document("results/result[0]") == ([], [])
        last, expected = at_document("results/result[last()]")
        assert [node.get("doc") for node in last] == ["d2"] and last == expected

    def test_attribute_equality(self):
        assert titles(value("book[@lang='en']/title", ctx())) == ["Alpha"]

    def test_attribute_existence(self):
        assert titles(value("book[@lang]/title", ctx())) == ["Alpha", "Gamma"]

    def test_child_value_equality(self):
        assert value("book[title='Beta']/@id", ctx()) == ["2"]

    def test_child_existence(self):
        assert len(value("book[price]", ctx())) == 3

    def test_chained_predicates(self):
        assert titles(value("book[@lang][1]/title", ctx())) == ["Alpha"]

    def test_position_function_in_predicate(self):
        assert titles(value("book[position()=3]/title", ctx())) == ["Gamma"]


class TestFunctions:
    def test_count(self):
        assert value("count(book)", ctx()) == 3.0

    def test_concat(self):
        result = value("concat('a', 'b', @count)", ctx())
        assert result == "ab3"

    def test_name(self):
        assert value("name()", ctx()) == "catalog"

    def test_string_of_path(self):
        assert value("string(note)", ctx()) == "standalone"

    def test_normalize_space(self):
        document = parse_xml("<a>  x   y  </a>")
        context = XPathContext(document.root, root=document.root)
        assert value("normalize-space(.)", context) == "x y"

    def test_contains(self):
        assert value("contains(note, 'alone')", ctx()) is True
        assert value("contains(note, 'xyz')", ctx()) is False

    def test_not_true_false(self):
        assert value("not(false())", ctx()) is True
        assert value("not(book)", ctx()) is False

    def test_wrong_arity_rejected(self):
        with pytest.raises(XPathError):
            value("count(book, note)", ctx())

    def test_unknown_function_rejected(self):
        with pytest.raises(XPathError):
            parse_xpath("substring-before(a, b)")


class TestComparisons:
    def test_nodeset_vs_literal_is_existential(self):
        assert value("book/title = 'Beta'", ctx()) is True
        assert value("book/title = 'Delta'", ctx()) is False

    def test_not_equal(self):
        assert value("@count != '4'", ctx()) is True

    def test_numeric_comparison(self):
        assert value("count(book) = 3", ctx()) is True

    def test_boolean_connectives(self):
        expr = "book and note"
        assert value(expr, ctx()) is True
        assert value("book and missing", ctx()) is False
        assert value("missing or note", ctx()) is True


class TestErrorsAndStrings:
    def test_garbage_rejected(self):
        with pytest.raises(XPathError):
            parse_xpath("book//[2]")
        with pytest.raises(XPathError):
            parse_xpath("$$$")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(XPathError):
            parse_xpath("book title")

    def test_select_rejects_scalar_expr(self):
        with pytest.raises(XPathError):
            require_node_set(parse_xpath("count(book)"), "count(book)")

    def test_to_string_of_nodeset(self):
        assert to_string(value("book/title", ctx())) == "Alpha"
        assert to_string([]) == ""
        assert to_string(2.0) == "2"
        assert to_string(2.5) == "2.5"
