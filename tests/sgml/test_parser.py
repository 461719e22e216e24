"""Tree parser: strict XML rules and tolerant HTML recovery."""

import pytest

from repro.errors import SgmlSyntaxError
from repro.sgml.dom import Element, Text
from repro.sgml.parser import parse_html, parse_xml


class TestStrictXml:
    def test_well_formed(self):
        document = parse_xml("<a><b>x</b><c/></a>")
        assert document.root.tag == "a"
        assert [el.tag for el in document.root.child_elements()] == ["b", "c"]

    def test_mismatched_end_raises(self):
        with pytest.raises(SgmlSyntaxError):
            parse_xml("<a><b></a>")

    def test_unclosed_raises(self):
        with pytest.raises(SgmlSyntaxError):
            parse_xml("<a><b>")

    def test_multiple_roots_raise(self):
        with pytest.raises(SgmlSyntaxError):
            parse_xml("<a/><b/>")

    def test_text_outside_root_raises(self):
        with pytest.raises(SgmlSyntaxError):
            parse_xml("hello<a/>")

    def test_whitespace_outside_root_ok(self):
        document = parse_xml("\n  <a/>\n")
        assert document.root.tag == "a"

    def test_xml_declaration_ignored(self):
        document = parse_xml('<?xml version="1.0"?><a/>')
        assert document.root.tag == "a"

    def test_attributes_preserved(self):
        document = parse_xml('<a x="1" y="two"/>')
        assert document.root.attributes == {"x": "1", "y": "two"}

    def test_stray_end_tag_raises(self):
        with pytest.raises(SgmlSyntaxError):
            parse_xml("<a></b></a>")


class TestTolerantHtml:
    def test_unclosed_elements_closed_at_eof(self):
        document = parse_html("<html><body><p>text")
        paragraph = document.find("p")
        assert paragraph is not None
        assert paragraph.text_content() == "text"

    def test_p_auto_closes(self):
        document = parse_html("<body><p>one<p>two</body>")
        paragraphs = document.find_all("p")
        assert [p.text_content() for p in paragraphs] == ["one", "two"]

    def test_li_auto_closes(self):
        document = parse_html("<ul><li>a<li>b</ul>")
        assert [li.text_content() for li in document.find_all("li")] == ["a", "b"]

    def test_void_elements_take_no_children(self):
        document = parse_html("<p>a<br>b</p>")
        paragraph = document.find("p")
        assert paragraph.text_content() == "ab"
        br = document.find("br")
        assert br.children == []

    def test_heading_auto_closes_paragraph(self):
        document = parse_html("<body><p>lead<h2>Head</h2></body>")
        h2 = document.find("h2")
        assert h2.parent.tag == "body"

    def test_mismatched_end_recovers(self):
        document = parse_html("<div><b>x</div>")
        assert document.find("b").text_content() == "x"

    def test_stray_end_tag_ignored(self):
        document = parse_html("<div>x</span></div>")
        assert document.find("div") is not None

    def test_fragment_input_gets_synthetic_root(self):
        document = parse_html("just text <b>and bold</b>")
        assert document.root.tag == "fragment"
        assert document.root.synthetic

    def test_table_cells_auto_close(self):
        document = parse_html(
            "<table><tr><td>a<td>b<tr><td>c</table>"
        )
        assert len(document.find_all("tr")) == 2
        assert len(document.find_all("td")) == 3

    def test_case_insensitive_matching(self):
        document = parse_html("<DIV><SpAn>x</sPaN></div>")
        assert document.find("span").text_content() == "x"

    def test_never_raises_on_junk(self):
        junk = "<<<>>><a <b> </weird--><!--<p>hello"
        parse_html(junk)  # must not raise


class TestDom:
    def test_parent_links(self):
        document = parse_xml("<a><b/></a>")
        b = document.find("b")
        assert b.parent is document.root

    def test_walk_document_order(self):
        document = parse_xml("<a><b>x</b><c/></a>")
        tags = [
            node.tag if isinstance(node, Element) else "#text"
            for node in document.walk()
        ]
        assert tags == ["a", "b", "#text", "c"]

    def test_text_content_concatenates(self):
        document = parse_xml("<a>x<b>y</b>z</a>")
        assert document.root.text_content() == "xyz"

    def test_clone_is_deep_and_detached(self):
        document = parse_xml('<a x="1"><b>t</b></a>')
        copy = document.root.clone()
        assert copy.parent is None
        assert copy.attributes == {"x": "1"}
        copy.find("b").append_text("!")
        assert document.root.find("b").text_content() == "t"

    def test_detach(self):
        document = parse_xml("<a><b/></a>")
        b = document.find("b")
        b.detach()
        assert document.root.children == []
        assert b.parent is None

    def test_count(self):
        document = parse_xml("<a><b>x</b></a>")
        assert document.count() == 3
        assert document.count(lambda node: isinstance(node, Text)) == 1


class TestRawText:
    """<script>/<style> content is raw text in tolerant mode."""

    def test_script_markup_is_data(self):
        document = parse_html(
            '<body><script>if (a < b) { x("<p>"); }</script><p>real</p></body>'
        )
        script = document.find("script")
        assert script.text_content() == 'if (a < b) { x("<p>"); }'
        # The fake <p> inside the script did not become an element.
        assert len(document.find_all("p")) == 1

    def test_style_selectors_are_data(self):
        document = parse_html("<style>p > a { color: red }</style>")
        assert document.find("style").text_content() == "p > a { color: red }"

    def test_unclosed_script_runs_to_eof(self):
        document = parse_html("<script>var x = 1;")
        assert document.find("script").text_content() == "var x = 1;"

    def test_end_tag_case_insensitive(self):
        document = parse_html("<script>x</SCRIPT><b>after</b>")
        assert document.find("b").text_content() == "after"

    def test_strict_mode_unaffected(self):
        # XML has no rawtext elements; nested markup parses as markup.
        document = parse_xml("<script><p>element</p></script>")
        assert document.find("p") is not None
