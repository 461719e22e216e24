"""XSLT-lite processor: templates, instructions, composition."""

import pytest

from repro.errors import XsltError
from repro.sgml.parser import parse_xml
from repro.sgml.serializer import serialize
from repro.xslt import compile_stylesheet, parse_pattern, transform


def run(xsl_body: str, source: str) -> str:
    stylesheet = f"<xsl:stylesheet>{xsl_body}</xsl:stylesheet>"
    return serialize(transform(stylesheet, parse_xml(source)))


class TestTemplates:
    def test_root_template(self):
        out = run(
            '<xsl:template match="/"><out/></xsl:template>', "<a><b/></a>"
        )
        assert out == "<out/>"

    def test_element_template_and_builtins(self):
        out = run(
            '<xsl:template match="b"><hit/></xsl:template>',
            "<a><b/><c><b/></c></a>",
        )
        # Built-in rules walk through a and c; both b's hit.
        assert out.count("<hit/>") == 2

    def test_builtin_text_copy(self):
        out = run("", "<a>plain</a>")
        assert "plain" in out

    def test_specific_beats_wildcard(self):
        out = run(
            '<xsl:template match="*"><any/></xsl:template>'
            '<xsl:template match="b"><b-hit/></xsl:template>',
            "<b/>",
        )
        assert out == "<b-hit/>"

    def test_later_template_wins_ties(self):
        out = run(
            '<xsl:template match="b"><first/></xsl:template>'
            '<xsl:template match="b"><second/></xsl:template>',
            "<b/>",
        )
        assert out == "<second/>"

    def test_path_pattern_more_specific(self):
        out = run(
            '<xsl:template match="b"><plain/></xsl:template>'
            '<xsl:template match="a/b"><nested/></xsl:template>',
            "<a><b/></a>",
        )
        assert out == "<nested/>"

    def test_pattern_matching_ancestors(self):
        pattern = parse_pattern("x/y")
        document = parse_xml("<x><y/></x>")
        assert pattern.ancestors_match(document.find("y"))
        other = parse_xml("<z><y/></z>")
        assert not pattern.ancestors_match(other.find("y"))


class TestInstructions:
    SRC = (
        '<doc><item n="1">alpha</item><item n="2">beta</item>'
        "<flag>yes</flag></doc>"
    )

    def test_value_of(self):
        out = run(
            '<xsl:template match="/">'
            '<v><xsl:value-of select="doc/item[2]"/></v></xsl:template>',
            self.SRC,
        )
        assert out == "<v>beta</v>"

    def test_for_each(self):
        out = run(
            '<xsl:template match="/">'
            '<list><xsl:for-each select="doc/item">'
            '<li><xsl:value-of select="@n"/></li>'
            "</xsl:for-each></list></xsl:template>",
            self.SRC,
        )
        assert out == "<list><li>1</li><li>2</li></list>"

    def test_apply_templates_with_select(self):
        out = run(
            '<xsl:template match="/">'
            '<r><xsl:apply-templates select="doc/item"/></r></xsl:template>'
            '<xsl:template match="item"><i/></xsl:template>',
            self.SRC,
        )
        assert out == "<r><i/><i/></r>"

    def test_if(self):
        out = run(
            '<xsl:template match="/">'
            '<xsl:if test="doc/flag = \'yes\'"><shown/></xsl:if>'
            '<xsl:if test="doc/flag = \'no\'"><hidden/></xsl:if>'
            "</xsl:template>",
            self.SRC,
        )
        assert "shown" in out and "hidden" not in out

    def test_choose(self):
        out = run(
            '<xsl:template match="/"><xsl:choose>'
            '<xsl:when test="doc/missing"><a/></xsl:when>'
            '<xsl:when test="doc/flag"><b/></xsl:when>'
            "<xsl:otherwise><c/></xsl:otherwise>"
            "</xsl:choose></xsl:template>",
            self.SRC,
        )
        assert out == "<b/>"

    def test_choose_otherwise(self):
        out = run(
            '<xsl:template match="/"><xsl:choose>'
            '<xsl:when test="doc/missing"><a/></xsl:when>'
            "<xsl:otherwise><c/></xsl:otherwise>"
            "</xsl:choose></xsl:template>",
            self.SRC,
        )
        assert out == "<c/>"

    def test_copy_of(self):
        out = run(
            '<xsl:template match="/">'
            '<wrap><xsl:copy-of select="doc/item"/></wrap></xsl:template>',
            self.SRC,
        )
        assert out == '<wrap><item n="1">alpha</item><item n="2">beta</item></wrap>'

    def test_attribute_value_template(self):
        out = run(
            '<xsl:template match="/">'
            '<o total="{count(doc/item)}" first="{doc/item/@n}"/>'
            "</xsl:template>",
            self.SRC,
        )
        assert out == '<o total="2" first="1"/>'

    def test_xsl_attribute(self):
        out = run(
            '<xsl:template match="/"><o>'
            '<xsl:attribute name="k"><xsl:value-of select="doc/flag"/>'
            "</xsl:attribute></o></xsl:template>",
            self.SRC,
        )
        assert out == '<o k="yes"/>'

    def test_xsl_element_with_avt_name(self):
        out = run(
            '<xsl:template match="/">'
            '<xsl:element name="tag-{doc/item/@n}">x</xsl:element>'
            "</xsl:template>",
            self.SRC,
        )
        assert out == "<tag-1>x</tag-1>"

    def test_xsl_text(self):
        out = run(
            '<xsl:template match="/"><o><xsl:text>  kept  </xsl:text></o>'
            "</xsl:template>",
            self.SRC,
        )
        assert out == "<o>  kept  </o>"

    def test_sort_ascending_descending(self):
        source = "<d><i>b</i><i>c</i><i>a</i></d>"
        out = run(
            '<xsl:template match="/"><o><xsl:for-each select="d/i">'
            '<xsl:sort select="."/><v><xsl:value-of select="."/></v>'
            "</xsl:for-each></o></xsl:template>",
            source,
        )
        assert out == "<o><v>a</v><v>b</v><v>c</v></o>"
        out = run(
            '<xsl:template match="/"><o><xsl:for-each select="d/i">'
            '<xsl:sort select="." order="descending"/>'
            '<v><xsl:value-of select="."/></v>'
            "</xsl:for-each></o></xsl:template>",
            source,
        )
        assert out == "<o><v>c</v><v>b</v><v>a</v></o>"

    def test_sort_numeric(self):
        source = "<d><i>10</i><i>9</i><i>100</i></d>"
        out = run(
            '<xsl:template match="/"><o><xsl:for-each select="d/i">'
            '<xsl:sort select="." data-type="number"/>'
            '<v><xsl:value-of select="."/></v>'
            "</xsl:for-each></o></xsl:template>",
            source,
        )
        assert out == "<o><v>9</v><v>10</v><v>100</v></o>"


class TestCompileErrors:
    def test_bad_root(self):
        with pytest.raises(XsltError):
            compile_stylesheet("<not-a-stylesheet/>")

    def test_template_without_match(self):
        with pytest.raises(XsltError):
            compile_stylesheet(
                "<xsl:stylesheet><xsl:template><x/></xsl:template>"
                "</xsl:stylesheet>"
            )

    def test_unknown_instruction(self):
        with pytest.raises(XsltError):
            compile_stylesheet(
                '<xsl:stylesheet><xsl:template match="/">'
                "<xsl:frobnicate/></xsl:template></xsl:stylesheet>"
            )

    def test_value_of_requires_select(self):
        with pytest.raises(XsltError):
            compile_stylesheet(
                '<xsl:stylesheet><xsl:template match="/">'
                "<xsl:value-of/></xsl:template></xsl:stylesheet>"
            )

    def test_bad_xpath_fails_at_compile_time(self):
        with pytest.raises(XsltError):
            compile_stylesheet(
                '<xsl:stylesheet><xsl:template match="/">'
                '<xsl:value-of select="$$$"/></xsl:template></xsl:stylesheet>'
            )

    def test_bad_pattern(self):
        with pytest.raises(XsltError):
            parse_pattern("a[@x]")

    def test_unterminated_avt(self):
        with pytest.raises(XsltError):
            run('<xsl:template match="/"><o k="{unclosed"/></xsl:template>',
                "<a/>")


class TestComposition:
    def test_fig7_style_report(self):
        """The paper's flow: query results -> XSLT -> new document."""
        results = parse_xml(
            '<results query="Context=Budget">'
            '<result doc="b.ndoc"><context>Budget</context>'
            "<content>We request funds</content></result>"
            '<result doc="a.npdf"><context>Cost Details</context>'
            "<content>Totals</content></result></results>"
        )
        stylesheet = compile_stylesheet(
            "<xsl:stylesheet>"
            '<xsl:template match="/">'
            '<report for="{results/@query}">'
            '<xsl:apply-templates select="results/result">'
            '<xsl:sort select="@doc"/></xsl:apply-templates>'
            "</report></xsl:template>"
            '<xsl:template match="result">'
            '<chapter title="{context}">'
            '<xsl:value-of select="content"/></chapter></xsl:template>'
            "</xsl:stylesheet>"
        )
        output = transform(stylesheet, results)
        text = serialize(output)
        assert text == (
            '<report for="Context=Budget">'
            '<chapter title="Cost Details">Totals</chapter>'
            '<chapter title="Budget">We request funds</chapter></report>'
        )

    def test_multiple_top_fragments_wrapped(self):
        out = run(
            '<xsl:template match="/"><a/><b/></xsl:template>', "<x/>"
        )
        assert out == "<output><a/><b/></output>"
