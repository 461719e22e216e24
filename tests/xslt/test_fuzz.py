"""Boundary fuzz: the XSLT/XPath slice of ROADMAP's executable-spec item.

Whatever text or mis-assembled structure reaches ``parse_xpath``,
``compile_avt``, ``compile_stylesheet`` or ``transform``, the outcome is
a result or an :class:`~repro.errors.XsltError` (``XPathError`` is one)
— never another exception.  The ``@example`` lines are the bugs that
were found this way (or should have been) and now regress here.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import XsltError
from repro.sgml.dom import Document
from repro.sgml.parser import parse_xml
from repro.sgml.serializer import serialize
from repro.xslt import (
    Stylesheet,
    XPathContext,
    compile_avt,
    compile_stylesheet,
    evaluate,
    parse_pattern,
    parse_xpath,
    transform,
)
from repro.xslt.xpath import (
    BoolExpr,
    CompareExpr,
    FunctionExpr,
    LiteralExpr,
    NumberExpr,
    PathExpr,
)

from tests.xslt.strategies import sheet_soup, source_documents, xpath_soup

AST_TYPES = (PathExpr, LiteralExpr, NumberExpr, CompareExpr, BoolExpr, FunctionExpr)

DEEP_PARENS = "(" * 2000 + "a" + ")" * 2000
LOOP = (
    '<xsl:stylesheet><xsl:template match="results">'
    '<xsl:apply-templates select="."/></xsl:template></xsl:stylesheet>'
)
EMPTY_NAME = (
    '<xsl:stylesheet><xsl:template match="/">'
    '<xsl:element name="{nope}">x</xsl:element></xsl:template></xsl:stylesheet>'
)
APPLY_DOCUMENT = (
    '<xsl:stylesheet><xsl:template match="*"><xsl:apply-templates select="/"/>'
    '<xsl:copy-of select="/"/></xsl:template></xsl:stylesheet>'
)


@given(xpath_soup, source_documents())
@example("@[", None)
@example(DEEP_PARENS, None)
@example(" or ".join(["a"] * 3000), None)
@example("count(a, b)", None)
@example("a[@b][c]/@d[e]", None)
@example("/", None)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_xpath_text_parses_evaluates_or_is_refused(expression, source):
    source = source or parse_xml("<results><result n='1'>x</result></results>")
    try:
        expr = parse_xpath(expression)
        assert isinstance(expr, AST_TYPES)
        for node in [source, *source.walk()]:
            value = evaluate(expr, XPathContext(node, 1, 2, root=source.root))
            assert isinstance(value, (list, str, float, bool))
    except XsltError:
        pass


@given(st.one_of(xpath_soup, st.text(alphabet="{}ab/@'1 ", max_size=12)))
@example('{results/')
@example("{}")
@example("a{" + DEEP_PARENS + "}")
def test_avt_text_compiles_or_is_refused(template_text):
    try:
        compiled = compile_avt(template_text)
    except XsltError:
        return
    if isinstance(compiled, str):
        assert compiled == template_text
    else:
        document = parse_xml("<a n='1'><b/></a>")
        assert isinstance(compiled(XPathContext(document.root, root=document.root)), str)


@given(st.one_of(xpath_soup, st.text(alphabet="ab/*()[]t ex.@-", max_size=10)))
@example("a/" * 5000 + "a")
def test_pattern_text_parses_or_is_refused(source):
    try:
        pattern = parse_pattern(source)
    except XsltError:
        return
    assert pattern.is_root == (pattern.segments == ())
    document = parse_xml("<a><b>x</b></a>")
    for node in [document, *document.walk()]:
        assert pattern.matches(node) in (True, False)


@given(st.one_of(sheet_soup(), st.text(max_size=40)), source_documents())
@example(LOOP, None)
@example(EMPTY_NAME, None)
@example(APPLY_DOCUMENT, None)
@example('<xsl:stylesheet><xsl:template match="/"><a x="{results/"/></xsl:template></xsl:stylesheet>', None)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sheet_structure_compiles_transforms_or_is_refused(stylesheet_xml, source):
    source = source or parse_xml("<results><result n='1'>x</result></results>")
    try:
        compiled = compile_stylesheet(stylesheet_xml)
        assert isinstance(compiled, Stylesheet)
        result = transform(compiled, source)
    except XsltError:
        return
    assert isinstance(result, Document)
    # "Always well-formed": what comes out parses back.
    assert parse_xml(serialize(result)).root.tag == result.root.tag
