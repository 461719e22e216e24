"""``compile_stylesheet`` as a compiler: what it decides once, what it
refuses, what it memoizes, and what a compiled sheet may be shared with."""

from __future__ import annotations

import re
import sys
import threading

import pytest

from repro.errors import XPathError, XsltError
from repro.sgml.dom import Document
from repro.sgml.parser import parse_xml
from repro.sgml.serializer import serialize
from repro.xslt import compile_avt, compile_stylesheet, parse_xpath, transform
from repro.xslt import processor as processor_module
from repro.xslt import stylesheet as stylesheet_module
from repro.xslt import xpath as xpath_module
from repro.xslt.stylesheet import MAX_DEPTH
from repro.xslt.xpath import MAX_NESTING, XPathContext, compile_xpath

REPORT_XSL = """<xsl:stylesheet>
  <xsl:template match="/">
    <report query="{results/@query}">
      <xsl:apply-templates select="results/result"><xsl:sort select="@doc"/>
      </xsl:apply-templates>
      <coverage><xsl:value-of select="count(results/result)"/></coverage>
    </report>
  </xsl:template>
  <xsl:template match="result">
    <chapter doc="{@doc}" kind="fixed">
      <heading><xsl:value-of select="context"/></heading>
      <body><xsl:value-of select="normalize-space(content)"/></body>
    </chapter>
  </xsl:template>
</xsl:stylesheet>"""

RESULTS = (
    '<results query="Context=Budget">'
    + "".join(
        f'<result doc="d{n % 7}.ndoc"><context>Budget {n}</context>'
        f"<content>  funds \n for   item {n} </content></result>"
        for n in range(40)
    )
    + "</results>"
)


def sheet(body: str) -> str:
    return f'<xsl:stylesheet><xsl:template match="/">{body}</xsl:template></xsl:stylesheet>'


class TestRefusedAtCompileTime:
    """Whatever a sheet gets wrong statically, lowering sees."""

    @pytest.mark.parametrize(
        "body",
        [
            '<a x="{results/"/>',  # unterminated AVT
            '<a x="{}"/>',  # empty AVT
            '<a x="ok{1}{"/>',
            "<xsl:choose><xsl:when>x</xsl:when></xsl:choose>",  # when without test
            '<xsl:choose><b/><xsl:when test="1">x</xsl:when></xsl:choose>',  # foreign child
            '<xsl:attribute name="k">v</xsl:attribute>',  # outside a constructed element
            '<a><xsl:if test="1"><xsl:attribute name="k">v</xsl:attribute></xsl:if></a>',
            '<xsl:sort select="."/>',  # outside for-each / apply-templates
            '<xsl:for-each select="a"><b><xsl:sort select="."/></b></xsl:for-each>',
            '<xsl:when test="1">x</xsl:when>',
            "<xsl:otherwise>x</xsl:otherwise>",
            '<xsl:template match="a"/>',
            '<xsl:value_of select="."/>',
            "<xsl:frobnicate/>",
            "<xsl:value-of/>",
            '<xsl:value-of select=""/>',
            "<xsl:if>x</xsl:if>",
            "<xsl:copy-of/>",
            "<xsl:for-each>x</xsl:for-each>",
            "<xsl:element>x</xsl:element>",
            '<xsl:element name="">x</xsl:element>',
            '<xsl:element name="1x">x</xsl:element>',  # a constant that is not a name
            '<a><xsl:attribute name="a b">v</xsl:attribute></a>',
            '<xsl:for-each select="count(a)">x</xsl:for-each>',  # not a node-set
            "<xsl:for-each select=\"'a'\">x</xsl:for-each>",
            '<xsl:apply-templates select="1"/>',
            '<xsl:copy-of select="a = b"/>',
            '<xsl:value-of select="count(1)"/>',
            '<xsl:value-of select="count(a, b)"/>',  # arity
            '<xsl:value-of select="concat(a)"/>',
            '<xsl:value-of select="name(a)"/>',
            '<xsl:value-of select="normalize-space(a, b)"/>',
            '<xsl:value-of select="true(1)"/>',
            '<xsl:value-of select="@doc[@x]"/>',  # non-positional predicate on an attribute
            '<xsl:value-of select="$$$"/>',
            '<xsl:for-each select="a"><xsl:sort select=""/></xsl:for-each>',
            "<xsl:text>a<b/></xsl:text>",
            "<a>" * (MAX_DEPTH + 1) + "</a>" * (MAX_DEPTH + 1),
            '<xsl:if test="' + "(" * MAX_NESTING + "a" + ")" * MAX_NESTING + '">x</xsl:if>',
        ],
    )
    def test_refused(self, body):
        with pytest.raises(XsltError):
            compile_stylesheet(sheet(body))

    @pytest.mark.parametrize(
        "markup",
        [
            "<not-a-stylesheet/>",
            "<xsl:stylesheet><xsl:template><x/></xsl:template></xsl:stylesheet>",
            '<xsl:stylesheet><xsl:template match="a[@x]"/></xsl:stylesheet>',
            '<xsl:stylesheet><xsl:template match="a//b"/></xsl:stylesheet>',
            '<xsl:stylesheet><xsl:template match="@a"/></xsl:stylesheet>',
            '<xsl:stylesheet><xsl:template match=".."/></xsl:stylesheet>',
            "<xsl:stylesheet>stray text</xsl:stylesheet>",
            "<xsl:stylesheet><xsl:variable/></xsl:stylesheet>",
            "<xsl:stylesheet><unclosed></xsl:stylesheet>",
        ],
    )
    def test_refused_at_top_level(self, markup):
        with pytest.raises(XsltError):
            compile_stylesheet(markup)

    def test_accepted_and_ignored(self):
        # xsl:output is the caller's business; more sorts than one and
        # other children of apply-templates were always ignored.
        compiled = compile_stylesheet(
            '<xsl:stylesheet><xsl:output indent="yes"/><xsl:template match="/">'
            '<xsl:apply-templates select="*"><xsl:sort/><xsl:sort select="@n"/><b/>'
            "</xsl:apply-templates></xsl:template></xsl:stylesheet>"
        )
        assert not hasattr(compiled, "indent")
        assert serialize(transform(compiled, parse_xml("<a>x</a>"))) == "<output>x</output>"


class TestHostileInputIsATypedError:
    def test_mutual_recursion_through_an_attribute_body(self):
        looping = (
            '<xsl:stylesheet><xsl:template match="a"><x><xsl:attribute name="k">'
            '<xsl:apply-templates select="."/></xsl:attribute></x></xsl:template>'
            "</xsl:stylesheet>"
        )
        with pytest.raises(XsltError, match="nest deeper"):
            transform(looping, parse_xml("<a/>"))

    def test_a_document_as_deep_as_the_bound_allows(self):
        identity = (
            '<xsl:stylesheet><xsl:template match="*"><xsl:element name="{name()}">'
            "<xsl:apply-templates/></xsl:element></xsl:template></xsl:stylesheet>"
        )
        levels = MAX_DEPTH // 4 - 1  # element, apply-templates, apply, body: four a level
        markup = "<a>" * levels + "x" + "</a>" * levels
        assert serialize(transform(identity, parse_xml(markup))) == markup
        with pytest.raises(XsltError):
            transform(identity, parse_xml("<a>" * MAX_DEPTH + "</a>" * MAX_DEPTH))

    @pytest.mark.parametrize(
        "expression",
        [
            "(" * 2000 + "a" + ")" * 2000,
            "a[" * 500 + "1" + "]" * 500,
            "not(" * 300 + "a" + ")" * 300,
            " or ".join(["a"] * 5000),
            " and ".join(["a"] * 5000),
        ],
    )
    def test_xpath_nested_past_the_bound(self, expression):
        with pytest.raises(XPathError, match="nests deeper"):
            parse_xpath(expression)

    def test_xpath_nesting_inside_the_bound_runs(self):
        document = parse_xml("<a>" * 40 + "</a>" * 40)
        context = XPathContext(document.root, root=document.root)
        for expression in [
            "a[" * (MAX_NESTING // 2 - 1) + "a" + "]" * (MAX_NESTING // 2 - 1),
            "(" * (MAX_NESTING // 2 - 1) + "a" + ")" * (MAX_NESTING // 2 - 1),
            " or ".join(["b"] * (MAX_NESTING - 3) + ["a"]),
        ]:
            assert compile_xpath(parse_xpath(expression))(context)

    @pytest.mark.parametrize("expression", ["@[", "@", "@/a", "@1", "@'x'", "a/@(", "@@a", "@."])
    def test_only_a_name_may_follow_the_at_sign(self, expression):
        with pytest.raises(XPathError):
            parse_xpath(expression)
        assert parse_xpath("@*").steps[0].test == "*"
        assert parse_xpath("a/@B-c.d").steps[1].test == "b-c.d"

    @pytest.mark.parametrize(
        "body, source",
        [
            ('<xsl:element name="{nope}">x</xsl:element>', "<a/>"),  # used to answer <>x</>
            ('<xsl:element name="{@n}">x</xsl:element>', '<a n="1x"/>'),
            ('<xsl:element name="e {name()}">x</xsl:element>', "<a/>"),
            ('<b><xsl:attribute name="{a/@n}">v</xsl:attribute></b>', '<r><a n="x y"/></r>'),
            ('<b><xsl:attribute name="{nope}">v</xsl:attribute></b>', "<a/>"),
        ],
    )
    def test_a_computed_name_that_is_not_a_name(self, body, source):
        compiled = compile_stylesheet(sheet(f'<xsl:for-each select="*">{body}</xsl:for-each>'))
        with pytest.raises(XsltError, match="is not a name"):
            transform(compiled, parse_xml(source))

    def test_a_computed_name_that_is_one(self):
        out = transform(
            sheet(
                '<xsl:for-each select="*"><xsl:element name="{@n}:{name()}">'
                '<xsl:attribute name="_{@n}">v</xsl:attribute></xsl:element></xsl:for-each>'
            ),
            parse_xml('<a n="Ns-1.x"/>'),
        )
        assert serialize(out) == '<ns-1.x:a _Ns-1.x="v"/>'

    def test_the_document_node_can_be_selected(self):
        # ``/`` selects the document: applying templates to it used to
        # trip an assert, copying it rendered a Python repr.
        source = parse_xml("<a><b>x</b></a>")
        copied = transform(sheet('<o><xsl:copy-of select="/"/></o>'), source)
        assert serialize(copied) == "<o><a><b>x</b></a></o>"
        valued = transform(
            sheet('<xsl:for-each select="*/b"><xsl:for-each select="/"><v n="{name()}">'
                  '<xsl:value-of select="."/></v></xsl:for-each></xsl:for-each>'),
            source,
        )
        assert serialize(valued) == '<v n="">x</v>'

    def test_applying_templates_to_the_document_node_loops_typed(self):
        with pytest.raises(XsltError, match="nest deeper"):
            transform(
                '<xsl:stylesheet><xsl:template match="b">'
                '<xsl:apply-templates select="/"/></xsl:template></xsl:stylesheet>',
                parse_xml("<b>x</b>"),
            )


class TestDecidedOnce:
    def test_running_a_compiled_sheet_parses_nothing(self, monkeypatch):
        source = parse_xml(RESULTS)
        compiled = compile_stylesheet(REPORT_XSL)
        expected = serialize(transform(compiled, source))

        def parsing(*args, **kwargs):
            raise AssertionError("parsed at run time")

        for module in (stylesheet_module, processor_module, xpath_module):
            for name in ("parse_xpath", "compile_avt", "parse_xml", "compile_xpath", "_tokenize"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, parsing)
        assert serialize(transform(compiled, source)) == expected
        assert "<coverage>40</coverage>" in expected
        # ... and a memoized text needs none of them either.
        assert serialize(transform(REPORT_XSL, source)) == expected

    def test_a_constant_avt_folds_to_its_text(self):
        assert compile_avt("plain text") == "plain text"
        assert compile_avt("") == ""
        assert compile_avt("a } b") == "a } b"
        rendered = compile_avt("n={count(*)};{name()}!")
        assert callable(rendered)
        document = parse_xml("<a><b/><b/></a>")
        assert rendered(XPathContext(document.root, root=document.root)) == "n=2;a!"

    def test_a_compiled_sheet_is_immutable(self):
        compiled = compile_stylesheet(REPORT_XSL)
        with pytest.raises(AttributeError):
            compiled.ranked = {}
        with pytest.raises(TypeError):
            compiled.ranked["result"] = ()
        template = compiled.best_template(parse_xml("<result/>").root)
        assert isinstance(template.body, tuple)
        with pytest.raises(AttributeError):
            template.body = ()

    def test_templates_are_indexed_by_the_name_they_match(self):
        compiled = compile_stylesheet(
            "<xsl:stylesheet>"
            '<xsl:template match="*"><any/></xsl:template>'
            '<xsl:template match="b"><b1/></xsl:template>'
            '<xsl:template match="a/b"><ab/></xsl:template>'
            '<xsl:template match="text()"><t/></xsl:template>'
            "</xsl:stylesheet>"
        )
        assert [t.pattern.source for t in compiled.ranked["b"]] == ["a/b", "b", "*"]
        assert [t.pattern.source for t in compiled.ranked["*"]] == ["*"]
        assert [t.pattern.source for t in compiled.ranked["text()"]] == ["text()"]
        assert compiled.ranked["/"] == ()
        assert set(compiled.ranked) == {"b", "*", "text()", "/"}


class TestMemo:
    def test_text_is_compiled_once(self, monkeypatch):
        lowered = []
        stylesheet_module._compile_text.cache_clear()
        lower = stylesheet_module._lower_stylesheet
        monkeypatch.setattr(
            stylesheet_module, "_lower_stylesheet",
            lambda root: lowered.append(root) or lower(root),
        )
        text = sheet("<once-only/>")
        first = compile_stylesheet(text)
        assert compile_stylesheet(text) is first
        assert compile_stylesheet(str(text + " ")[:-1]) is first  # equal text, other object
        assert len(lowered) == 1
        assert compile_stylesheet(text + " ") is not first  # new text is a new key
        assert len(lowered) == 2

    def test_a_document_is_lowered_afresh(self):
        document = parse_xml(sheet("<fresh/>"))
        assert compile_stylesheet(document) is not compile_stylesheet(document)

    def test_a_failure_is_not_memoized(self):
        bad = sheet('<a x="{unclosed"/>')
        for _ in range(2):
            with pytest.raises(XsltError, match="unterminated"):
                compile_stylesheet(bad)
        with pytest.raises(XsltError, match="unterminated"):
            transform(bad, parse_xml("<a/>"))

    def test_the_memo_is_bounded(self):
        first = compile_stylesheet(sheet("<bounded n='0'/>"))
        for n in range(1, 40):
            compile_stylesheet(sheet(f"<bounded n='{n}'/>"))
        info = stylesheet_module._compile_text.cache_info()
        assert info.currsize <= info.maxsize == 16
        assert compile_stylesheet(sheet("<bounded n='0'/>")) is not first  # reclaimed, recompiled


def test_one_compiled_sheet_serves_sixteen_threads():
    """No per-run state in the sheet: sixteen concurrent transforms of one
    :class:`Stylesheet`, switching threads every few bytecodes, all give
    the single-threaded answer."""
    compiled = compile_stylesheet(REPORT_XSL)
    sources = [parse_xml(RESULTS) for _ in range(16)]
    expected = serialize(transform(compiled, parse_xml(RESULTS)))
    bodies: list[list[str]] = [[] for _ in sources]
    start = threading.Barrier(len(sources))

    def work(index: int) -> None:
        start.wait(timeout=30)
        for _ in range(3):
            bodies[index].append(serialize(transform(compiled, sources[index])))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(sources))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert bodies == [[expected] * 3] * 16


def test_split_and_the_regex_agree_on_whitespace():
    """``normalize-space`` is ``" ".join(s.split())``; the interpreter's
    was ``re.sub(r"\\s+", " ", s).strip()``.  They are the same function
    iff ``str.split``/``str.strip`` and ``\\s`` agree on which code points
    are whitespace — checked here over every code point."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"\s", every)) == {c for c in every if c.isspace()}
    assert {c for c in every if not c.strip()} == {c for c in every if c.isspace()}
    assert every.split() == re.sub(r"\s+", " ", every).strip().split(" ")
    for sample in ["", " ", " a  b\t\n c ", "\x1c\x1d\x1e\x1fx\x85y z\u3000", "a\u200bb\xa0c"]:
        assert " ".join(sample.split()) == re.sub(r"\s+", " ", sample).strip()


def test_transform_returns_a_parentless_root():
    result = transform(sheet("<only><child/></only>"), parse_xml("<a/>"))
    assert isinstance(result, Document)
    assert result.root.tag == "only" and result.root.parent is None
    assert result.root.children[0].parent is result.root
