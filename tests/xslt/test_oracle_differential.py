"""The compiled executor against the interpreter it replaced.

``tests/xslt/oracle.py`` is the tree-walking ``_Processor`` and the
``isinstance``-ladder ``evaluate`` that shipped until the compose-path
rewrite.  Here every supported instruction, XPath form and pattern kind
is generated against generated ``<results>`` trees and the two must
serialise to the same bytes — or fail the same way; and the documents
the benchmarks and the IBPD app compose are pinned to the bytes the
parent commit produced.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import IbpdAssembler
from repro.errors import XsltError
from repro.netmark import Netmark
from repro.query.results import ResultSet, SectionMatch
from repro.sgml.dom import Document, Element
from repro.sgml.parser import parse_xml
from repro.sgml.serializer import serialize
from repro.workloads import CorpusSpec, generate_corpus, generate_task_plans
from repro.xslt import XPathContext, compile_stylesheet, evaluate, parse_xpath, transform
from repro.xslt.stylesheet import MAX_DEPTH

from tests.xslt import oracle
from tests.xslt.strategies import (
    LIKELY_EXPRESSIONS,
    LIKELY_PATHS,
    expressions,
    node_sets,
    result_sets,
    source_documents,
    stylesheets,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def outcome(run, *args):
    """What ``run`` answers: the serialised bytes, or the error class.

    The old interpreter had no depth bound: where it ran out of stack,
    the compiled executor's bound must have answered first.
    """
    try:
        return serialize(run(*args))
    except XsltError as error:
        return type(error)
    except RecursionError:
        return XsltError


def assert_same_values(expression, source):
    """``expression`` at every node of ``source``: both evaluators agree."""
    expr = parse_xpath(expression)
    for position, node in enumerate([source, *source.walk()], start=1):
        context = XPathContext(node, position, position + 1, root=source.root)
        found, expected = evaluate(expr, context), oracle.evaluate(expr, context)
        assert _plain(found) == _plain(expected), (expression, serialize(node))


def _plain(value):
    """Node-sets compared by identity of their nodes, in order."""
    if isinstance(value, list):
        return [item if isinstance(item, str) else id(item) for item in value]
    return value


class TestGeneratedSheets:
    @given(stylesheets(), source_documents())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_transform_equals_the_interpreter(self, stylesheet_xml, source):
        # The strategy only builds statically valid sheets: a refusal
        # here would be the compiler rejecting what it should accept.
        compiled = compile_stylesheet(stylesheet_xml)
        expected = outcome(oracle.transform, stylesheet_xml, source)
        assert outcome(transform, compiled, source) == expected

    @given(st.lists(st.one_of(node_sets, expressions), min_size=4, max_size=8), source_documents())
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_expressions_equal_the_interpreter(self, several, source):
        for expression in several:
            assert_same_values(expression, source)


# ---------------------------------------------------------------------------
# The listing tree: ``to_xml`` lists each match's ``<result>``, adopting none
# ---------------------------------------------------------------------------


def owned(listing: Document) -> Document:
    """A deep copy of ``listing`` in which every node has a real parent."""
    return Document(listing.root.clone(), name=listing.name)


def listed_sections(*titles: str) -> ResultSet:
    results = ResultSet("Context=Budget")
    for number, title in enumerate(titles, start=1):
        section = Element("section")
        section.make_child("context").append_text(title)
        content = section.make_child("content")
        content.append_text(f"body {number} ")
        content.make_child("b").append_text("bold")
        results.add(SectionMatch(number, f"d{number}.ndoc", title, f"body {number} bold", section))
    results.add(SectionMatch(9, "whole.txt", "whole.txt", "a document-level hit", None, "llis"))
    return results


def sheet(*templates: str) -> str:
    return "<xsl:stylesheet>" + "".join(templates) + "</xsl:stylesheet>"


#: One more rule for a generated sheet, sure to look upward from where
#: the listing starts: a path pattern over it and a walk through ``..``.
_upward_rules = st.builds(
    lambda pattern, path, sort: (
        f'<xsl:template match="{pattern}"><xsl:for-each select="{path}">{sort}'
        '<up n="{name()}" q="{@query}" p="{position()}/{last()}"/></xsl:for-each>'
        "<xsl:apply-templates/></xsl:template></xsl:stylesheet>"
    ),
    st.sampled_from(["*/result", "results/result", "result/*", "result", "*/*", "results/*/*"]),
    st.sampled_from(["..", "../*", "../result", "*/..", "../..", "../../*", "//result/..", "/*"]),
    st.sampled_from(["", '<xsl:sort select="@doc" order="descending"/>']),
)


class TestTheListingTree:
    """A stylesheet cannot tell the shared tree from an owned one."""

    @given(stylesheets(), st.one_of(st.just("</xsl:stylesheet>"), _upward_rules), result_sets())
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_listed_results_transform_like_an_owned_copy(self, stylesheet_xml, rule, results):
        stylesheet_xml = stylesheet_xml.replace("</xsl:stylesheet>", rule)
        compiled = compile_stylesheet(stylesheet_xml)
        first, second = results.to_xml(), results.to_xml()
        rendered = serialize(first)
        expected = outcome(oracle.transform, stylesheet_xml, owned(first))
        assert outcome(transform, compiled, first) == expected
        assert outcome(transform, compiled, second) == expected  # rendered twice
        assert serialize(second) == rendered  # a transform edits nothing it reads
        assert all(match.element.parent is None for match in results)

    def test_the_parent_of_a_result_is_the_root_that_lists_it(self):
        stylesheet_xml = sheet(
            '<xsl:template match="/"><o><xsl:apply-templates select="results/result"/></o>'
            "</xsl:template>",
            '<xsl:template match="result"><xsl:for-each select="..">'
            '<up n="{name()}" q="{@query}" of="{count(result)}"/></xsl:for-each>'
            '<xsl:for-each select="content/../.."><top n="{name()}"/></xsl:for-each>'
            "</xsl:template>",
        )
        results = listed_sections("Budget", "Cost")
        composed = serialize(transform(stylesheet_xml, results.to_xml()))
        assert composed == serialize(oracle.transform(stylesheet_xml, owned(results.to_xml())))
        assert composed.count('<up n="results" q="Context=Budget" of="3"/>') == 3
        assert composed.count('<top n="results"/>') == 3

    def test_a_path_pattern_sees_the_listing_root(self):
        stylesheet_xml = sheet(
            '<xsl:template match="results/result"><hit doc="{@doc}"/></xsl:template>',
            '<xsl:template match="result/content"><never/></xsl:template>',
            '<xsl:template match="section/result"><never/></xsl:template>',
        )
        results = listed_sections("Budget")
        composed = serialize(transform(stylesheet_xml, results.to_xml()))
        assert composed == serialize(oracle.transform(stylesheet_xml, owned(results.to_xml())))
        assert composed == '<output><hit doc="d1.ndoc"/><hit doc="whole.txt"/></output>'

    def test_absolute_paths_count_the_listed_results(self):
        stylesheet_xml = sheet(
            '<xsl:template match="/"><o><xsl:apply-templates select="//context"/></o>'
            "</xsl:template>",
            '<xsl:template match="context"><n all="{count(/results/result)}" '
            'beside="{count(../../result)}" local="{count(/results/result[@source=\'local\'])}"/>'
            "</xsl:template>",
        )
        results = listed_sections("Budget", "Cost", "Travel")
        composed = serialize(transform(stylesheet_xml, results.to_xml()))
        assert composed == serialize(oracle.transform(stylesheet_xml, owned(results.to_xml())))
        assert composed.count('<n all="4" beside="4" local="3"/>') == 4

    def test_copy_of_makes_an_owned_copy_and_leaves_the_original_listed(self):
        stylesheet_xml = sheet(
            '<xsl:template match="/"><o><xsl:copy-of select="results/result"/></o></xsl:template>'
        )
        results = listed_sections("Budget", "Cost")
        listing = results.to_xml()
        before = serialize(listing)
        output = transform(stylesheet_xml, listing).root
        assert serialize(output) == serialize(oracle.transform(stylesheet_xml, owned(listing)))
        copies = output.find_all("result")
        assert [copy.get("doc") for copy in copies] == ["d1.ndoc", "d2.ndoc", "whole.txt"]
        for copy, match in zip(copies, results):
            assert copy is not match.element and copy.parent is output
            assert copy.find("content").parent is copy
            assert serialize(copy) == serialize(match.element)
            assert match.element.parent is None
            assert match.element.find("content").parent is match.element
        assert serialize(listing) == before
        assert listing.root.children == [match.element for match in results]


#: Trees with repeated names, nesting, attributes, mixed content and ties.
TREES = [
    '<results query="q" n="2"><result doc="b" n="10"><context>Budget</context>'
    "<content>  We   request\n funds </content></result>"
    '<result doc="a" n="9"><context>Cost</context><content>B</content>'
    '<section n="1"><section lang="en">deep<note/></section>tail</section></result>'
    '<result doc="a" n="x"><context>alpha</context><content/></result>lone</results>',
    '<section doc="x y"><result n="1" doc="1">7<result n="1"><context>alpha</context></result>'
    "</result><note>B</note><result/><context> beta  gamma </context></section>",
    # equal only through a later node of the right-hand set
    '<results><result n="3"><context>b</context><content>a</content><content>b</content>'
    "</result></results>",
    "<results/>",
]

TREE_IDS = ["results", "section-root", "late-equal", "empty"]

SORTS = [
    "",
    "<xsl:sort/>",
    '<xsl:sort select="@n" data-type="number"/>',
    '<xsl:sort select="@n" data-type="number" order="descending"/>',
    '<xsl:sort select="@doc" order="descending"/>',
    '<xsl:sort select="concat(last(), position())" order="descending"/>',
    '<xsl:sort select="name()"/><xsl:sort select="ignored-second-key"/>',
]

#: At every element: iterate PATH both ways, showing position and size.
EVERY_NODE_SHEET = """<xsl:stylesheet>
  <xsl:template match="/">
    <o><xsl:for-each select="//*">
      <at n="{name()}" p="{position()}/{last()}">
        <xsl:for-each select="PATH"><SORT/>
          <i v="{concat(position(), '/', last())}"><xsl:value-of select="name()"/>
            <xsl:value-of select="normalize-space(text())"/></i>
        </xsl:for-each>
        <xsl:apply-templates select="PATH"><SORT/></xsl:apply-templates>
      </at>
    </xsl:for-each></o>
  </xsl:template>
  <xsl:template match="*"><e p="{position()}" of="{last()}" n="{name()}"/></xsl:template>
  <xsl:template match="result/context"><c><xsl:value-of select="."/></c></xsl:template>
  <xsl:template match="section"><s p="{position()}"><xsl:apply-templates/></s></xsl:template>
  <xsl:template match="text()"><t p="{position()}"><xsl:value-of select="."/></t></xsl:template>
</xsl:stylesheet>"""

#: At every element: EXPR as a value, a test, an AVT, a sort key and a branch.
EVERY_EXPRESSION_SHEET = """<xsl:stylesheet>
  <xsl:template match="/">
    <o a="{EXPR}" b="x{EXPR}y{EXPR}"><xsl:apply-templates select="//*"/></o>
  </xsl:template>
  <xsl:template match="*">
    <e v="-{EXPR}-"><xsl:value-of select="EXPR"/>
      <xsl:if test="EXPR">T</xsl:if>
      <xsl:choose><xsl:when test="not(EXPR)">n</xsl:when>
        <xsl:when test="EXPR">y</xsl:when><xsl:otherwise>o</xsl:otherwise></xsl:choose>
      <xsl:for-each select="*"><xsl:sort select="EXPR"/><xsl:value-of select="position()"/>
      </xsl:for-each>
      <xsl:element name="k{count(*)}"><xsl:attribute name="a-{name()}"><xsl:value-of
        select="EXPR"/>!</xsl:attribute><xsl:copy-of select="@doc"/><xsl:copy-of select="*[1]"/>
        <xsl:copy-of select="text()"/><xsl:text> </xsl:text></xsl:element>
    </e>
  </xsl:template>
</xsl:stylesheet>"""


class TestEveryFormOnFixedTrees:
    """Deterministic floor under the generated tests: every curated path
    and expression at every node of :data:`TREES`."""

    @pytest.mark.parametrize("markup", TREES, ids=TREE_IDS)
    def test_paths_and_expressions(self, markup):
        source = parse_xml(markup)
        for expression in LIKELY_PATHS + LIKELY_EXPRESSIONS:
            assert_same_values(expression, source)

    @pytest.mark.parametrize("markup", TREES, ids=TREE_IDS)
    @pytest.mark.parametrize("sort", SORTS, ids=range(len(SORTS)))
    def test_every_path_iterated_and_sorted(self, markup, sort):
        """``for-each`` and ``apply-templates`` over each path, at each
        element, under each sort: positions, sizes, order, dispatch."""
        source = parse_xml(markup)
        for path in LIKELY_PATHS:
            stylesheet_xml = EVERY_NODE_SHEET.replace("PATH", path).replace("<SORT/>", sort)
            assert outcome(transform, stylesheet_xml, source) == outcome(
                oracle.transform, stylesheet_xml, source
            ), (path, sort)

    @pytest.mark.parametrize("markup", TREES, ids=TREE_IDS)
    def test_built_in_rules_number_what_they_visit(self, markup):
        stylesheet_xml = (
            '<xsl:stylesheet><xsl:template match="context">'
            '<c p="{position()}/{last()}"/></xsl:template>'
            '<xsl:template match="section/text()">[<xsl:value-of select="position()"/>]'
            "</xsl:template></xsl:stylesheet>"
        )
        source = parse_xml(markup)
        assert outcome(transform, stylesheet_xml, source) == outcome(
            oracle.transform, stylesheet_xml, source
        )

    @pytest.mark.parametrize("markup", TREES, ids=TREE_IDS)
    def test_every_expression_rendered_and_tested(self, markup):
        source = parse_xml(markup)
        for expression in LIKELY_EXPRESSIONS:
            stylesheet_xml = EVERY_EXPRESSION_SHEET.replace("EXPR", expression)
            assert outcome(transform, stylesheet_xml, source) == outcome(
                oracle.transform, stylesheet_xml, source
            ), expression


def test_ties_and_priorities_rank_like_the_scan():
    """``best_template``'s index against the old scan over every template."""
    stylesheet_xml = (
        "<xsl:stylesheet>"
        '<xsl:template match="*"><any><xsl:apply-templates/></any></xsl:template>'
        '<xsl:template match="b"><first/></xsl:template>'
        '<xsl:template match="a/b"><nested><xsl:apply-templates/></nested></xsl:template>'
        '<xsl:template match="b"><second><xsl:apply-templates/></second></xsl:template>'
        '<xsl:template match="*/c"><under-any/></xsl:template>'
        '<xsl:template match="text()"><t/></xsl:template>'
        '<xsl:template match="b/text()"><bt/></xsl:template>'
        '<xsl:template match="/"><top/></xsl:template>'
        '<xsl:template match="/"><top2><xsl:apply-templates/></top2></xsl:template>'
        '<xsl:template match="d/b/c"><grandchild/></xsl:template>'
        '<xsl:template match="a/b/c"><never/></xsl:template>'
        "</xsl:stylesheet>"
    )
    source = parse_xml("<a><b>x</b><c/><d><b>y<c/></b></d>z</a>")
    assert serialize(transform(stylesheet_xml, source)) == serialize(
        oracle.transform(stylesheet_xml, source)
    )
    scan = oracle._Processor(oracle._templates_of(stylesheet_xml), source)
    compiled = compile_stylesheet(stylesheet_xml)
    chosen = set()
    for node in [source, *source.walk()]:
        expected = scan._best_template(node)
        found = compiled.best_template(node)
        assert found.order == expected[2]
        chosen.add(found.order)
    assert chosen == {0, 2, 3, 4, 5, 6, 8, 9}  # every rule but the shadowed three


# ---------------------------------------------------------------------------
# Fixed corpus: byte-identical to the parent commit
# ---------------------------------------------------------------------------

#: sha256 over the bodies (each followed by a NUL) as the parent commit —
#: the interpreter — answered them.
PARENT_SHA256 = {
    "search_compose": "0b3ffe12546aaa52fddcb53be592e39bc1776c47612b8d288105e7e4db1383ab",
    "fig7": "7a84336d66c5b857446d10238c1c0964a8e78a49575cfd32d06408808c171126",
    "ibpd": "1e5e5384ddd4abca5c2ae248ee16c13eb464ab1b4a15cf4b65d961d46f525cd0",
}


def _sha256(bodies: list[str]) -> str:
    digest = hashlib.sha256()
    for body in bodies:
        digest.update(body.encode("utf-8") + b"\0")
    return digest.hexdigest()


def _load(path: Path):
    """A benchmark script as a module (``benchmarks/`` is not a package)."""
    spec = importlib.util.spec_from_file_location(f"benchmarks_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


class TestFixedCorpus:
    def test_the_60_search_compose_bodies(self):
        plans = _load(REPO_ROOT / "benchmarks" / "e2e" / "plans.py")
        node = Netmark("search_compose")
        node.ingest_many([(g.name, g.text) for g in plans.build_plan("search_compose", 1).corpus])
        node.install_stylesheet(plans.STYLESHEET, plans.REPORT_XSL)
        bodies = []
        for target in plans.compose_queries():
            response = node.http_get(target)
            assert response.ok
            bodies.append(response.body)
            query = target.split("?", 1)[1].rsplit("&xslt=", 1)[0]
            results = node.search(query).to_xml()
            assert serialize(transform(plans.REPORT_XSL, results)) == serialize(
                oracle.transform(plans.REPORT_XSL, results)
            )
        assert len(bodies) == 60
        assert _sha256(bodies) == PARENT_SHA256["search_compose"]

    def test_bench_fig7_report(self):
        bench = (REPO_ROOT / "benchmarks" / "bench_fig7_xdb_xslt.py").read_text()
        report_xsl = bench.split('REPORT_XSL = """', 1)[1].split('"""', 1)[0]
        node = Netmark("fig7")
        files = generate_corpus(CorpusSpec(documents=150, seed=300))
        node.ingest_many([(f.name, f.text) for f in files])
        node.install_stylesheet("report.xsl", report_xsl)
        response = node.http_get("/search?Context=Budget&xslt=report.xsl")
        assert response.ok
        assert _sha256([response.body]) == PARENT_SHA256["fig7"]
        results = node.search("Context=Budget").to_xml()
        assert serialize(transform(report_xsl, results)) == serialize(
            oracle.transform(report_xsl, results)
        )

    def test_ibpd_document(self):
        files, _ = generate_task_plans(25, seed=8)
        assembler = IbpdAssembler()
        assert assembler.load_task_plans(files) == 25
        assert _sha256([serialize(assembler.assemble().document)]) == PARENT_SHA256["ibpd"]


def test_depth_bound_is_where_the_interpreter_ran_out_of_stack():
    looping = (
        '<xsl:stylesheet><xsl:template match="results">'
        '<xsl:apply-templates select="."/></xsl:template></xsl:stylesheet>'
    )
    source = parse_xml("<results/>")
    with pytest.raises(RecursionError):
        oracle.transform(looping, source)
    with pytest.raises(XsltError, match=str(MAX_DEPTH)):
        transform(looping, source)
