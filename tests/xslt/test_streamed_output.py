"""The composed answer is a stream: what ``transform`` writes into a
request's writer, against the DOM the tree path builds.

``transform(sheet, source, writer, stamps)`` replays the run's events into
``writer``; ``transform(sheet, source)`` replays the same events into a
tree, and the interpreter in ``tests/xslt/oracle.py`` builds a tree of its
own.  Each tree, written by ``XmlWriter.node`` under the same stamps, must
be the stream's bytes, compact and pretty, for every sheet the
differential tests run, the benchmark's ``report.xsl`` and the IBPD sheet.
"""

from __future__ import annotations

import gc
import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.apps import IbpdAssembler
from repro.apps.ibpd import IBPD_STYLESHEET
from repro.errors import XsltError
from repro.netmark import Netmark
from repro.sgml.dom import Document, Node
from repro.sgml.parser import parse_xml
from repro.sgml.serializer import XmlWriter
from repro.workloads import CorpusSpec, generate_corpus, generate_task_plans
from repro.xslt import transform

from tests.xslt import oracle
from tests.xslt.strategies import LIKELY_EXPRESSIONS, LIKELY_PATHS, source_documents, stylesheets
from tests.xslt.test_oracle_differential import (
    BUILT_IN_RULES_SHEET,
    EVERY_EXPRESSION_SHEET,
    EVERY_NODE_SHEET,
    LISTING_SHEETS,
    SORTS,
    TIES_SHEET,
    TIES_TREE,
    TREE_IDS,
    TREES,
    listed_sections,
    owned,
    sheet,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The envelope's transport stamps, as a cached reply under brownout gets them.
STAMPS = {"cached": "true", "degraded": "brownout"}


def _load_plans():
    spec = importlib.util.spec_from_file_location(
        "benchmarks_plans", REPO_ROOT / "benchmarks" / "e2e" / "plans.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def streamed(stylesheet_xml: str, source: Document, indent, stamps) -> str:
    """The HTTP path: events into the writer, the root left open for a
    footer (closed here, as the request closes it)."""
    writer = XmlWriter(indent)
    assert transform(stylesheet_xml, source, writer, stamps) is None
    writer.end()
    return writer.getvalue()


def written(document: Document, indent, stamps) -> str:
    """A result tree under the envelope: the stamps after its root's
    attributes, its children walked by ``XmlWriter.node``."""
    writer = XmlWriter(indent)
    writer.start(document.root.tag, document.root.attributes | stamps)
    for child in document.root.children:
        writer.node(child)
    writer.end()
    return writer.getvalue()


def assert_parity(stylesheet_xml: str, source: Document) -> None:
    """Stream ≡ tree path ≡ interpreter, in both modes, with and without
    stamps — or all three refuse, and the refused writer holds nothing."""
    try:
        expected = oracle.transform(stylesheet_xml, owned(source))
    except (XsltError, RecursionError):
        with pytest.raises(XsltError):
            transform(stylesheet_xml, source)
        writer = XmlWriter(2)
        with pytest.raises(XsltError):
            transform(stylesheet_xml, source, writer, STAMPS)
        assert writer.getvalue() == ""
        return
    tree = transform(stylesheet_xml, source)
    assert tree.root.synthetic == expected.root.synthetic
    for indent in (None, 2):
        for stamps in ({}, STAMPS):
            bytes_ = written(expected, indent, stamps)
            assert written(tree, indent, stamps) == bytes_
            assert streamed(stylesheet_xml, source, indent, stamps) == bytes_


class TestEveryDifferentialSheet:
    @pytest.mark.parametrize("markup", TREES, ids=TREE_IDS)
    def test_every_path_sheet(self, markup):
        source = parse_xml(markup)
        for path in LIKELY_PATHS:
            for sort in SORTS:
                assert_parity(
                    EVERY_NODE_SHEET.replace("PATH", path).replace("<SORT/>", sort), source
                )

    @pytest.mark.parametrize("markup", TREES, ids=TREE_IDS)
    def test_every_expression_sheet(self, markup):
        source = parse_xml(markup)
        for expression in LIKELY_EXPRESSIONS:
            assert_parity(EVERY_EXPRESSION_SHEET.replace("EXPR", expression), source)

    @pytest.mark.parametrize("markup", TREES, ids=TREE_IDS)
    def test_the_built_in_rules_sheet(self, markup):
        assert_parity(BUILT_IN_RULES_SHEET, parse_xml(markup))

    def test_the_ties_sheet(self):
        assert_parity(TIES_SHEET, parse_xml(TIES_TREE))

    @pytest.mark.parametrize("name", sorted(LISTING_SHEETS))
    def test_the_listing_sheets(self, name):
        assert_parity(LISTING_SHEETS[name], listed_sections("Budget", "Cost").to_xml())

    @given(stylesheets(), source_documents())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_generated_sheets(self, stylesheet_xml, source):
        assert_parity(stylesheet_xml, source)


class TestTheComposedDocuments:
    def test_report_xsl_over_the_compose_workload(self):
        plans = _load_plans()
        node = Netmark("parity")
        node.ingest_many(
            [(g.name, g.text) for g in plans.build_plan("search_compose", 1).corpus[:60]]
        )
        queries = {
            target.split("?", 1)[1].rsplit("&xslt=", 1)[0] for target in plans.compose_queries()
        }
        for query in sorted(queries)[:12]:
            assert_parity(plans.REPORT_XSL, node.search(query).to_xml())

    def test_the_fig7_report(self):
        bench = (REPO_ROOT / "benchmarks" / "bench_fig7_xdb_xslt.py").read_text()
        report_xsl = bench.split('REPORT_XSL = """', 1)[1].split('"""', 1)[0]
        node = Netmark("fig7")
        node.ingest_many(
            [(f.name, f.text) for f in generate_corpus(CorpusSpec(documents=40, seed=300))]
        )
        assert_parity(report_xsl, node.search("Context=Budget").to_xml())

    def test_the_ibpd_sheet(self):
        files, _ = generate_task_plans(12, seed=8)
        assembler = IbpdAssembler()
        assembler.load_task_plans(files)
        assert_parity(IBPD_STYLESHEET, assembler.netmark.search("Context=Budget").to_xml())


class TestTheRootRule:
    """One top-level element with only whitespace text beside it is the
    root; anything else goes inside a synthetic ``<output>``."""

    SOURCE = "<r><x>1</x><x>2</x></r>"

    @pytest.mark.parametrize(
        "body,compact",
        [
            # whitespace on both sides of the one element is dropped
            ('<xsl:text> \n </xsl:text><only a="1"><xsl:value-of select="r/x"/></only>'
             "<xsl:text>\t</xsl:text>",
             '<only a="1" cached="true" degraded="brownout">1</only>'),
            # a copied element can be the root too
            ('<xsl:text> </xsl:text><xsl:copy-of select="r/x[2]"/>',
             '<x cached="true" degraded="brownout">2</x>'),
            ("<a/><b/>", '<output cached="true" degraded="brownout"><a/><b/></output>'),
            ("x<only/>", '<output cached="true" degraded="brownout">x<only/></output>'),
            ('<only/><xsl:value-of select="r/x"/>',
             '<output cached="true" degraded="brownout"><only/>1</output>'),
            ("<xsl:text> </xsl:text>", '<output cached="true" degraded="brownout"> </output>'),
            ("", '<output cached="true" degraded="brownout"/>'),
        ],
        ids=["whitespace-beside", "copied-root", "two-elements", "text-before", "text-after",
             "only-whitespace", "nothing"],
    )
    def test_the_root(self, body, compact):
        source = parse_xml(self.SOURCE)
        stylesheet_xml = sheet(f'<xsl:template match="/">{body}</xsl:template>')
        assert streamed(stylesheet_xml, source, None, STAMPS) == compact
        assert_parity(stylesheet_xml, source)
        wrapped = compact.startswith("<output")
        assert transform(stylesheet_xml, source).root.synthetic == wrapped


class TestTheCaseRule:
    """A DOM lower-cases every tag; a computed ``xsl:element`` name must come
    out lower-cased on the streamed path too.  Attribute names keep their case."""

    SHEET = sheet(
        '<xsl:template match="/"><xsl:apply-templates select="r/*"/></xsl:template>',
        '<xsl:template match="part"><xsl:element name="{@kind}">'
        '<xsl:attribute name="Kind"><xsl:value-of select="@kind"/></xsl:attribute>'
        '<xsl:element name="Title"><xsl:value-of select="."/></xsl:element>'
        "</xsl:element></xsl:template>",
    )
    SOURCE = '<r><part kind="Chapter">One</part><part kind="APPENDIX">Two</part></r>'

    def test_a_computed_element_name_is_lower_cased(self):
        source = parse_xml(self.SOURCE)
        assert streamed(self.SHEET, source, None, {}) == (
            '<output><chapter Kind="Chapter"><title>One</title></chapter>'
            '<appendix Kind="APPENDIX"><title>Two</title></appendix></output>'
        )
        assert_parity(self.SHEET, source)


def test_composed_requests_leave_no_dom_garbage():
    """A composed request builds no result tree, so it leaves no cyclic
    garbage: with ``gc.DEBUG_SAVEALL`` every unreachable object the
    collector finds is kept in ``gc.garbage``, and none is a DOM node."""
    plans = _load_plans()
    node = Netmark("garbage")
    node.ingest_many([(g.name, g.text) for g in plans.build_plan("search_compose", 1).corpus[:60]])
    node.install_stylesheet(plans.STYLESHEET, plans.REPORT_XSL)
    targets = sorted(set(plans.compose_queries()))[:20]
    for target in targets:  # admit every entry and compile the sheet first
        assert node.http_get(target).ok
    cache = node.api.engine.cache
    hits = cache.hits
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for target in targets * 3:
            assert node.http_get(target).ok
        gc.collect()
        nodes = sum(isinstance(garbage, Node) for garbage in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert cache.hits == hits + 3 * len(targets)  # replays: no row was read
    assert nodes == 0
