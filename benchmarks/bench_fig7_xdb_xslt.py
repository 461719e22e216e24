"""FIG7 — XDB Query search + XSLT transformation (paper Fig 7).

"In this URL we may also specify an XSLT stylesheet which specifies how
the results are to be formatted and composed into a new document."

The bench drives the full Fig 7 flow through the HTTP endpoint — parse
the query URL, run context+content search, render result XML, apply the
stylesheet — and reports the stage breakdown, so the composition cost is
visible relative to the search cost.
"""

import time

import pytest
from conftest import dom_nodes_built, print_table

from repro.netmark import Netmark
from repro.sgml.parser import parse_xml
from repro.workloads import CorpusSpec, generate_corpus
from repro.xslt import compile_stylesheet, transform

REPORT_XSL = """<xsl:stylesheet>
  <xsl:template match="/">
    <report query="{results/@query}">
      <xsl:apply-templates select="results/result">
        <xsl:sort select="@doc"/>
      </xsl:apply-templates>
      <coverage><xsl:value-of select="count(results/result)"/></coverage>
    </report>
  </xsl:template>
  <xsl:template match="result">
    <chapter doc="{@doc}">
      <heading><xsl:value-of select="context"/></heading>
      <body><xsl:value-of select="normalize-space(content)"/></body>
    </chapter>
  </xsl:template>
</xsl:stylesheet>"""


@pytest.fixture(scope="module")
def node():
    netmark = Netmark("fig7")
    files = generate_corpus(CorpusSpec(documents=150, seed=300))
    netmark.ingest_many([(f.name, f.text) for f in files])
    netmark.install_stylesheet("report.xsl", REPORT_XSL)
    return netmark


def test_report_fig7_stage_breakdown(benchmark, node):
    def report():
        query = "Context=Budget"
        start = time.perf_counter()
        results = node.search(query)
        search_time = time.perf_counter() - start

        with dom_nodes_built() as built:
            start = time.perf_counter()
            result_xml = results.to_xml()
            render_time = time.perf_counter() - start

        stylesheet = compile_stylesheet(REPORT_XSL)
        start = time.perf_counter()
        composed = transform(stylesheet, result_xml)
        transform_time = time.perf_counter() - start

        print_table(
            "FIG7: XDB Query + XSLT composition stages",
            ["stage", "time", "output"],
            [
                ["search", f"{search_time * 1000:.2f}ms", f"{len(results)} sections"],
                ["render results XML", f"{render_time * 1000:.2f}ms",
                 f"{result_xml.count()} nodes listed, {built[0]} built"],
                ["XSLT transform", f"{transform_time * 1000:.2f}ms",
                 f"{len(composed.find_all('chapter'))} chapters"],
            ],
        )
        # Shape: composition produces one chapter per matched section and the
        # coverage element agrees.
        assert len(composed.find_all("chapter")) == len(results)
        assert composed.find("coverage").text_content() == str(len(results))
    benchmark.pedantic(report, rounds=1, iterations=1)


def test_report_fig7_http_end_to_end(benchmark, node):
    def report():
        response = node.http_get("/search?Context=Budget&xslt=report.xsl")
        assert response.ok
        assert "<report" in response.body and "<chapter" in response.body
        print(f"\nFIG7 end-to-end response size: {len(response.body)} chars")
    benchmark.pedantic(report, rounds=1, iterations=1)


def test_bench_search_only(benchmark, node):
    benchmark(node.search, "Context=Budget")


def test_bench_search_plus_composition(benchmark, node):
    benchmark(node.http_get, "/search?Context=Budget&xslt=report.xsl")


def test_bench_xslt_compile(benchmark):
    # Text is memoized by compile_stylesheet; a parsed Document is lowered
    # afresh on every call, so this keeps timing a real parse-and-compile.
    stylesheet = benchmark(lambda: compile_stylesheet(parse_xml(REPORT_XSL)))
    assert stylesheet is not compile_stylesheet(REPORT_XSL)


def test_bench_xslt_transform_only(benchmark, node):
    stylesheet = compile_stylesheet(REPORT_XSL)
    source = node.search("Context=Budget").to_xml()
    benchmark(transform, stylesheet, source)
