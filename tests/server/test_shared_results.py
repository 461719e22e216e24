"""Real threads over one cached entry (north-star aim 3).

A cached match holds the ``<result>`` element it renders, and every
replay *lists* that element — plain, traced, transformed, copied by
``xsl:copy-of``, walked upward through ``..`` — from whichever
``WorkerPool`` thread serves it.  Nothing may write to it after it is
published.  The drill runs real threads over three entries and compares
every body with the single-threaded bare engine's; the AST check pins who
may touch a match's element at all.
"""

from __future__ import annotations

import ast
import re
import sys
import threading
from pathlib import Path

import repro
from repro.netmark import Netmark
from repro.server.http import NetmarkHttpApi
from repro.sgml.serializer import serialize

REPORT_XSL = """<xsl:stylesheet>
  <xsl:template match="/">
    <report query="{results/@query}"><xsl:apply-templates select="results/result"/></report>
  </xsl:template>
  <xsl:template match="result">
    <chapter doc="{@doc}"><heading><xsl:value-of select="context"/></heading>
      <body><xsl:value-of select="normalize-space(content)"/></body></chapter>
  </xsl:template>
</xsl:stylesheet>"""

#: Looks upward from inside a result and copies whole results out.
UPWARD_XSL = """<xsl:stylesheet>
  <xsl:template match="/"><o><xsl:apply-templates select="//context"/>
    <xsl:copy-of select="results/result[1]"/></o></xsl:template>
  <xsl:template match="results/result/context">
    <c doc="{../@doc}" q="{../../@query}" n="{count(../../result)}" all="{count(/results/result)}">
      <xsl:copy-of select=".."/></c></xsl:template>
</xsl:stylesheet>"""

KEYS = ["Context=Budget", "Content=shuttle", "Context=Technology+Gap&Content=shrinking"]
VARIANTS = ["&xslt=report.xsl", "", "&Trace=1", "&xslt=upward.xsl"]
TARGETS = [f"/search?{key}{variant}" for key in KEYS for variant in VARIANTS]
THREADS, REQUESTS = 8, 200


def comparable(body: str) -> str:
    """A body without what differs by design: the stamp and the trace."""
    body = body.replace(' cached="true"', "")
    return re.sub(r"\n *<trace>.*</trace>", "", body, flags=re.DOTALL)


def cached_elements(node: Netmark) -> list:
    entries = node.api.engine.cache._entries.values()
    return [match.element for matches, *_ in entries for match in matches]


def test_eight_threads_replay_three_entries(loaded_netmark):
    node = loaded_netmark
    node.install_stylesheet("report.xsl", REPORT_XSL)
    node.install_stylesheet("upward.xsl", UPWARD_XSL)
    bare = NetmarkHttpApi(node.store, node.api.dav)  # no cache: every answer computed
    assert bare.engine.cache is None
    expected = {target: comparable(bare.get(target).body) for target in TARGETS}
    assert all("<result " in body or "<chapter " in body or "<c " in body
               for body in expected.values())
    for target in TARGETS:  # admit the three entries, single-threaded
        assert comparable(node.http_get(target).body) == expected[target]
    elements = cached_elements(node)
    assert len(elements) >= len(KEYS)
    before = {id(element): serialize(element) for element in elements}
    counters = node.api.engine.cache.snapshot_counters()

    wrong: list[str] = []
    start = threading.Barrier(THREADS)

    def client(offset: int) -> None:
        start.wait(timeout=60)
        for number in range(REQUESTS):
            target = TARGETS[(offset * 5 + number) % len(TARGETS)]
            response = node.api.get(target)
            if response.status != 200 or comparable(response.body) != expected[target]:
                wrong.append(target)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(n,)) for n in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    replayed = node.api.engine.cache.snapshot_counters()
    assert replayed["hits"] == counters["hits"] + THREADS * REQUESTS  # every one a replay
    assert replayed["misses"] == counters["misses"]
    after = cached_elements(node)  # the same objects (the LRU order moved), the same bytes
    assert {id(element): serialize(element) for element in after} == before
    assert all(element.parent is None for element in after)
    assert all(child.parent is element for element in after for child in element.children)


class TestWhoMayTouchAMatchsElement:
    """A published ``<result>`` is immutable: ``query/results.py`` builds
    it and lists it, and nothing else under ``src/`` may name it — not to
    append it (``Element.append`` re-parents), detach it or set an
    attribute on it.  A reader goes through ``ResultSet.to_xml``.  A second
    user must say how a shared element stays unedited, then join the list."""

    USERS = {"query/results.py"}

    def test_only_results_py_names_the_element(self):
        root = Path(repro.__file__).parent
        found = set()
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr in {"element", "_element"}:
                    found.add(path.relative_to(root).as_posix())
        assert found == self.USERS

    def test_the_evaluator_reads_parent_through_one_helper(self):
        """``parent_of`` is what makes a listed element a child of the root
        that lists it: an upward step that reads ``.parent`` itself would
        see ``None``.  (``processor.transform`` *writes* its output root's.)"""
        root = Path(repro.__file__).parent / "xslt"
        readers = []
        for path in sorted(root.glob("*.py")):
            for function in ast.walk(ast.parse(path.read_text())):
                if not isinstance(function, ast.FunctionDef):
                    continue
                for node in ast.walk(function):
                    if (
                        isinstance(node, ast.Attribute)
                        and node.attr == "parent"
                        and isinstance(node.ctx, ast.Load)
                    ):
                        readers.append(function.name)
        assert readers == ["parent_of"]
