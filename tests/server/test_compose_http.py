"""The compose path through HTTP: ``/search?…&xslt=name``.

The name → text binding is a WebDAV read per request; the text →
compiled sheet step is memoized by the text.  So: many requests, one
compile; new text under the same name shows on the very next response;
and a sheet that cannot compile, or loops, answers 422 — through either
door (``install_stylesheet`` refuses it, a raw ``PUT /dav/stylesheets/…``
stores it and every request is told why).
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import XsltError
from repro.netmark import Netmark
from repro.xslt import stylesheet as stylesheet_module

NDOC = "{\\ndoc1}\n{\\style Heading1}Budget\n{\\style Normal}Travel funds.\n"


def sheet(body: str) -> str:
    return f'<xsl:stylesheet><xsl:template match="/">{body}</xsl:template></xsl:stylesheet>'


def put(node: Netmark, name: str, text: str) -> None:
    assert node.api.request("PUT", f"/dav/stylesheets/{name}", text).status in (201, 204)


@pytest.fixture
def node():
    netmark = Netmark()
    netmark.ingest("r.ndoc", NDOC)
    netmark.install_stylesheet("warm-up.xsl", sheet("<warm-up/>"))  # makes /stylesheets
    return netmark


@pytest.fixture
def lowered(monkeypatch):
    """Every real compile (memo misses only) of this test, as a list."""
    calls = []
    stylesheet_module._compile_text.cache_clear()  # whatever earlier tests compiled
    lower = stylesheet_module._lower_stylesheet
    monkeypatch.setattr(
        stylesheet_module, "_lower_stylesheet", lambda root: calls.append(root) or lower(root)
    )
    return calls


class TestCompiledOncePerText:
    def test_many_requests_one_compile(self, node, lowered):
        node.install_stylesheet(
            "count.xsl", sheet('<n test="many"><xsl:value-of select="count(results/result)"/></n>')
        )
        assert len(lowered) == 1  # install compiled it, and warmed the memo
        for _ in range(25):
            response = node.http_get("/search?Context=Budget&xslt=count.xsl")
            assert response.ok and '<n test="many">1</n>' in response.body
        assert len(lowered) == 1

    def test_a_put_of_new_text_shows_on_the_next_response(self, node, lowered):
        put(node, "live.xsl", sheet("<first-text/>"))
        assert "<first-text/>" in node.http_get("/search?Context=Budget&xslt=live.xsl").body
        put(node, "live.xsl", sheet("<second-text/>"))
        assert "<second-text/>" in node.http_get("/search?Context=Budget&xslt=live.xsl").body
        # ... and the old text back again is the old compiled sheet: no recompile.
        put(node, "live.xsl", sheet("<first-text/>"))
        assert "<first-text/>" in node.http_get("/search?Context=Budget&xslt=live.xsl").body
        assert len(lowered) == 2

    def test_two_names_one_text_share_the_compiled_sheet(self, node, lowered):
        put(node, "one.xsl", sheet("<shared-text/>"))
        put(node, "two.xsl", sheet("<shared-text/>"))
        for name in ("one.xsl", "two.xsl", "one.xsl"):
            assert "<shared-text/>" in node.http_get(f"/search?Context=Budget&xslt={name}").body
        assert len(lowered) == 1

    def test_a_deleted_sheet_is_gone_whatever_the_memo_holds(self, node):
        put(node, "gone.xsl", sheet("<soon-gone/>"))
        assert node.http_get("/search?Context=Budget&xslt=gone.xsl").ok
        assert node.api.request("DELETE", "/dav/stylesheets/gone.xsl").status == 204
        response = node.http_get("/search?Context=Budget&xslt=gone.xsl")
        assert response.status == 404 and "gone.xsl" in response.body

    def test_every_composed_request_still_transforms(self, node, monkeypatch):
        # The memo holds compiled sheets, never transformed output: the
        # transform runs (through the module global the benchmark's
        # recorder patches) once per request, on that request's results.
        import repro.server.http as http_module

        runs = []
        real = http_module.transform
        monkeypatch.setattr(
            http_module, "transform", lambda *args: runs.append(args) or real(*args)
        )
        put(node, "each.xsl", sheet('<q><xsl:value-of select="results/@query"/></q>'))
        for _ in range(3):
            assert node.http_get("/search?Context=Budget&xslt=each.xsl").ok
        node.ingest("more.ndoc", NDOC.replace("Travel", "More"))
        assert node.http_get("/search?Context=Budget&xslt=each.xsl").ok
        assert len(runs) == 4
        assert len({id(args[1]) for args in runs}) == 4  # a fresh results document each time


def counted(prefix: str) -> float:
    """A counter summed over its label sets, from the registry's snapshot."""
    return sum(value for series, value in obs.snapshot().items() if series.startswith(prefix))


class TestAnUnknownSheetAnswersBeforeAnyQueryWork:
    @pytest.fixture
    def registry(self):
        previous = obs.get_registry()
        obs.push_registry()
        yield
        obs.set_registry(previous)

    @pytest.mark.parametrize("extra", ["", "&databank=all"])
    def test_the_404_runs_no_query_and_reads_no_row(self, node, registry, extra):
        for number in range(19):
            node.ingest(f"more{number}.ndoc", NDOC.replace("Travel", f"Item {number}"))
        node.create_databank("all")
        node.add_source("all", node.as_source())
        assert node.http_get("/search?Context=Budget" + extra).ok  # what a query costs
        queries = counted("repro_query_queries_total")
        rows = counted("repro_ordbms_rows_read_total")
        assert queries >= 1 and rows >= 20
        response = node.http_get("/search?Context=Budget&xslt=nope.xsl" + extra)
        assert response.status == 404 and response.body == "stylesheet not found: nope.xsl"
        assert counted("repro_query_queries_total") == queries
        assert counted("repro_ordbms_rows_read_total") == rows

    def test_a_good_request_still_resolves_compiles_and_transforms_in_place(
        self, node, monkeypatch
    ):
        import repro.server.http as http_module

        order = []
        for name in ("compile_stylesheet", "transform"):
            real = getattr(http_module, name)
            monkeypatch.setattr(
                http_module, name,
                lambda *args, _name=name, _real=real: order.append(_name) or _real(*args),
            )
        execute = node.api.engine.execute
        monkeypatch.setattr(
            node.api.engine, "execute",
            lambda *args, **kwargs: order.append("execute") or execute(*args, **kwargs),
        )
        response = node.http_get("/search?Context=Budget&xslt=warm-up.xsl&Trace=1")
        assert response.ok and response.body.startswith("<warm-up>")
        assert order == ["execute", "compile_stylesheet", "transform"]
        spans = [line.split('name="')[1].split('"')[0] for line in response.body.splitlines()
                 if "<span " in line]
        assert spans == ["request", "execute", "compose", "xslt"]


HOSTILE = {
    "applies itself": (
        '<xsl:stylesheet><xsl:template match="results">'
        '<xsl:apply-templates select="."/></xsl:template></xsl:stylesheet>',
        "nest deeper",
    ),
    "empty element name": (sheet('<xsl:element name="{nope}">x</xsl:element>'), "is not a name"),
}

UNCOMPILABLE = {
    "unterminated AVT": sheet('<a x="{results/"/>'),
    "empty AVT": sheet('<a x="{}"/>'),
    "when without test": sheet("<xsl:choose><xsl:when>x</xsl:when></xsl:choose>"),
    "foreign child of choose": sheet("<xsl:choose><b/></xsl:choose>"),
    "stray attribute": sheet('<xsl:attribute name="k">v</xsl:attribute>'),
    "stray sort": sheet('<xsl:sort select="."/>'),
    "xpath nested past the bound": sheet(
        '<xsl:if test="' + "(" * 2000 + "a" + ")" * 2000 + '">x</xsl:if>'
    ),
    "not xml": "<xsl:stylesheet><unclosed></xsl:stylesheet>",
}


class TestBadSheetsAnswer422:
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_a_sheet_that_fails_when_run(self, node, case):
        text, message = HOSTILE[case]
        node.install_stylesheet("hostile.xsl", text)  # nothing static to refuse
        for _ in range(2):
            response = node.http_get("/search?Context=Budget&xslt=hostile.xsl")
            assert response.status == 422 and message in response.body
        # The node is none the worse for it.
        assert node.http_get("/search?Context=Budget").ok

    @pytest.mark.parametrize("case", sorted(UNCOMPILABLE))
    def test_both_doors(self, node, case, lowered):
        text = UNCOMPILABLE[case]
        with pytest.raises(XsltError) as refused:
            node.install_stylesheet("bad.xsl", text)
        assert node.http_get("/search?Context=Budget&xslt=bad.xsl").status == 404  # not stored
        put(node, "bad.xsl", text)  # WebDAV stores what it is given
        for _ in range(2):  # a failure is not memoized, let alone as a success
            response = node.http_get("/search?Context=Budget&xslt=bad.xsl")
            assert response.status == 422
            assert response.body == str(refused.value)
        put(node, "bad.xsl", sheet("<mended/>"))
        assert "<mended/>" in node.http_get("/search?Context=Budget&xslt=bad.xsl").body
