"""Edge-case sweep across subsystems (error paths and small helpers)."""

import pytest

from repro.errors import (
    CorpusFormatError,
    ServerError,
    SgmlSyntaxError,
    StoreError,
    WebDavError,
)
from repro.federation import SourceStats, ContentOnlySource
from repro.netmark import Netmark
from repro.query.results import SectionMatch
from repro.server.http import NetmarkHttpApi
from repro.server.webdav import WebDavServer
from repro.sgml.dom import Document, Element
from repro.store import XmlStore
from repro.workloads.corpus import _render
from repro.xslt.xpath import XPathContext, node_string_value, to_boolean


class TestErrorTypes:
    def test_webdav_error_carries_status(self):
        error = WebDavError(423, "locked")
        assert error.status == 423
        assert "423" in str(error)

    def test_sgml_error_carries_position(self):
        error = SgmlSyntaxError("bad tag", line=4, column=2)
        assert error.line == 4
        assert "line 4" in str(error)

    def test_sgml_error_without_position(self):
        assert str(SgmlSyntaxError("plain")) == "plain"


class TestComposeMultiRoot:
    def test_multiple_roots_detected(self):
        store = XmlStore()
        result = store.store_text("# A\nx\n", "a.md")
        # Manually corrupt: insert a second parentless row for the doc.
        store.database.insert(
            "XML",
            {
                "NODEID": 9999,
                "DOC_ID": result.doc_id,
                "PARENTROWID": None,
                "PARENTNODEID": None,
                "NODETYPE": 1,
                "NODENAME": "rogue",
                "ORDINAL": 0,
            },
        )
        with pytest.raises(StoreError):
            store.document(result.doc_id)


class TestHttpApiStandalone:
    def test_databank_query_without_router(self):
        store = XmlStore()
        api = NetmarkHttpApi(store, WebDavServer(), router=None)
        response = api.get("/search?Context=X&databank=d")
        assert response.status == 422

    def test_databanks_route_without_router(self):
        api = NetmarkHttpApi(XmlStore(), WebDavServer(), router=None)
        assert api.get("/databanks").ok


class TestFacadeEdges:
    def test_ingest_raises_when_file_not_reported(self, monkeypatch):
        node = Netmark("edge")
        # Sabotage the daemon so the dropped file is never reported.
        monkeypatch.setattr(node.daemon, "poll", lambda: [])
        with pytest.raises(ServerError):
            node.ingest("y.md", "# Y\nbody\n")


class TestSmallHelpers:
    def test_source_stats_snapshot(self):
        source = ContentOnlySource("s", {"d.md": "words"})
        stats = SourceStats.of(source)
        assert stats.name == "s"
        assert stats.queries_served == 0

    def test_brief_no_truncation(self):
        match = SectionMatch(1, "f.md", "H", "short", source="src")
        assert match.brief() == "[src:f.md] H: short"

    def test_render_unknown_format_rejected(self):
        with pytest.raises(CorpusFormatError):
            _render("docx", "T", [])

    def test_node_string_value_document(self):
        root = Element("a")
        root.append_text("hello")
        assert node_string_value(Document(root)) == "hello"

    def test_to_boolean_varieties(self):
        assert to_boolean([Element("a")]) is True
        assert to_boolean([]) is False
        assert to_boolean("") is False
        assert to_boolean(0.0) is False
        assert to_boolean(2.0) is True

    def test_xpath_context_with_node(self):
        root = Element("a")
        context = XPathContext(root)
        child = Element("b")
        inner = context.with_node(child, 2, 5)
        assert inner.position == 2 and inner.size == 5


class TestStoreDefensiveness:
    def test_fetch_bad_rowid_raises(self):
        from repro.errors import RowIdError
        from repro.ordbms import RowId

        store = XmlStore()
        with pytest.raises(RowIdError):
            store.xml_table.fetch(RowId(8, 8, 8))

    def test_double_store_same_name_allowed_as_distinct_docs(self):
        store = XmlStore()
        store.store_text("# A\none\n", "same.md")
        store.store_text("# A\ntwo\n", "same.md")
        assert len(store) == 2  # store_text never implicitly replaces
