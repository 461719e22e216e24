"""Ingestion daemon and the HTTP API endpoint."""

import pytest

from repro.netmark import Netmark
from repro.server.daemon import NetmarkDaemon
from repro.server.vfs import VirtualFileSystem
from repro.store import XmlStore

NDOC = "{\\ndoc1}\n{\\style Heading1}Budget\n{\\style Normal}Travel funds.\n"


@pytest.fixture
def rig():
    store = XmlStore()
    vfs = VirtualFileSystem()
    daemon = NetmarkDaemon(store, vfs, "/incoming")
    return store, vfs, daemon


class TestDaemon:
    def test_poll_ingests_dropped_file(self, rig):
        store, vfs, daemon = rig
        vfs.write("/incoming/r.ndoc", NDOC)
        [record] = daemon.poll()
        assert record.ok and record.doc_id == 1
        assert len(store) == 1

    def test_processed_files_move_aside(self, rig):
        store, vfs, daemon = rig
        vfs.write("/incoming/r.ndoc", NDOC)
        daemon.poll()
        assert not vfs.exists("/incoming/r.ndoc")
        assert vfs.exists("/incoming/processed/r.ndoc")

    def test_second_poll_is_idle(self, rig):
        store, vfs, daemon = rig
        vfs.write("/incoming/r.ndoc", NDOC)
        daemon.poll()
        assert daemon.poll() == []
        assert len(store) == 1

    def test_failure_quarantined(self, rig):
        store, vfs, daemon = rig
        vfs.write("/incoming/bad.xml", "<a><b></a>")
        [record] = daemon.poll()
        assert not record.ok and "mismatched" in record.error
        assert vfs.exists("/incoming/errors/bad.xml")
        assert len(store) == 0

    def test_quarantine_collision_gets_counter_suffix(self, rig):
        # Two quarantined files with the same name and the same logical
        # %H%M%S stamp must not collide: the second gets a counter
        # suffix instead of clobbering (or erroring on) the first.
        store, vfs, daemon = rig
        vfs.write("/incoming/errors/bad.xml", "occupied")
        vfs.write("/incoming/bad.xml", "<a><b></a>")
        stamp = vfs.entry("/incoming/bad.xml").modified.strftime("%H%M%S")
        vfs.write(f"/incoming/errors/{stamp}-bad.xml", "also occupied")
        [record] = daemon.poll()
        assert not record.ok
        assert vfs.read(f"/incoming/errors/{stamp}-1-bad.xml") == "<a><b></a>"
        assert vfs.read("/incoming/errors/bad.xml") == "occupied"
        assert vfs.read(f"/incoming/errors/{stamp}-bad.xml") == "also occupied"

    def test_poison_file_not_retried(self, rig):
        store, vfs, daemon = rig
        vfs.write("/incoming/bad.xml", "<a><b></a>")
        daemon.poll()
        assert daemon.poll() == []

    def test_mixed_batch(self, rig):
        store, vfs, daemon = rig
        vfs.write("/incoming/good.ndoc", NDOC)
        vfs.write("/incoming/bad.xml", "<a><b></a>")
        records = daemon.poll()
        assert sorted(record.status for record in records) == [
            "failed", "stored",
        ]
        assert daemon.stats()["stored"] == 1
        assert daemon.stats()["failed"] == 1

    def test_run_until_idle(self, rig):
        store, vfs, daemon = rig
        for index in range(5):
            vfs.write(f"/incoming/d{index}.ndoc", NDOC)
        assert daemon.run_until_idle() == 5

    def test_file_date_comes_from_vfs(self, rig):
        store, vfs, daemon = rig
        vfs.write("/incoming/r.ndoc", NDOC)
        modified = vfs.entry("/incoming/r.ndoc").modified
        daemon.poll()
        assert store.describe(1).file_date == modified

    def test_redrop_supersedes_document(self, rig):
        store, vfs, daemon = rig
        vfs.write("/incoming/r.ndoc", NDOC)
        daemon.poll()
        edited = NDOC.replace("Travel funds.", "Revised travel funds.")
        vfs.write("/incoming/r.ndoc", edited)
        [record] = daemon.poll()
        assert record.ok
        assert len(store) == 1  # superseded, not duplicated
        entry = store.lookup_by_name("r.ndoc")
        assert entry.metadata["revision"] == "2"
        document = store.document(entry.doc_id)
        assert "Revised travel funds." in document.text_content()

    def test_failed_replacement_keeps_old_revision(self, rig):
        store, vfs, daemon = rig
        vfs.write("/incoming/r.xml", "<doc><a>original</a></doc>")
        daemon.poll()
        vfs.write("/incoming/r.xml", "<doc><broken></doc>")
        [record] = daemon.poll()
        assert not record.ok
        entry = store.lookup_by_name("r.xml")
        assert entry is not None
        assert "original" in store.document(entry.doc_id).text_content()


class TestHttpApi:
    @pytest.fixture
    def node(self):
        netmark = Netmark()
        netmark.ingest("r.ndoc", NDOC)
        return netmark

    def test_search_route(self, node):
        response = node.http_get("/search?Context=Budget")
        assert response.ok
        assert "Travel funds." in response.body
        assert response.body.startswith("<results")

    def test_search_with_stylesheet(self, node):
        node.install_stylesheet(
            "brief.xsl",
            "<xsl:stylesheet>"
            '<xsl:template match="/"><brief>'
            '<xsl:value-of select="count(results/result)"/>'
            "</brief></xsl:template></xsl:stylesheet>",
        )
        response = node.http_get("/search?Context=Budget&xslt=brief.xsl")
        assert response.ok
        assert "<brief>1</brief>" in response.body

    def test_missing_stylesheet_404(self, node):
        response = node.http_get("/search?Context=Budget&xslt=nope.xsl")
        assert response.status == 404

    def test_bad_query_400(self, node):
        assert node.http_get("/search?limit=3").status == 400

    def test_doc_route(self, node):
        response = node.http_get("/doc/1")
        assert response.ok and "<document>" in response.body

    def test_doc_route_errors(self, node):
        assert node.http_get("/doc/99").status == 404
        assert node.http_get("/doc/xyz").status == 400

    def test_docs_catalog(self, node):
        response = node.http_get("/docs")
        assert response.ok
        assert 'name="r.ndoc"' in response.body

    def test_unknown_route_404(self, node):
        assert node.http_get("/nope").status == 404

    def test_dav_routes(self, node):
        assert node.api.request("PUT", "/dav/x/y.txt", "body").status == 409
        node.api.request("MKCOL", "/dav/x")
        assert node.api.request("PUT", "/dav/x/y.txt", "body").status == 201
        assert node.api.request("GET", "/dav/x/y.txt").body == "body"
        assert node.api.request("DELETE", "/dav/x/y.txt").status == 204

    def test_method_not_allowed(self, node):
        assert node.api.request("POST", "/search?Context=X").status == 405
        assert node.api.request("PATCH", "/dav/x").status == 405

    def test_databank_without_router_sources(self, node):
        # A URL naming a databank that does not exist is the client's
        # error, as a missing stylesheet is: 404 with a plain body.
        response = node.http_get("/search?Context=X&databank=nope")
        assert response.status == 404
        assert response.body == "no databank named 'nope'"

    def test_invalid_stylesheet_rejected_at_install(self, node):
        import pytest as _pytest

        from repro.errors import XsltError

        with _pytest.raises(XsltError):
            node.install_stylesheet("bad.xsl", "<not-xsl/>")


class TestExplainHttp:
    @pytest.fixture
    def node(self):
        netmark = Netmark()
        netmark.ingest("r.ndoc", NDOC)
        return netmark

    def test_explain_returns_plan_tree(self, node):
        response = node.http_get("/search?Context=Budget&Explain=1")
        assert response.ok
        assert response.body.startswith("<plan")
        assert 'kind="context"' in response.body
        assert '<operator name="materialize" rows="1"' in response.body
        assert '<operator name="limit"' in response.body

    def test_explain_reflects_limit(self, node):
        response = node.http_get("/search?Content=Travel&limit=1&Explain=1")
        assert response.ok
        assert 'name="limit" rows="1" detail="1"' in response.body

    def test_explain_zero_is_a_normal_search(self, node):
        response = node.http_get("/search?Context=Budget&Explain=0")
        assert response.ok
        assert response.body.startswith("<results")

    def test_explain_ignores_stylesheets(self, node):
        # Stylesheets apply to results, not plans: a missing stylesheet
        # that would 404 a normal search leaves Explain=1 untouched.
        response = node.http_get(
            "/search?Context=Budget&xslt=nope.xsl&Explain=1"
        )
        assert response.ok
        assert response.body.startswith("<plan")

    def test_explain_unknown_databank_errors(self, node):
        response = node.http_get("/search?Context=X&databank=any&Explain=1")
        assert response.status == 404
        assert response.body == "no databank named 'any'"
