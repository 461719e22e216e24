"""Every answer is labelled for what it is: ``text/xml`` exactly when the
strict parser accepts the body.

The API composes XML envelopes (results, plans, catalogs, structured
errors) and plain-text messages (a 400, 404, 405, 422 or a bare 500).
Walk every route and every error branch of the dispatcher and hold each
label to ``parse_xml``.  The one exemption is a DAV ``GET`` of a stored
file: its body is the file, passed through as ``text/plain``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro import Netmark
from repro.errors import (
    AllSourcesFailedError,
    CorruptLogError,
    FsckError,
    QueryError,
    RecoveryError,
    ReproError,
    SgmlError,
    UnknownDatabankError,
)
from repro.resilience import Budget, CancellationToken
from repro.sgml.parser import parse_xml
from tests.conftest import SAMPLE_FILES
from tests.server.test_overload import SteppingClock

BAD_SHEET = "<xsl:stylesheet><xsl:template match='/'><xsl:bogus/></xsl:template></xsl:stylesheet>"
SHEET = "<xsl:stylesheet><xsl:template match='/'><n/></xsl:template></xsl:stylesheet>"


def is_xml(body: str) -> bool:
    try:
        parse_xml(body)
    except SgmlError:
        return False
    return True


@pytest.fixture
def node() -> Netmark:
    node = Netmark("labels")
    node.ingest_many(SAMPLE_FILES)
    node.install_stylesheet("ok.xsl", SHEET)
    node.api.dav.put("/stylesheets/bad.xsl", BAD_SHEET)
    node.create_databank("empty")
    return node


REQUESTS = [
    ("GET", "/search?Context=Budget", 200),
    ("GET", "/search?Context=Budget&Cache=0&Trace=1", 200),
    ("GET", "/search?Context=Budget&Explain=1", 200),
    ("GET", "/search?Context=Budget&xslt=ok.xsl", 200),
    ("GET", "/search?Context=Budget&xslt=missing.xsl", 404),
    ("GET", "/search?Context=Budget&xslt=bad.xsl", 422),
    ("GET", "/search?Bogus=1", 400),
    ("GET", "/search?Context=Budget&databank=nowhere", 404),
    ("GET", "/doc/1", 200),
    ("GET", "/doc/x", 400),
    ("GET", "/doc/999", 404),
    ("GET", "/docs", 200),
    ("GET", "/databanks", 200),
    ("GET", "/cluster", 200),
    ("GET", "/metrics", 200),
    ("GET", "/nowhere", 404),
    ("POST", "/search", 405),
    ("PUT", "/dav/notes/a.txt", 409),
    ("MKCOL", "/dav/notes", 201),
    ("DELETE", "/dav/stylesheets/ok.xsl", 204),
    ("GET", "/dav/missing.txt", 404),
    ("PATCH", "/dav/stylesheets/ok.xsl", 405),
]


@pytest.mark.parametrize("method, target, status", REQUESTS)
def test_every_route_is_labelled_for_its_body(node, method, target, status):
    response = node.api.request(method, target)
    assert response.status == status, response.body
    assert (response.content_type == "text/xml") == is_xml(response.body), response.body


def test_a_dav_get_passes_the_stored_file_through(node):
    response = node.http_get("/dav/stylesheets/ok.xsl")
    assert response.ok and response.body == SHEET
    assert response.content_type == "text/plain"


def test_the_search_refusals(node):
    node.api.clock = SteppingClock()
    answers = [node.api.get("/search?Context=Budget&Deadline=2")]
    token = CancellationToken()
    token.cancel("gone")
    answers.append(node.api.request("GET", "/search?Context=Budget", budget=Budget(token=token)))
    bare = Netmark("bare")
    bare.api.router = None
    answers.append(bare.api.get("/search?Context=Budget&databank=any"))
    node.api.recovering = True
    answers.append(node.api.get("/docs"))
    node.api.recovering = False
    node.api.cluster = SimpleNamespace(is_coordinator=False, coordinator=None, role="follower")
    answers.append(node.api.request("PUT", "/dav/x.txt", "x"))
    assert [a.status for a in answers] == [504, 499, 422, 503, 503]
    for response in answers:
        assert (response.content_type == "text/xml") == is_xml(response.body), response.body


@pytest.mark.parametrize(
    "error",
    [
        QueryError("bad"), UnknownDatabankError("none"), ReproError("boom"),
        AllSourcesFailedError("all down"), CorruptLogError("torn"),
        RecoveryError("stuck"), FsckError("off"),
    ],
)
def test_every_error_branch(node, monkeypatch, error):
    def fail():
        raise error

    monkeypatch.setattr(node.api, "_catalog", fail)
    response = node.api.get("/docs")
    assert response.status >= 400
    assert (response.content_type == "text/xml") == is_xml(response.body), response.body
