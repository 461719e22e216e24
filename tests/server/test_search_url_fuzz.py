"""Boundary fuzz: the ``/search`` URL (ROADMAP item 1's query-parser slice).

Whatever key/value soup follows the ``?``, :func:`parse_query` returns an
:class:`XdbQuery` or raises a :mod:`repro.errors` type, and the HTTP
surface answers with a client status — 200, 400, 404 or 422 — never a
5xx and never a traceback.  (The node's clock is logical and idle, so a
``Deadline=`` the soup sets never expires into a 504.)  The ``@example``
lines are what this found on its first day.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.netmark import Netmark
from repro.query.ast import XdbQuery
from repro.query.language import parse_query

from tests.conftest import SAMPLE_FILES

DIRECTIVES = [
    "context", "content", "nodename", "doc", "format", "xslt", "stylesheet", "databank",
    "limit", "explain", "trace", "deadline", "partial", "cache",
]
_keys = st.one_of(
    st.sampled_from(DIRECTIVES).flatmap(
        lambda name: st.sampled_from([name, name.upper(), name.capitalize()])
    ),
    st.sampled_from(["", "x", "%", "Con%74ext", "a=b", "\x00"]),
)
_values = st.one_of(
    st.sampled_from([
        "", "Budget", "Budget|Travel", "shuttle", '"shuttle program"', "any:a b", "all:", "|",
        "1", "0", "-1", "profile", "true", "9" * 30, "9" * 5000, "-" + "9" * 30, "1e9", "0x10",
        "%", "%zz", "%00", "%ff%fe", "+", "%2B", "\x00", "a&b", "nope", "nope.xsl", "report.xsl",
        "all", "ndoc", "notes.md", "no-such.doc", "'", '"', "<b>", "&amp;", "../../etc", "é",
    ]),
    st.text(alphabet="ab%|\"'+:=&#;/ \x00<>0-9", max_size=8),
)
url_soup = st.lists(
    st.tuples(_keys, st.sampled_from(["=", "=", "=", "", "=="]), _values).map("".join),
    max_size=6,
).map("&".join)


@pytest.fixture(scope="module")
def node() -> Netmark:
    node = Netmark("fuzz")
    node.ingest_many(SAMPLE_FILES)
    node.install_stylesheet(
        "report.xsl",
        '<xsl:stylesheet><xsl:template match="/"><n><xsl:value-of '
        'select="count(results/result)"/></n></xsl:template></xsl:stylesheet>',
    )
    node.create_databank("all")
    node.add_source("all", node.as_source())
    return node


@given(url_soup)
@example("databank=nope&Context=Budget")
@example("databank=nope&Context=Budget&Explain=1")
@example("Context=Budget&xslt=nope.xsl&databank=all")
@example("limit=" + "9" * 5000)
@example("context=&context=Budget&limit=" + "9" * 30)
@example("Context=Budget&Deadline=-1")
@example("=&=&%=%")
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_search_url_is_answered_or_refused_with_a_client_status(node, soup):
    try:
        query = parse_query(soup)
        assert isinstance(query, XdbQuery)
    except ReproError:
        query = None
    response = node.api.request("GET", "/search?" + soup)
    assert response.status in {200, 400, 404, 422}, (soup, response.status, response.body[:200])
    assert "Traceback" not in response.body
    if query is None:
        assert response.status == 400
