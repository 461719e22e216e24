"""Context aliases — the lean virtual-view substitute (§4)."""

import re
from dataclasses import fields, replace

import pytest

from repro.errors import FederationError
from repro.federation import ContextAliasRegistry, Record, StructuredSource
from repro.netmark import Netmark
from repro.query.ast import ContentSpec, ContextSpec, XdbQuery
from repro.query.language import parse_query


@pytest.fixture
def aliases():
    registry = ContextAliasRegistry()
    registry.define("Budget", "Budget", "Cost Details", "Funding")
    return registry


class TestRegistry:
    def test_define_and_contains(self, aliases):
        assert "budget" in aliases
        assert "BUDGET" in aliases
        assert len(aliases) == 1
        assert aliases.names() == ["budget"]

    def test_duplicate_rejected(self, aliases):
        with pytest.raises(FederationError):
            aliases.define("budget", "x")

    def test_empty_definitions_rejected(self):
        registry = ContextAliasRegistry()
        with pytest.raises(FederationError):
            registry.define("", "x")
        with pytest.raises(FederationError):
            registry.define("name")

    def test_drop(self, aliases):
        aliases.drop("Budget")
        assert len(aliases) == 0
        with pytest.raises(FederationError):
            aliases.drop("Budget")


class TestExpansion:
    def test_self_including_alias(self, aliases):
        spec = aliases.expand(ContextSpec(("Budget",)))
        assert spec.phrases == ("Budget", "Cost Details", "Funding")

    def test_non_alias_passes_through(self, aliases):
        spec = aliases.expand(ContextSpec(("Schedule",)))
        assert spec.phrases == ("Schedule",)

    def test_mixed_phrases(self, aliases):
        spec = aliases.expand(ContextSpec(("Schedule", "Budget")))
        assert spec.phrases == (
            "Schedule", "Budget", "Cost Details", "Funding",
        )

    def test_nested_aliases(self):
        registry = ContextAliasRegistry()
        registry.define("Money", "Budget", "Cost Details")
        registry.define("Everything", "Money", "Schedule")
        spec = registry.expand(ContextSpec(("Everything",)))
        assert spec.phrases == ("Budget", "Cost Details", "Schedule")

    def test_mutual_recursion_terminates(self):
        registry = ContextAliasRegistry()
        registry.define("A", "B", "one")
        registry.define("B", "A", "two")
        spec = registry.expand(ContextSpec(("A",)))
        # B expands under A; the back-reference to A stays literal.
        assert set(spec.phrases) == {"A", "one", "two"}

    def test_rewrite_preserves_other_query_parts(self, aliases):
        query = parse_query("Context=Budget&Content=travel&limit=3")
        rewritten = aliases.rewrite(query)
        assert rewritten.context.phrases == (
            "Budget", "Cost Details", "Funding",
        )
        assert rewritten.content == query.content
        assert rewritten.limit == 3

    def test_rewrite_changes_nothing_but_the_context(self, aliases):
        query = XdbQuery(
            context=ContextSpec(("Budget",)),
            content=ContentSpec(("travel",)),
            nodename="chapter",
            doc="review",
            format="pdf",
            stylesheet="report.xsl",
            databank="bank",
            limit=3,
            explain=True,
            profile=True,
            trace=True,
            deadline_ticks=5,
            partial_ok=True,
            cache=False,
            extras=(("x", "1"),),
        )
        defaults = XdbQuery(context=ContextSpec(("Budget",)))
        unset = [
            field.name for field in fields(XdbQuery)
            if field.name != "context"
            and getattr(query, field.name) == getattr(defaults, field.name)
        ]
        assert unset == []  # the query sets every field
        rewritten = aliases.rewrite(query)
        assert rewritten.context.phrases == (
            "Budget", "Cost Details", "Funding",
        )
        assert replace(rewritten, context=query.context) == query

    def test_rewrite_with_no_alias_returns_its_argument(self):
        query = parse_query("Context=Budget")
        assert ContextAliasRegistry().rewrite(query) is query

    def test_rewrite_without_context_is_identity(self, aliases):
        query = parse_query("Content=travel")
        assert aliases.rewrite(query) is query


class TestEndToEnd:
    def test_local_search_spans_vocabularies(self):
        node = Netmark("n")
        node.ingest("a.md", "# Budget\nten dollars\n")
        node.ingest("b.md", "# Cost Details\ntwenty dollars\n")
        node.ingest("c.md", "# Funding\nthirty dollars\n")
        assert len(node.search("Context=Budget")) == 1
        node.define_context_alias("Budget", "Budget", "Cost Details", "Funding")
        assert len(node.search("Context=Budget")) == 3
        assert node.assembly_steps == 1  # one declarative line

    def test_federated_search_uses_aliases(self):
        node = Netmark("hub")
        tracker = StructuredSource(
            "trk",
            [Record("A-1", (("Description", "engine issue"),)),
             Record("B-1", (("Summary", "engine observation"),))],
        )
        node.create_databank("bank")
        node.add_source("bank", tracker)
        node.define_context_alias("Description", "Description", "Summary")
        results = node.federated_search("Context=Description&databank=bank")
        assert {match.file_name for match in results} == {"A-1", "B-1"}


def _docs(body: str) -> list[str]:
    return re.findall(r'<result doc="([^"]+)"', body)


class TestHttpSearch:
    """``GET /search`` expands the node's aliases as ``Netmark.search``
    does: both go through ``NetmarkHttpApi.with_aliases``."""

    @pytest.fixture
    def node(self):
        node = Netmark("n")
        node.ingest("a.md", "# Budget\nten dollars\n")
        node.ingest("b.md", "# Cost Details\ntwenty dollars\n")
        return node

    def test_facade_and_http_agree_on_an_aliased_query(self, node):
        node.define_context_alias("Budget", "Budget", "Cost Details")
        expected = sorted(match.file_name for match in node.search("Context=Budget"))
        assert expected == ["a.md", "b.md"]
        for target in ("/search?Context=Budget", "/search?Context=Budget&Cache=0"):
            response = node.http_get(target)
            assert response.ok
            assert sorted(_docs(response.body)) == expected, target

    def test_an_answer_cached_before_an_alias_is_not_replayed_after(self, node):
        assert _docs(node.http_get("/search?Context=Budget").body) == ["a.md"]
        assert 'cached="true"' in node.http_get("/search?Context=Budget").body
        node.define_context_alias("Budget", "Budget", "Cost Details")
        body = node.http_get("/search?Context=Budget").body
        assert 'cached="true"' not in body
        assert sorted(_docs(body)) == ["a.md", "b.md"]

    def test_a_federated_query_is_expanded_once_by_the_router(self, node):
        node.define_context_alias("Budget", "Budget", "Cost Details")
        node.create_databank("bank")
        node.add_source("bank", node.as_source())
        body = node.http_get("/search?Context=Budget&databank=bank").body
        assert sorted(_docs(body)) == ["a.md", "b.md"]
