"""``Explain=profile``: per-operator work units from the one pull loop."""

import hashlib

import pytest

from repro import obs
from repro.netmark import Netmark
from repro.query.engine import QueryEngine
from repro.query.language import parse_query
from repro.sgml.serializer import serialize
from repro.store import XmlStore
from repro.workloads.corpus import CorpusSpec, generate_corpus

DOCUMENT = """
<ndoc>
<title>Mission Plan</title>
<section><h1>Budget</h1>
<p>The resource budget covers launch and recovery.</p>
<p>Contingency resource lines are separate.</p>
</section>
<section><h1>Schedule</h1>
<p>Milestones slip when the budget does.</p>
</section>
</ndoc>
"""


@pytest.fixture(autouse=True)
def sandbox_registry():
    previous = obs.get_registry()
    obs.push_registry()
    yield
    obs.set_registry(previous)


@pytest.fixture()
def store():
    loaded = XmlStore()
    for index in range(4):
        loaded.store_text(DOCUMENT, f"plan-{index}.xml")
    return loaded


class TestExplainProfile:
    def test_plain_explain_has_no_ticks(self, store):
        document = QueryEngine(store).explain("Context=Budget&Explain=1")
        xml = serialize(document, indent=2)
        assert 'rows="' in xml
        assert "ticks" not in xml
        assert "profile" not in xml

    def test_profile_annotates_every_operator(self, store):
        engine = QueryEngine(store)
        query = parse_query("Context=Budget&Content=resource&Explain=profile")
        assert query.profile and query.explain
        document = engine.explain(query)
        plan = document.root
        assert plan.attributes["profile"] == "work-units"
        total = int(plan.attributes["total-ticks"])
        assert total > 0

        def operators(element):
            yield element
            for child in element.children:
                if getattr(child, "tag", None) == "operator":
                    yield from operators(child)

        (root_operator,) = [
            child for child in plan.children if getattr(child, "tag", None) == "operator"
        ]
        seen = list(operators(root_operator))
        assert len(seen) > 3  # materialize > present > limit > ...
        for operator in seen:
            assert "rows" in operator.attributes
            assert int(operator.attributes["ticks"]) >= 0
        # The root's inclusive cost covers every row surfaced anywhere.
        assert int(root_operator.attributes["ticks"]) == total

    def test_child_cost_is_contained_in_parent(self, store):
        document = QueryEngine(store).explain(
            "Context=Budget&Explain=profile"
        )

        def check(element):
            for child in element.children:
                if getattr(child, "tag", None) != "operator":
                    continue
                assert (
                    int(child.attributes["ticks"])
                    <= int(element.attributes["ticks"])
                )
                check(child)

        (root_operator,) = [
            child
            for child in document.root.children
            if getattr(child, "tag", None) == "operator"
        ]
        check(root_operator)

    def test_ticks_are_deterministic_across_runs(self, store):
        engine = QueryEngine(store)
        first = serialize(
            engine.explain("Context=Budget&Content=resource&Explain=profile"),
            indent=2,
        )
        second = serialize(
            engine.explain("Context=Budget&Content=resource&Explain=profile"),
            indent=2,
        )
        assert first == second

    def test_unprofiled_execution_is_unchanged(self, store):
        engine = QueryEngine(store)
        profiled = engine.execute("Context=Budget&Explain=profile")
        plain = engine.execute("Context=Budget")
        assert len(profiled) == len(plain)


#: Index and scan paths, ``Nodename=`` with and without ``Content=``,
#: with and without ``limit``, run in this order on one node.
PINNED_QUERIES = [
    "Context=Budget", "Context=Budget&limit=2", "Content=resource",
    "Content=zephyr&limit=3", "Context=Schedule&Content=zephyr",
    "Context=Technology Gap&Content=mission", "Nodename=section",
    "Nodename=document&limit=4", "Nodename=section&Content=zephyr&limit=2",
    "Content=budget schedule&limit=5",
]


class TestProfileBodiesArePinned:
    def test_bodies_are_byte_identical_to_the_pins(self):
        """sha256 over every ``Explain=profile`` body, over HTTP (index
        path, cache-enabled engine) and from a bare scan engine.  The pins
        were taken when each operator timed its own pulls on a tick
        clock; ticks read from ``rows_out`` must render the same bytes.
        The index-path pin moved since, on purpose: a ``Context=`` probe
        reads the heading postings alone, so its ``index-probe`` rows
        (and the ticks above them) count heading hits only.  Both pins
        moved when the lift pool went: the ``<plan>`` element lost its
        ``lift-cache``, ``lift-cache-hits`` and ``lift-cache-misses``
        attributes, and nothing else in a body changed.  The index-path
        pin moved again when the index came to decide one-token terms:
        each such ``section-walk`` says "decided by the index" in its
        detail, and ``Content=budget schedule`` gained an ``intersect``
        under its rank (7 ranked candidates became 5).  The scan path
        never decides, and its pin did not move."""
        node = Netmark()
        spec = CorpusSpec(documents=12, planted_term="zephyr")
        for generated in generate_corpus(spec):
            assert node.ingest(generated.name, generated.text).ok
        http, scan = hashlib.sha256(), hashlib.sha256()
        for query in PINNED_QUERIES:
            http.update(
                node.http_get(f"/search?{query}&Explain=profile").body.encode()
            )
            plan = QueryEngine(node.store, use_index=False).explain(
                f"{query}&Explain=profile"
            )
            scan.update(serialize(plan, indent=2).encode())
        assert http.hexdigest() == (
            "1d52b1e405b7540a03a4ca81d3e75fa7cfbe0e6f19ce0be9e565bcb9bd67df26"
        )
        assert scan.hexdigest() == (
            "92115cfc7d4a922cf59adb03060e31239648a638c0019be8d9f0b1b93b1ecc96"
        )
